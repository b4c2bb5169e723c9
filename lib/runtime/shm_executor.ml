module Mapping = Tiles_core.Mapping
module Plan = Tiles_core.Plan
module Span = Tiles_obs.Span
module Recorder = Tiles_obs.Recorder
module Sched = Tiles_mpisim.Sched

type result = {
  wall_seconds : float;
  seq_wall_seconds : float;
  wall_speedup : float;
  grid : Grid.t;
  max_abs_err : float;
  nprocs : int;
  messages : int;
  bytes : int;
  points_computed : int;
  tiles_executed : int;
  walker_fallback : string option;
}

let run_program ?recorder ~nprocs program =
  if nprocs <= 0 then invalid_arg "Shm_executor.run_program: nprocs";
  let recorder =
    match recorder with
    | Some rc ->
      if Recorder.nprocs rc <> nprocs then
        invalid_arg "Shm_executor.run_program: recorder nprocs mismatch";
      rc
    | None -> Recorder.create ~nprocs ()
  in
  (* an untraced run keeps counters only, so it reads no clock per message *)
  let now =
    if Recorder.tracing recorder then fun () -> Recorder.now recorder
    else fun () -> 0.
  in
  let comms_for sched rank log =
    {
      Protocol.send =
        (fun ~dst ~tag data ->
          (* the "send" of this transport is the hand-off itself, so its
             Send span is just that *)
          let t0 = now () in
          Sched.send sched ~src:rank ~dst ~tag data;
          (* the causal stamp and the Send span's end must be the same
             reading, so critical-path hops land exactly on span ends *)
          let t1 = now () in
          Recorder.message_sent log ~t:t1 ~dst ~tag
            ~bytes:(8 * Protocol.payload_length data) ();
          Recorder.span log ~t0 ~t1 Span.Send;
          Recorder.mark log);
      recv =
        (fun ~src ~tag ->
          let t0 = now () in
          let data = Sched.recv sched ~src ~dst:rank ~tag in
          let t1 = now () in
          Recorder.message_received log ~t:t1 ~posted:t0 ~src ~tag
            ~bytes:(8 * Protocol.payload_length data) ();
          Recorder.span log ~t0 ~t1 Span.Wait;
          Recorder.mark log;
          data);
      compute = (fun _ -> Recorder.close log Span.Compute);
      pack = (fun _ -> Recorder.close log Span.Pack);
      unpack = (fun _ -> Recorder.close log Span.Unpack);
    }
  in
  let body sched rank =
    let log = Recorder.log recorder ~rank in
    Recorder.mark log;
    program (comms_for sched rank log) rank;
    Recorder.finish log
  in
  (* the caller may have made the recorder before this run's set-up *)
  Recorder.restart recorder;
  Sched.run ~domains:(min nprocs (Domain.recommended_domain_count ())) ~nprocs
    body

let run ?walker ?check ?recorder ?(overlap = false) ~plan ~kernel () =
  let nprocs = Mapping.nprocs plan.Plan.mapping in
  let shared =
    Protocol.prepare ?walker ?check ~mode:Protocol.Full ~plan ~kernel
      ~flop_time:0. ~pack_time:0. ()
  in
  let recorder =
    match recorder with Some rc -> rc | None -> Recorder.create ~nprocs ()
  in
  run_program ~recorder ~nprocs (Protocol.rank_program ~overlap shared);
  (* the latest rank finish, on the clock the spans use *)
  let wall = Array.fold_left Float.max 0. (Recorder.rank_finish recorder) in
  let grid =
    match shared.Protocol.grid with
    | Some g -> g
    | None -> assert false
  in
  let check =
    Seq_exec.check ~space:plan.Plan.nest.Tiles_loop.Nest.space ~kernel grid
  in
  let seq_wall = check.Seq_exec.oracle_seconds in
  {
    wall_seconds = wall;
    seq_wall_seconds = seq_wall;
    wall_speedup = (if wall > 0. then seq_wall /. wall else 0.);
    grid;
    max_abs_err = check.Seq_exec.err;
    nprocs;
    messages = Recorder.messages recorder;
    bytes = Recorder.bytes recorder;
    points_computed = Array.fold_left ( + ) 0 shared.Protocol.points_per_rank;
    tiles_executed = Array.fold_left ( + ) 0 shared.Protocol.tiles_per_rank;
    walker_fallback = shared.Protocol.fallback;
  }
