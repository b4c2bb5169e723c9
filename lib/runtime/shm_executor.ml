open Effect
open Effect.Deep
module Mapping = Tiles_core.Mapping
module Plan = Tiles_core.Plan
module Span = Tiles_obs.Span
module Recorder = Tiles_obs.Recorder
module Clock = Tiles_obs.Clock
module Sim = Tiles_mpisim.Sim

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

type channel = int * int * int (* src, dst, tag *)

(* how a fiber's turn on a domain ended *)
type status = Parked | Finished | Failed of exn

type fiber =
  | Start of int  (* the rank's program, not begun *)
  | Resume of (Protocol.payload, status) continuation * Protocol.payload

type _ Effect.t += Park : channel -> Protocol.payload Effect.t

(* One lock guards all of it. A fiber moves between domains only by
   being parked or queued here, so whatever its rank wrote on one domain
   is visible on the next. *)
type sched = {
  nprocs : int;
  lock : Mutex.t;
  wake : Condition.t;  (* the run queue grew, or the run ended *)
  runq : fiber Queue.t;
  (* a drained queue is removed, so every queue here is non-empty *)
  channels : (channel, Protocol.payload Queue.t) Hashtbl.t;
  parked : (channel, (Protocol.payload, status) continuation) Hashtbl.t;
  mutable running : int;  (* fibers on a domain now *)
  mutable finished : int;
  mutable failure : exn option;  (* the first; it stops the run *)
}

let take s ch =
  match Hashtbl.find_opt s.channels ch with
  | None -> None
  | Some q ->
    let p = Queue.pop q in
    if Queue.is_empty q then Hashtbl.remove s.channels ch;
    Some p

(* never blocks: a receiver parked on the channel gets the payload, and
   otherwise the channel queues it *)
let deliver s ch payload =
  Mutex.lock s.lock;
  (match Hashtbl.find_opt s.parked ch with
  | Some k ->
    Hashtbl.remove s.parked ch;
    Queue.push (Resume (k, payload)) s.runq;
    Condition.signal s.wake
  | None -> (
    match Hashtbl.find_opt s.channels ch with
    | Some q -> Queue.push payload q
    | None -> Hashtbl.add s.channels ch (Queue.of_seq (Seq.return payload))));
  Mutex.unlock s.lock

let receive s ch =
  Mutex.lock s.lock;
  let p = take s ch in
  Mutex.unlock s.lock;
  match p with Some p -> p | None -> perform (Park ch)

let handler s =
  {
    retc = (fun () -> Finished);
    exnc = (fun e -> Failed e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Park ch ->
          Some
            (fun (k : (a, status) continuation) ->
              Mutex.lock s.lock;
              (* a send may have landed since the receive looked *)
              match take s ch with
              | Some p ->
                Mutex.unlock s.lock;
                continue k p
              | None ->
                Hashtbl.replace s.parked ch k;
                Mutex.unlock s.lock;
                Parked)
        | _ -> None);
  }

let stop s e =
  if Option.is_none s.failure then s.failure <- Some e;
  Condition.broadcast s.wake

(* One domain's share of the run, called and returning with the lock
   held: run fibers until the run ends or fails. *)
let rec work s body =
  if Option.is_none s.failure then
    match Queue.take_opt s.runq with
    | Some fiber ->
      s.running <- s.running + 1;
      Mutex.unlock s.lock;
      let status =
        match fiber with
        | Start rank -> match_with body rank (handler s)
        | Resume (k, p) -> continue k p
      in
      Mutex.lock s.lock;
      s.running <- s.running - 1;
      (match status with
      | Parked -> ()
      | Finished -> s.finished <- s.finished + 1
      | Failed e -> stop s e);
      work s body
    | None when s.running > 0 ->
      Condition.wait s.wake s.lock;
      work s body
    | None ->
      (* no fiber runs and none can: every rank is done, or each one
         left waits for a message that no rank will send *)
      if s.finished < s.nprocs then
        stop s
          (Sim.deadlock (Hashtbl.fold (fun ch _ acc -> ch :: acc) s.parked []))
      else Condition.broadcast s.wake

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
  let s =
    {
      nprocs;
      lock = Mutex.create ();
      wake = Condition.create ();
      runq = Queue.create ();
      channels = Hashtbl.create 64;
      parked = Hashtbl.create 16;
      running = 0;
      finished = 0;
      failure = None;
    }
  in
  let comms_for rank log =
    {
      Protocol.send =
        (fun ~dst ~tag data ->
          (* the "send" of this transport is the hand-off itself, so its
             Send span is just that *)
          let t0 = now () in
          deliver s (rank, dst, tag) data;
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
          let data = receive s (src, rank, tag) in
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
  let body rank =
    let log = Recorder.log recorder ~rank in
    Recorder.mark log;
    program (comms_for rank log) rank;
    Recorder.finish log
  in
  (* the caller may have made the recorder before this run's set-up *)
  Recorder.restart recorder;
  for rank = 0 to nprocs - 1 do
    Queue.push (Start rank) s.runq
  done;
  let worker () =
    Mutex.lock s.lock;
    work s body;
    Mutex.unlock s.lock
  in
  (* the calling domain is a worker too; a helper that fails to spawn
     only leaves fewer of them *)
  let helpers =
    List.init (min nprocs (Domain.recommended_domain_count ()) - 1) Fun.id
    |> List.filter_map (fun _ -> try Some (Domain.spawn worker) with _ -> None)
  in
  worker ();
  List.iter Domain.join helpers;
  (* a stopped run unwinds every fiber it left unfinished: a continuation
     never resumed would keep its stack *)
  let unwind k = ignore (discontinue k Exit) in
  List.of_seq (Queue.to_seq s.runq)
  |> List.iter (function Resume (k, _) -> unwind k | Start _ -> ());
  List.iter unwind (List.of_seq (Hashtbl.to_seq_values s.parked));
  Option.iter raise s.failure

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
  let space = plan.Plan.nest.Tiles_loop.Nest.space in
  let t1 = Clock.monotonic () in
  let oracle = Seq_exec.run ~space ~kernel () in
  let seq_wall = Clock.monotonic () -. t1 in
  let grid =
    match shared.Protocol.grid with
    | Some g -> g
    | None -> assert false
  in
  {
    wall_seconds = wall;
    seq_wall_seconds = seq_wall;
    wall_speedup = seq_wall /. wall;
    grid;
    max_abs_err = Grid.max_abs_diff grid oracle space;
    nprocs;
    messages = Recorder.messages recorder;
    bytes = Recorder.bytes recorder;
    points_computed = Array.fold_left ( + ) 0 shared.Protocol.points_per_rank;
    tiles_executed = Array.fold_left ( + ) 0 shared.Protocol.tiles_per_rank;
    walker_fallback = shared.Protocol.fallback;
  }
