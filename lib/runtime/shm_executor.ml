module Mapping = Tiles_core.Mapping
module Plan = Tiles_core.Plan
module Polyhedron = Tiles_poly.Polyhedron
module Span = Tiles_obs.Span
module Recorder = Tiles_obs.Recorder
module Clock = Tiles_obs.Clock

exception Recv_timeout of string

(* OCaml 5.1's [Max_domains]: live domains per process, the main one
   included *)
let max_domains = 128

exception Too_many_ranks of { nprocs : int; max_domains : int }

let () =
  Printexc.register_printer (function
    | Recv_timeout diag -> Some diag
    | Too_many_ranks { nprocs; max_domains } ->
      Some
        (Printf.sprintf
           "Shm_executor: %d ranks need %d domains with the watchdog and \
            the caller's, past the runtime's limit of %d"
           nprocs (nprocs + 2) max_domains)
    | _ -> None)

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

(* A blocking mailbox per (src, dst) channel, tag-matched. *)
module Mailbox = struct
  type 'a t = {
    mutex : Mutex.t;
    cond : Condition.t;
    messages : (int, 'a Queue.t) Hashtbl.t;
  }

  let create () =
    { mutex = Mutex.create (); cond = Condition.create ();
      messages = Hashtbl.create 8 }

  let send t ~tag data =
    Mutex.lock t.mutex;
    let q =
      match Hashtbl.find_opt t.messages tag with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.add t.messages tag q;
        q
    in
    Queue.push data q;
    Condition.broadcast t.cond;
    Mutex.unlock t.mutex

  let recv ?(timeout = infinity) ?(abort = fun () -> false)
      ?(diag = fun () -> "Mailbox.recv: timed out") t ~tag =
    (* [not (timeout > 0.)] also catches NaN; a zero or negative timeout
       used to silently mean "wait forever", hiding watchdog misuse *)
    if not (timeout > 0.) then
      invalid_arg
        "Mailbox.recv: timeout must be positive (use infinity to wait forever)";
    let deadline =
      if timeout < infinity then Clock.monotonic () +. timeout else infinity
    in
    Mutex.lock t.mutex;
    let rec wait () =
      match Hashtbl.find_opt t.messages tag with
      | Some q when not (Queue.is_empty q) ->
        let data = Queue.pop q in
        (* a drained per-tag queue must go, or a long-running channel
           leaks one empty Queue.t per tag it has ever carried *)
        if Queue.is_empty q then Hashtbl.remove t.messages tag;
        data
      | _ ->
        if abort () then begin
          Mutex.unlock t.mutex;
          raise Exit
        end;
        if Clock.monotonic () > deadline then begin
          Mutex.unlock t.mutex;
          raise (Recv_timeout (diag ()))
        end;
        (* the run's watchdog broadcasts periodically, and a failing rank
           once, so this wait rechecks the deadline and [abort] even if no
           message ever arrives *)
        Condition.wait t.cond t.mutex;
        wait ()
    in
    let data = wait () in
    Mutex.unlock t.mutex;
    data

  let tag_count t =
    Mutex.lock t.mutex;
    let n = Hashtbl.length t.messages in
    Mutex.unlock t.mutex;
    n

  let nudge t =
    Mutex.lock t.mutex;
    Condition.broadcast t.cond;
    Mutex.unlock t.mutex
end

let watchdog_period = 0.02

(* how long a receive may block before the run gives up on its peer *)
let recv_timeout = 30.

let run ?walker ?check ?recorder ?(overlap = false) ~plan ~kernel () =
  let nprocs = Mapping.nprocs plan.Plan.mapping in
  if nprocs + 2 > max_domains then
    raise (Too_many_ranks { nprocs; max_domains });
  let shared =
    Protocol.prepare ?walker ?check ~mode:Protocol.Full ~plan ~kernel
      ~flop_time:0. ~pack_time:0. ()
  in
  let boxes =
    Array.init nprocs (fun _ -> Array.init nprocs (fun _ -> Mailbox.create ()))
  in
  let recorder =
    match recorder with
    | Some rc ->
      if Recorder.nprocs rc <> nprocs then
        invalid_arg "Shm_executor.run: recorder nprocs mismatch";
      rc
    | None -> Recorder.create ~nprocs ()
  in
  (* an untraced run keeps counters only, so it reads no clock per message *)
  let now =
    if Recorder.tracing recorder then fun () -> Recorder.now recorder
    else fun () -> 0.
  in
  (* the first rank to fail; the others stop waiting once it is set *)
  let failure = Atomic.make None in
  let failed () = Option.is_some (Atomic.get failure) in
  let comms_for rank =
    let log = Recorder.log recorder ~rank in
    {
      Protocol.send =
        (fun ~dst ~tag data ->
          (* the "send" of this transport is the local mailbox enqueue
             itself, so its Send span is just that enqueue *)
          let t0 = now () in
          Mailbox.send boxes.(rank).(dst) ~tag data;
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
          let diag () =
            Printf.sprintf
              "Shm_executor: rank %d blocked > %gs in recv (src=%d, tag=%d) \
               — mis-generated schedule?"
              rank recv_timeout src tag
          in
          let data =
            Mailbox.recv ~timeout:recv_timeout ~abort:failed ~diag
              boxes.(src).(rank) ~tag
          in
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
  let nudge_all () = Array.iter (Array.iter Mailbox.nudge) boxes in
  let fail e =
    (* the first failure wakes every blocked receiver, so the run ends
       now rather than at the receive deadline *)
    if Atomic.compare_and_set failure None (Some e) then nudge_all ()
  in
  (* Condition.wait has no timed variant; a watchdog domain periodically
     wakes every mailbox so blocked receivers can notice their deadlines.
     It waits on a pipe, so the run stops it at once when it ends. *)
  let wake_rd, wake_wr = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close wake_rd;
      Unix.close wake_wr)
    (fun () ->
      let watchdog =
        Domain.spawn (fun () ->
            let stop = ref false in
            while not !stop do
              match Unix.select [ wake_rd ] [] [] watchdog_period with
              | [], _, _ -> nudge_all ()
              | _ -> stop := true
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            done)
      in
      Fun.protect
        ~finally:(fun () ->
          ignore (Unix.write_substring wake_wr "x" 0 1);
          Domain.join watchdog)
        (fun () ->
          (* the caller may have made the recorder before this run's
             set-up *)
          Recorder.restart recorder;
          let rank_body rank () =
            let log = Recorder.log recorder ~rank in
            Recorder.mark log;
            (try Protocol.rank_program ~overlap shared (comms_for rank) rank
             with e -> fail e);
            Recorder.finish log
          in
          (* a spawn that fails ends the run like a failing rank: the
             ranks already running give up and are joined *)
          let rec spawn rank acc =
            if rank = nprocs then acc
            else
              match Domain.spawn (rank_body rank) with
              | d -> spawn (rank + 1) (d :: acc)
              | exception e ->
                fail e;
                acc
          in
          List.iter Domain.join (List.rev (spawn 0 []))));
  (match Atomic.get failure with Some e -> raise e | None -> ());
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
