module Mapping = Tiles_core.Mapping
module Plan = Tiles_core.Plan
module Polyhedron = Tiles_poly.Polyhedron
module Span = Tiles_obs.Span
module Recorder = Tiles_obs.Recorder
module Clock = Tiles_obs.Clock

exception Recv_timeout of string
exception Send_timeout of string

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

  let recv ?(timeout = infinity) ?(diag = fun () -> "Mailbox.recv: timed out")
      t ~tag =
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
        if Clock.monotonic () > deadline then begin
          Mutex.unlock t.mutex;
          raise (Recv_timeout (diag ()))
        end;
        (* the run's watchdog broadcasts periodically, so this wait
           rechecks the deadline even if no message ever arrives *)
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

(* The per-rank asynchronous send stage of the overlapped schedule: a
   bounded queue of delivery thunks drained by a dedicated domain, so
   the rank hands a packed slab off and computes the next tile while the
   transfer completes. The bound makes backpressure real — a producer
   outrunning the drainer blocks in [submit], and the blocked interval
   is returned so the caller can charge it as communication wait. *)
module Send_stage = struct
  type t = {
    mutex : Mutex.t;
    not_full : Condition.t;
    not_empty : Condition.t;
    jobs : (unit -> unit) Queue.t;
    capacity : int;
    mutable closed : bool;
  }

  let create ~capacity =
    if capacity < 1 then invalid_arg "Send_stage.create: capacity must be >= 1";
    { mutex = Mutex.create (); not_full = Condition.create ();
      not_empty = Condition.create (); jobs = Queue.create ();
      capacity; closed = false }

  let capacity t = t.capacity

  let submit ?(timeout = infinity)
      ?(diag = fun () -> "Send_stage.submit: timed out") t job =
    if not (timeout > 0.) then
      invalid_arg
        "Send_stage.submit: timeout must be positive (use infinity to wait \
         forever)";
    let deadline =
      if timeout < infinity then Clock.monotonic () +. timeout else infinity
    in
    Mutex.lock t.mutex;
    let rec wait_room blocked =
      if t.closed then begin
        Mutex.unlock t.mutex;
        invalid_arg "Send_stage.submit: stage is closed"
      end;
      if Queue.length t.jobs < t.capacity then blocked
      else begin
        if Clock.monotonic () > deadline then begin
          Mutex.unlock t.mutex;
          raise (Send_timeout (diag ()))
        end;
        (* like Mailbox.recv, relies on a periodic nudge to re-check the
           deadline when the drainer never makes room *)
        let t0 = Clock.monotonic () in
        Condition.wait t.not_full t.mutex;
        wait_room (blocked +. (Clock.monotonic () -. t0))
      end
    in
    let blocked = wait_room 0. in
    Queue.push job t.jobs;
    Condition.signal t.not_empty;
    Mutex.unlock t.mutex;
    blocked

  let close t =
    Mutex.lock t.mutex;
    t.closed <- true;
    Condition.broadcast t.not_empty;
    Mutex.unlock t.mutex

  let pending t =
    Mutex.lock t.mutex;
    let n = Queue.length t.jobs in
    Mutex.unlock t.mutex;
    n

  let nudge t =
    Mutex.lock t.mutex;
    Condition.broadcast t.not_full;
    Mutex.unlock t.mutex

  let drain t =
    let rec loop () =
      Mutex.lock t.mutex;
      while Queue.is_empty t.jobs && not t.closed do
        Condition.wait t.not_empty t.mutex
      done;
      if Queue.is_empty t.jobs then Mutex.unlock t.mutex (* closed + empty *)
      else begin
        let job = Queue.pop t.jobs in
        Condition.signal t.not_full;
        Mutex.unlock t.mutex;
        job ();
        loop ()
      end
    in
    loop ()
end

let watchdog_period = 0.02

(* slots of each rank's send stage in the overlapped schedule *)
let send_queue = 4

let run ?walker ?check ?recorder ?(overlap = false)
    ?(recv_timeout = 30.) ~plan ~kernel () =
  if not (recv_timeout > 0.) then
    invalid_arg
      "Shm_executor.run: recv_timeout must be positive (use infinity to \
       disable the watchdog)";
  let nprocs = Mapping.nprocs plan.Plan.mapping in
  let shared =
    Protocol.prepare ?walker ?check ~mode:Protocol.Full ~plan ~kernel
      ~flop_time:0. ~pack_time:0. ()
  in
  let boxes =
    Array.init nprocs (fun _ -> Array.init nprocs (fun _ -> Mailbox.create ()))
  in
  let stages =
    if overlap then
      Some (Array.init nprocs (fun _ -> Send_stage.create ~capacity:send_queue))
    else None
  in
  let recorder =
    match recorder with
    | Some rc ->
      if Recorder.nprocs rc <> nprocs then
        invalid_arg "Shm_executor.run: recorder nprocs mismatch";
      rc
    | None -> Recorder.create ~nprocs ()
  in
  let comms_for rank =
    let log = Recorder.log recorder ~rank in
    let send =
      match stages with
      | None ->
        (* blocking schedule: the "send" of this transport is the local
           mailbox enqueue itself, so its Send span is just that enqueue *)
        fun ~dst ~tag data ->
          let t0 = Recorder.now recorder in
          Mailbox.send boxes.(rank).(dst) ~tag data;
          (* the causal stamp and the Send span's end must be the same
             reading, so critical-path hops land exactly on span ends *)
          let t1 = Recorder.now recorder in
          Recorder.message_sent log ~t:t1 ~dst ~tag
            ~bytes:(8 * Protocol.payload_length data) ();
          Recorder.span log ~t0 ~t1 Span.Send;
          Recorder.mark log
      | Some stages ->
        let stage = stages.(rank) in
        fun ~dst ~tag data ->
          let t0 = Recorder.now recorder in
          let bytes = 8 * Protocol.payload_length data in
          let diag () =
            Printf.sprintf
              "Shm_executor: rank %d blocked > %gs handing a %d-byte slab \
               to its send stage (dst=%d, tag=%d) — stalled drainer?"
              rank recv_timeout bytes dst tag
          in
          let box = boxes.(rank).(dst) in
          let blocked =
            Send_stage.submit ~timeout:recv_timeout ~diag stage (fun () ->
                Mailbox.send box ~tag data)
          in
          let t1 = Recorder.now recorder in
          (* causally the message leaves this rank at the hand-off: the
             stage's queueing + mailbox delivery shows up as flight *)
          Recorder.message_sent log ~t:t1 ~dst ~tag ~bytes ();
          (* backpressure from the bounded queue is communication wait,
             not compute: the blocked interval is charged as Wait, only
             the hand-off itself as Send *)
          if blocked > 0. then begin
            Recorder.span log ~t0 ~t1:(t0 +. blocked) Span.Wait;
            Recorder.span log ~t0:(t0 +. blocked) ~t1 Span.Send
          end
          else Recorder.span log ~t0 ~t1 Span.Send;
          Recorder.mark log
    in
    {
      Protocol.send;
      recv =
        (fun ~src ~tag ->
          let t0 = Recorder.now recorder in
          let diag () =
            Printf.sprintf
              "Shm_executor: rank %d blocked > %gs in recv (src=%d, tag=%d) \
               — mis-generated schedule?"
              rank recv_timeout src tag
          in
          let data =
            Mailbox.recv ~timeout:recv_timeout ~diag boxes.(src).(rank) ~tag
          in
          let t1 = Recorder.now recorder in
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
  let failure = Atomic.make None in
  let stop_watchdog = Atomic.make false in
  (* Condition.wait has no timed variant; a watchdog domain periodically
     wakes every mailbox (and send stage) so blocked receivers and
     senders can notice their deadlines. *)
  let watchdog =
    if recv_timeout < infinity then
      Some
        (Domain.spawn (fun () ->
             while not (Atomic.get stop_watchdog) do
               Unix.sleepf watchdog_period;
               Array.iter (Array.iter Mailbox.nudge) boxes;
               Option.iter (Array.iter Send_stage.nudge) stages
             done))
    else None
  in
  (* the caller may have made the recorder before this run's set-up *)
  Recorder.restart recorder;
  let t0 = Clock.monotonic () in
  let domains =
    List.init nprocs (fun rank ->
        Domain.spawn (fun () ->
            let log = Recorder.log recorder ~rank in
            Recorder.mark log;
            (try
               match stages with
               | None -> Protocol.rank_program shared (comms_for rank) rank
               | Some stages ->
                 let stage = stages.(rank) in
                 let sender = Domain.spawn (fun () -> Send_stage.drain stage) in
                 Fun.protect
                   ~finally:(fun () ->
                     Send_stage.close stage;
                     Domain.join sender;
                     (* flushing the stage after the last tile is the
                        tail of the rank's communication *)
                     Recorder.close log Span.Send)
                   (fun () ->
                     Protocol.rank_program ~overlap:true shared
                       (comms_for rank) rank)
             with e -> ignore (Atomic.compare_and_set failure None (Some e)));
            Recorder.finish log))
  in
  List.iter Domain.join domains;
  let wall = Clock.monotonic () -. t0 in
  Atomic.set stop_watchdog true;
  Option.iter Domain.join watchdog;
  (match Atomic.get failure with Some e -> raise e | None -> ());
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
