(** Real shared-memory execution of a plan on OCaml 5 domains.

    The paper's abstract machine is message passing over NUMA; this
    backend instantiates the {e same} per-tile protocol ({!Protocol}) with
    one domain per processor and blocking in-memory mailboxes instead of
    the simulator — so the compiled schedule actually runs in parallel on
    the host's cores and its output is compared against the sequential
    oracle like everything else. Wall-clock speedup is measured but
    depends on the host; correctness is the point.

    Two schedules are available. The default is the paper's blocking
    receive → compute → send loop. With [~overlap:true] each rank runs
    {!Protocol.rank_program}'s §5 overlapped schedule: every receive of
    a tile is posted before any slab is unpacked, and outgoing slabs
    leave right after the tile's computation. A send on this transport
    is a mailbox enqueue that never blocks, so both schedules send the
    same way. The message set and per-channel order are identical
    either way, so both schedules (and both backends) report the same
    message/byte counters.

    Every run writes to a {!Tiles_obs.Recorder}, the run's one record
    of its timeline: message/byte counters are always on, each rank
    stamps its finish, and a tracing recorder also gets wall-clock
    {!Tiles_obs.Span.t} values in the same compute/pack/send/wait/unpack
    vocabulary as the simulator, so the two backends' traces (and the
    {!Tiles_obs.Stats} built from them) are directly comparable.

    Use modest process counts (≲ number of cores): each rank is a real
    domain, and a watchdog domain runs beside them. *)

exception Recv_timeout of string
(** Raised (with a diagnostic naming the blocked rank, source and tag)
    when a receive of a {!run} blocks longer than 30 seconds — the
    symptom of a mis-generated schedule, which would otherwise hang
    forever. [Printexc.to_string] prints the diagnostic alone. *)

val max_domains : int
(** Live domains the OCaml runtime allows in one process (128,
    [Max_domains]), the calling domain included. *)

exception Too_many_ranks of { nprocs : int; max_domains : int }
(** Raised by {!run}, before it starts any domain, when a plan's
    [nprocs] ranks plus the watchdog and the calling domain would pass
    {!max_domains}. *)

type result = {
  wall_seconds : float;
      (** parallel wall-clock time: the latest rank finish *)
  seq_wall_seconds : float;   (** sequential oracle wall-clock time *)
  wall_speedup : float;
  grid : Grid.t;              (** the parallel result *)
  max_abs_err : float;        (** vs the sequential oracle *)
  nprocs : int;
  messages : int;
  bytes : int;                (** total payload bytes sent *)
  points_computed : int;      (** total iterations executed across ranks *)
  tiles_executed : int;
  walker_fallback : string option;
      (** why a [Native] walker ran the OCaml fast path
          ({!Protocol.shared}'s [fallback]) *)
}

(** The blocking tag-matched channel used between each (src, dst) rank
    pair. Exposed for tests. *)
module Mailbox : sig
  type 'a t
  (** Carries messages of type ['a]: a run's protocol payloads. *)

  val create : unit -> 'a t

  val send : 'a t -> tag:int -> 'a -> unit

  val recv :
    ?timeout:float ->
    ?abort:(unit -> bool) ->
    ?diag:(unit -> string) ->
    'a t ->
    tag:int ->
    'a
  (** Blocks until a message with [tag] is available. A drained per-tag
      queue is removed from the table, so the table stays bounded by the
      number of {e pending} tags rather than growing with every tag ever
      seen. [timeout] (seconds) defaults to [infinity] — wait forever;
      with a finite timeout, raises {!Recv_timeout} with [diag ()] once
      the deadline passes — provided something (e.g. the run's watchdog)
      wakes the condition periodically. A non-positive (or NaN) timeout
      raises [Invalid_argument]: [0.] used to silently mean "wait
      forever", disabling the watchdog exactly when the caller asked for
      the tightest deadline. [abort] (default: never) is checked each
      time the receiver would wait; once it holds, the receiver gives up
      and raises [Exit] — a {!run} whose rank has already failed uses it
      to stop its other ranks without waiting for the deadline. *)

  val tag_count : _ t -> int
  (** Number of per-tag queues currently in the table (for leak tests). *)

  val nudge : _ t -> unit
  (** Wake all waiters so they can re-check their deadlines. *)
end

val run :
  ?walker:Walker.variant ->
  ?check:bool ->
  ?recorder:Tiles_obs.Recorder.t ->
  ?overlap:bool ->
  plan:Tiles_core.Plan.t ->
  kernel:Kernel.t ->
  unit ->
  result
(** Always Full mode (the whole point is the real data flow).
    [walker]/[check] select the tile-execution engine and its NaN-read
    validation exactly as in {!Protocol.prepare}. [recorder] receives
    the run's spans, edges and counters (matching [nprocs] required);
    its {!Tiles_obs.Recorder.keep} decides how much of them is kept.
    Without one the run writes to a [Counters] recorder of its own. The
    run {!Tiles_obs.Recorder.restart}s the recorder as its ranks start,
    so every stamp counts from then, not from the set-up. [overlap]
    (default false) runs the §5 overlapped schedule: receives pre-posted
    per tile ({!Protocol.rank_program}); sends are the same mailbox
    enqueue as in the blocking schedule. [wall_seconds] is the latest
    rank finish on the recorder's clock, the completion its spans
    count towards. A receive blocked for 30 seconds raises
    {!Recv_timeout}. The first exception any rank raises wakes the
    ranks blocked in a receive, which give up, and is re-raised once
    every rank has stopped; so is a failing [Domain.spawn], once the
    ranks already started have stopped. Raises {!Too_many_ranks} before
    anything starts when the ranks would pass the domain limit, and
    [Invalid_argument] like {!Protocol.prepare}. *)
