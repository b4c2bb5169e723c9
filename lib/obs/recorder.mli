(** Per-rank span recorder with message counters and causal identity.

    Designed for concurrent backends: each rank obtains its own {!log}
    and only ever appends to it, so span recording is lock-free (no
    shared mutable state between ranks); the only cross-rank state is a
    pair of atomic in-flight byte counters. The simulator uses the same
    recorder API with explicit virtual timestamps.

    How much of the run's timeline is kept is one setting, {!keep}:

    - [Counters] — messages, bytes, in-flight bytes, NIC queueing and
      rank finish stamps; no spans.
    - [Totals] — also per-rank per-kind span seconds and a bounded
      reservoir of the longest Wait spans: O(nprocs) memory no matter
      how many spans the run produces. {!spans} and {!edges} return
      [[]].
    - [Timeline] — also the full span list and the per-message
      send/receive records that {!edges} joins into causal send→recv
      dependency edges.

    Causal identity: {!message_sent} and {!message_received} each assign
    a per-channel ((peer, tag)) sequence number on their own side. Every
    transport in this codebase delivers FIFO per (src, dst, tag), so the
    two sides' numbering agrees and the half-records join without any
    cross-rank coordination. *)

type t
type log

type keep = Counters | Totals | Timeline

type edge = {
  e_src : int;  (** sending rank *)
  e_dst : int;  (** receiving rank *)
  e_tag : int;  (** channel tag (the time-step phase for halo traffic) *)
  e_seq : int;  (** per-(src,dst,tag) sequence number, from 0 *)
  e_bytes : int;
  e_sent : float;  (** sender-side stamp: end of the send action *)
  e_posted : float;  (** receiver entered its wait *)
  e_ready : float;  (** receiver's wait ended; the message was available *)
  e_queued : float;
      (** seconds of the [e_sent → e_ready] flight spent queued behind
          other transfers in NIC lanes or the shared uplink (0 under the
          α-β model) *)
}
(** One matched send→recv dependency, with stamps from both sides. On the
    shm backend the two sides read the same monotonic clock but race on
    it, so [e_sent] may exceed [e_ready] by a scheduling jitter;
    consumers must clamp. *)

val create : ?keep:keep -> ?clock:(unit -> float) -> nprocs:int -> unit -> t
(** [keep] defaults to [Counters]. [clock] defaults to
    {!Clock.monotonic}; readings are rebased so time 0 is the recorder's
    creation. *)

val tracing : t -> bool
(** Whether spans are recorded at all ([keep] is not [Counters]). *)

val nprocs : t -> int

val now : t -> float
(** Current (rebased) clock reading. *)

val restart : t -> unit
(** Move time 0 to now, so a run's stamps count from the moment its
    ranks start rather than from when its recorder was made. Call it
    before anything is recorded. *)

val log : t -> rank:int -> log
(** The rank's private log. Each log must only be used from the domain
    running that rank. *)

val span : log -> t0:float -> t1:float -> Span.kind -> unit
(** Record one span with explicit endpoints (no-op when not tracing or
    when [t1 <= t0]). *)

val mark : log -> unit
(** Set the rank's cursor to [now] — the start of the next {!close}d
    section. Call once when the rank starts running. Reads no clock when
    not tracing. *)

val close : log -> Span.kind -> unit
(** Record the interval from the cursor to [now] under the given kind
    and advance the cursor. This lets straight-line backend code
    partition its timeline by closing each section as it finishes. A
    no-op, reading no clock, when not tracing. *)

val message_sent :
  log -> ?t:float -> dst:int -> tag:int -> bytes:int -> unit -> unit
(** Count one outgoing message on this rank; raises the in-flight byte
    level (and the high-water mark). Under [Timeline], also
    records the sender half of the dependency edge: [t] is the stamp at
    which the message left this rank (defaults to the log's clock now)
    and should equal the end of the corresponding Send span. *)

val message_received :
  log ->
  ?t:float ->
  ?posted:float ->
  ?queued:float ->
  src:int ->
  tag:int ->
  bytes:int ->
  unit ->
  unit
(** Lower the in-flight byte level. Under [Timeline], also
    records the receiver half of the dependency edge: [t] is when the
    message became available (wait end, defaults to now), [posted] when
    the receiver entered its wait (defaults to [t]) and [queued]
    (default 0) how much of the flight was NIC/uplink queueing. *)

val nic_queue : log -> float -> unit
(** Charge NIC/uplink queueing seconds to this rank. A counter like
    messages/bytes — maintained under every {!keep}, summed by
    {!queue_seconds}. Non-positive charges are ignored. *)

val finish : log -> unit
(** Stamp the rank's completion time ([now]) for {!rank_finish}. *)

val spans : t -> Span.t list
(** All recorded spans, merged chronologically ([[]] unless
    [Timeline]). *)

val edges : t -> edge list
(** Matched send→recv dependency edges, ordered by [e_ready] ([[]]
    unless [Timeline]; a receive whose send was not recorded is
    dropped). *)

val kind_seconds : t -> float array array
(** [nprocs × 5] summed span seconds, indexed by rank then by the order
    of {!Span.all_kinds}; all zero under [Counters]. Under [Totals] it
    replaces folding {!spans}. *)

val longest_waits : t -> Span.t list
(** The 8 longest Wait spans observed, longest first —
    drawn from a bounded per-rank reservoir, so kept under [Totals] as
    well as [Timeline] at O(nprocs) cost. *)

val messages : t -> int
val bytes : t -> int
val max_inflight_bytes : t -> int
val rank_messages : t -> int array
val rank_bytes : t -> int array

val queue_seconds : t -> float
(** Total NIC/uplink queueing charged via {!nic_queue} (0 under the α-β
    model). *)

val rank_queue_seconds : t -> float array

val rank_finish : t -> float array
(** Per-rank completion stamps (0 for ranks that never called
    {!finish}). *)
