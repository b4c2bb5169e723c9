(** The daemon's bounded priority job queue with admission control.

    A producer facing a full queue is not blocked at all: {!submit}
    either enqueues or returns a structured {!reject} naming the reason
    and the capacity, so the protocol layer can answer the client
    immediately (backpressure as a reply, not a hang).

    Ordering: a min-heap on the request's priority — {e lower} value is
    served sooner — with FIFO tie-breaking inherited from
    {!Tiles_util.Heap}, so equal-priority jobs complete in arrival
    order.

    Thread-safety: one mutex around the heap; {!pop} blocks workers on a
    condition until a job arrives or the queue is closed and drained.
    Safe across OCaml 5 domains. *)

type reject = {
  reason : string;  (** ["queue_full"] or ["shutting_down"] *)
  capacity : int;
  depth : int;  (** queued jobs at the instant of rejection *)
}

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] unless [capacity >= 1]. *)

val submit : 'a t -> priority:float -> 'a -> (unit, reject) result
(** Never blocks. [Error] when the queue holds [capacity] jobs
    (["queue_full"]) or {!close} was called (["shutting_down"]); both
    are counted. *)

val pop : 'a t -> 'a option
(** Block until a job is available and remove the minimum-priority one;
    [None] once the queue is closed {e and} drained (the worker's exit
    signal). Remaining jobs are still handed out after {!close}. *)

val try_pop : 'a t -> 'a option
(** Non-blocking {!pop} — [None] when the queue is momentarily empty.
    Deterministic single-threaded draining for tests and step mode. *)

val close : 'a t -> unit
(** Reject further submissions and wake every blocked {!pop}er. *)

type stats = {
  capacity : int;
  depth : int;
  high_water : int;  (** largest depth ever observed *)
  accepted : int;
  rejected_full : int;
  rejected_closed : int;
  closed : bool;
}

val stats : 'a t -> stats

val stats_json : stats -> Tiles_util.Json.t
