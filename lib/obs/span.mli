(** The unified activity-span vocabulary shared by every execution
    backend. A span is one half-open interval [t0, t1) on one rank's
    timeline, tagged with what the rank was doing. The discrete-event
    simulator produces spans in virtual seconds; the shared-memory
    executor produces them in monotonic wall-clock seconds — both feed
    the same exporters ({!Chrome}, {!Stats}) and the same timeline
    renderer, which is what makes simulated and real runs directly
    comparable. *)

type kind =
  | Compute  (** tile-point arithmetic *)
  | Pack     (** gathering a slab into a send buffer *)
  | Send
      (** send overhead / wire occupancy on the sender. On the shm
          backend the hand-off to the receiver is the send for that transport,
          in both schedules. *)
  | Wait
      (** blocked in a receive before the message is available *)
  | Unpack   (** receive overhead + scattering a buffer into the LDS *)

type t = {
  rank : int;
  t0 : float;
  t1 : float;
  kind : kind;
}

val kind_name : kind -> string
(** Lower-case tag used in exported traces ("compute", "pack", …). *)

val all_kinds : kind list
(** In display order: compute, pack, send, wait, unpack. *)

val duration : t -> float

val sort : t list -> t list
(** Sort a trace chronologically: by [t0], then rank, then [t1]. *)

val by_rank : nprocs:int -> t list -> t list array
(** Split a trace into per-rank chronological timelines. Raises
    [Invalid_argument] if a span's rank is outside [0, nprocs). *)
