(** Per-plan point counts and message schedule, fixed once: what the
    paper's compiler bakes into the generated loop bounds, message sizes
    and receive sequence (§3.2).

    Each rank's tile at chain position [trel] has an entry: its number
    of iterations; per processor direction [d^m] of {!Comm.t.dm} (in
    that order), the cells of the clipped slab it sends, or no message
    when no valid successor exists there; and its receives. Interior
    tiles share one [Ttis.count_from] per slab lower bound; boundary
    tiles are counted by {!Tile_space.count_slab}. Each send also
    makes the receive of its minsucc tile, the valid successor
    [(pid + d^m, t^S + d^S_m)] with the least [t^S] over [d^S(d^m)], in
    the same pass. Protocol runs and the generated MPI program both
    read this one schedule.

    A table is immutable once built, so any number of domains may read
    it. {!Plan.counts} builds it on first use and publishes it. *)

type t

type recv = {
  src : int;  (** sending rank *)
  tag : int;  (** the sender tile's [t^S], the message tag *)
  dir : int;  (** index of its direction in {!Comm.t.dm} *)
  ds : int;  (** index of the pairing [d^S] in that direction's list *)
  cells : int;  (** slab cells the message carries *)
}
(** One receive of a tile: from the predecessor tile
    [(pid − d^m, tag)], which is the receiver's tile minus [d^S]. *)

val make : Tile_space.t -> Mapping.t -> Comm.t -> t

val counter : t -> Tile_space.counter
(** The tile space's counter the table was built with; the fast walker
    enumerates rows with its chain, so every rank of a plan shares one
    projection. *)

val entry : t -> rank:int -> trel:int -> int
(** The index of the rank's tile at chain position [trel] among all
    entries: a rank's entries are consecutive, in chain order, and the
    ranks follow one another in rank order. *)

val entries : t -> int
(** Number of entries: the tiles of the plan. *)

val points : t -> rank:int -> trel:int -> int
(** Iterations of the rank's tile at chain position [trel]. *)

val slab : t -> rank:int -> trel:int -> dir:int -> int
(** Cells of the slab that tile sends in direction [dir] (an index into
    {!Comm.t.dm}), or [-1] when no valid successor exists there and no
    message is sent. *)

val dst : t -> rank:int -> dir:int -> int
(** The rank that [rank]'s messages in direction [dir] go to (the owner
    of [pid + d^m]), or [-1] when no rank owns that pid. *)

val slab_lo : t -> dir:int -> int array
(** {!Comm.slab_lo} of direction [dir]: where its slabs start. *)

val ds : t -> dir:int -> ds:int -> Tiles_util.Vec.t
(** Entry [ds] of direction [dir]'s [d^S(d^m)], in receive order: the
    tile dependence a {!recv} with those indices unpacks along. *)

val recvs : t -> rank:int -> trel:int -> recv list
(** The receives of the rank's tile at chain position [trel], in channel
    order: by direction, then by [d^S] in {!Comm.t.dm}'s receive order.
    Every send of the table has exactly one receive, with the same
    cells. *)

val total : t -> int
(** Iterations of the whole plan: the sum of {!points}, which is
    [Polyhedron.count_points] of the nest's space since tiles partition
    it. *)

val messages : t -> int
(** Entries with a message: the protocol's message count. *)

val cells : t -> int
(** Sum of the cells of every message. *)
