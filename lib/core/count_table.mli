(** Per-plan point and message counts, fixed once — the counts the
    paper's compiler bakes into the generated loop bounds and message
    sizes from the TTIS and the CC vector.

    Each rank's tile at chain position [trel] has an entry: its number
    of iterations and, for every processor direction [d^m] of
    {!Comm.t.dm} (in that order), the cells of the clipped slab it sends
    — or no message when no valid successor exists in that direction.
    Interior tiles are not counted one by one: all of them share one
    [Ttis.count_from] per slab lower bound; boundary tiles are counted
    by {!Tile_space.count_slab}.

    A table is immutable once built, so any number of domains may read
    it. {!Plan.counts} builds it on first use and publishes it. *)

type t

val make : Tile_space.t -> Mapping.t -> Comm.t -> t

val counter : t -> Tile_space.counter
(** The tile space's counter the table was built with; the fast walker
    enumerates rows with its chain, so every rank of a plan shares one
    projection. *)

val points : t -> rank:int -> trel:int -> int
(** Iterations of the rank's tile at chain position [trel]. *)

val slab : t -> rank:int -> trel:int -> dir:int -> int
(** Cells of the slab that tile sends in direction [dir] (an index into
    {!Comm.t.dm}), or [-1] when no valid successor exists there and no
    message is sent. *)

val total : t -> int
(** Iterations of the whole plan: the sum of {!points}, which is
    [Polyhedron.count_points] of the nest's space since tiles partition
    it. *)

val messages : t -> int
(** Entries with a message: the protocol's message count. *)

val cells : t -> int
(** Sum of the cells of every message. *)
