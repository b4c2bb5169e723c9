(** An end-to-end parallelisation plan: everything §3 derives at compile
    time, bundled. This is the object the code generator prints and the
    runtime executes. *)

type t = private {
  nest : Tiles_loop.Nest.t;
  tiling : Tiling.t;
  tspace : Tile_space.t;
  mapping : Mapping.t;
  comm : Comm.t;
  counts : Count_table.t option Atomic.t;  (** read through {!counts} *)
  rows : Row_table.t option Atomic.t;  (** read through {!rows} *)
}

val make : ?m:int -> Tiles_loop.Nest.t -> Tiling.t -> t
(** Raises [Invalid_argument] if dimensions mismatch, or if the tiling
    is illegal for the nest's dependencies or too small for their reach
    ({!Comm.reach}); both are checked before the tile space is built, so
    such a tiling is rejected at once. [?m] overrides the mapping
    dimension. *)

val nprocs : t -> int

val lds_shape : t -> rank:int -> Lds.shape
(** Shape of the rank's local array (chain length dependent). *)

val loc : t -> Tiles_util.Vec.t -> Tiles_util.Vec.t * Tiles_util.Vec.t
(** Table 1: [loc j = (pid, j'')] — which processor owns iteration [j]
    and where in its LDS the result lives. Chain-relative tile index uses
    the processor's own chain start. *)

val loc_inv : t -> pid:Tiles_util.Vec.t -> Tiles_util.Vec.t -> Tiles_util.Vec.t
(** Table 2: [loc_inv ~pid j'' = j ∈ J^n]. *)

val counts : t -> Count_table.t
(** The plan's count table, built on first use and published through an
    [Atomic], so domains sharing a cached plan read one table (two that
    race on a fresh plan may both build it; one copy wins). *)

val rows : t -> reads:Tiles_util.Vec.t array -> Row_table.t
(** The plan's row table for a kernel with these reads, built on first
    use and published like {!counts}: Full runs of the fast walkers read
    it, and nothing else builds it. A table built for other reads is
    replaced. *)

val total_iterations : t -> int
(** Iterations of [J^n] (exact), from the count table. *)

val comm_stats : t -> int * int
(** [(messages, cells)] the §3.2 protocol will exchange: one message per
    (tile, processor-direction) pair with a valid successor, each
    carrying its boundary-clipped slab. Read from the count table; the tests
    check it equals what the executor actually sends, and it realises the
    paper's claim that variants with identical non-mapping tiling rows
    move identical data volumes. *)

val summary : t -> string
(** Human-readable multi-line description (tile size, strides, CC, D^S,
    processor count, chain lengths…). *)
