(** Candidate enumeration for the tuner: the cross product of

    - {e shape} — every legal mix of axis rows and tiling-cone rays
      ({!Tiles_core.Shape.families}), i.e. rectangular and
      dependence-skewed parallelepiped [H] families;
    - {e mapping dimension} [m] — which tile coordinate forms the
      processor chains;
    - {e processor grid} — ordered factorisations of the processor budget
      across the non-mapping dimensions, with the per-dimension tile
      factors locally adjusted until the measured process count hits the
      budget (the tile-space trip counts of oblique rows are not simple
      quotients, so the adjustment measures real {!Tiles_core.Mapping}
      process counts, like the experiment harness does);
    - {e tile size} — a sweep of the mapping-dimension factor.

    Everything here is a {e candidate}: construction of the actual
    {!Tiles_core.Tiling} / {!Tiles_core.Plan} may still fail (stride
    divisibility, tiles smaller than a dependence) and the search skips
    those. Shape legality against the dependence cone is checked here. *)

type t = {
  shape : string;  (** family name from {!Tiles_core.Shape.families} *)
  rows : Tiles_util.Vec.t list;  (** integer hyperplane rows *)
  factors : int array;  (** per-dimension divisor: row [k] of [H] is [rows_k / factors_k] *)
  m : int;  (** mapping dimension *)
}

val tiling : t -> Tiles_core.Tiling.t
(** Build the [H] matrix [rows_k / factors_k]. Raises like
    {!Tiles_core.Tiling.make}. *)

val label : t -> string
(** Short human-readable id, e.g. ["cone m=2 f=[50,7,6]"]. *)

val generate :
  nest:Tiles_loop.Nest.t ->
  procs:int ->
  factors:int list ->
  ?mapping_dims:int list ->
  unit ->
  t list
(** Enumerate candidates for [nest] under a processor budget of [procs],
    sweeping the mapping-dimension factor over [factors].
    [mapping_dims] restricts the searched mapping dimensions (default:
    all). Every returned candidate's measured process count is [<= procs];
    grids that cannot reach the budget keep their closest-from-below
    adjustment. Duplicates are removed. *)

val measured :
  nest:Tiles_loop.Nest.t ->
  procs:int ->
  factors:int list ->
  ?mapping_dims:int list ->
  unit ->
  t list
(** Every factor vector whose process count {!generate} measures with the
    same arguments, in the order tried (shape names are empty): the
    tiling, tile space and mapping work of a search, exposed so tests
    can hold each of those tile spaces to a reference. *)
