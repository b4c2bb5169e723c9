(** Per-plan row table for Full runs: the pack, unpack and compute loop
    bounds the paper's compiler fixes at compile time (§3.2), walked
    once per plan instead of on every run.

    For each rank's tile at chain position [trel] (a {!Count_table}
    entry) the table holds:
    - its compute rows, in the lexicographic order of
      {!Tile_space.iter_slab_rows} from [lo = 0]: the LDS cell of the
      row's first point with the chain shift [trel·tshift] split off,
      the grid cell of that point, the row's length and its tap-delta
      residue class;
    - the slab it sends in each direction and each slab it receives, as
      (LDS cell, length) segments in pack order, consecutive rows that
      continue one another in the LDS merged into one segment. A
      receive's cells are already shifted by [-d^S] tiles, into the
      receiver's array.

    Per rank it also holds the boundary cells: every LDS cell that a tap
    of some compute row reads outside the space, each once, as (LDS
    cell, length, global start point) segments sorted by cell, with
    the chain shift included. Like the halo a receive fills, this set is
    fixed by the plan; an LDS cell stands for one global point for the
    whole rank run, so a rank fills all of its boundary cells once, before
    its first tile. The walk that finds each row's taps outside the
    space collects them, and every cell's point was checked to lie
    outside the space when the table was built. Their values under a
    kernel ({!values}) are computed once and kept beside the table, as
    is the kernel's table of static lets over the grid box ({!coefs}).

    Cells are relative to each rank's own {!Lds.shape}. Grid cells index
    the row-major box of the space's bounding box, the layout of a grid
    made without widening reads; both ends of every row were checked to
    lie inside that box when the table was built.

    Rows and segments sit in flat [int32] Bigarrays off the OCaml heap,
    filled in one walk and trimmed to size. The table depends on
    the plan and the kernel's reads only; {!Plan.rows} builds it once
    and publishes it, so every rank, run and domain reads one copy. *)

type i32 = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

val compiled_member : Tiles_poly.Polyhedron.t -> int array -> bool
(** Closure-free membership test compiled from the space's constraints
    (no per-call allocation). *)

(** What the walkers derive from the plan and the kernel's reads alone
    (no Fourier–Motzkin projection, so the [Reference] walker builds its
    own per rank). *)
type geometry = private {
  reads : Tiles_util.Vec.t array;  (** the kernel's read offsets *)
  reads' : Tiles_util.Vec.t array;  (** [H'·reads] *)
  jstep : int array;  (** global delta per innermost lattice step *)
  den : int;  (** [P' = Q/den] *)
  amat : int array array;  (** space constraint [i] is [amat.(i)·j + b_i >= 0] *)
  bden : int array;  (** [den·b_i] *)
  tapshift : int array array;
      (** [tapshift.(r).(i) = den·(a_i·d_r)]: constraint [i] holds at tap
          [r] of [j] iff [den·(a_i·j + b_i) >= tapshift.(r).(i)] *)
  maxshift : int array;  (** the largest [tapshift] per constraint *)
  cslope : int array;
      (** change of [den·(a_i·j + b_i)] per innermost lattice step *)
  member : int array -> bool;  (** {!compiled_member} of the space *)
}

val geometry :
  Tile_space.counter ->
  Tiles_poly.Polyhedron.t ->
  reads:Tiles_util.Vec.t array ->
  geometry

type t = private {
  geo : geometry;
  glo : int array;  (** grid box: lower corner *)
  gdims : int array;  (** grid box: extents *)
  gstr : int array;  (** grid box: row-major cell strides *)
  counts : Count_table.t;
  ndirs : int;
  cfirst : int array;
      (** entry [e]'s compute rows are [cfirst.(e) .. cfirst.(e+1) - 1] *)
  rows : i32;
      (** 4 per row: LDS cell at [trel = 0], grid cell, length, class *)
  taps : int array array;
      (** per rank: the LDS cell delta of read [r] on a row of class
          [cl] at [cl·ntaps + r], for the classes of the rank's rows *)
  sfirst : int array;
      (** entry [e]'s send in direction [d] is segments
          [sfirst.(i) .. sfirst.(i+1) - 1] of [ssegs], [i = e·ndirs + d];
          empty when no message is sent *)
  rbase : int array;
      (** entry [e]'s [k]th receive, in {!Count_table.recvs} order, is
          receive [rbase.(e) + k] *)
  ufirst : int array;
      (** receive [i]'s segments are [ufirst.(i) .. ufirst.(i+1) - 1]
          of [usegs] *)
  ssegs : i32;  (** sends, 2 per segment: LDS cell at [trel = 0], length *)
  usegs : i32;  (** receives, likewise *)
  bfirst : int array;
      (** rank [r]'s boundary cells are segments
          [bfirst.(r) .. bfirst.(r+1) - 1] of [bsegs] *)
  bcells : int array;
      (** rank [r]'s boundary values start at cell [bcells.(r)] of
          {!values}; the last entry is the total *)
  bsegs : i32;
      (** boundary cells, [n + 2] per segment: LDS cell (chain shift
          included), length, global start point; cell [s] of a segment
          is the point [start + s·jstep] *)
  values : (string * Tiles_util.Fbuf.t) option Atomic.t;
      (** the last keyed {!values}, read through {!values} *)
  coefs : (string * Tiles_util.Fbuf.t) option Atomic.t;
      (** the last keyed {!coefs}, read through {!coefs} *)
}

val make :
  counts:Count_table.t ->
  tspace:Tile_space.t ->
  mapping:Mapping.t ->
  comm:Comm.t ->
  reads:Tiles_util.Vec.t array ->
  t
(** Raises [Invalid_argument] if a row leaves the grid box or a
    boundary cell's point lies inside the space, and [Failure] if a cell
    index exceeds 32 bits. *)

val reads : t -> Tiles_util.Vec.t array
(** The reads the table was built for. *)

val decode_global : t -> int -> int array -> unit
(** [decode_global t gcell j] sets [j] to the global point at grid cell
    [gcell]. *)

val iter_compute :
  t ->
  rank:int ->
  trel:int ->
  (cell:int -> gcell:int -> len:int -> cls:int -> unit) ->
  unit
(** The compute rows of the rank's tile at chain position [trel]. *)

val iter_send :
  t -> rank:int -> trel:int -> dir:int -> (cell:int -> len:int -> unit) -> unit
(** The segments of the slab that tile sends in direction [dir]. *)

val iter_recv :
  t -> rank:int -> trel:int -> nth:int -> (cell:int -> len:int -> unit) -> unit
(** The segments of the tile's [nth] receive, in {!Count_table.recvs}
    order. *)

val boundary_cells : t -> int
(** The boundary cells of all ranks. *)

val iter_boundary :
  t -> rank:int -> (cell:int -> len:int -> j:int array -> unit) -> unit
(** The rank's boundary segments in cell order; [j], the global point of
    the segment's first cell, is valid during the call only. *)

val values :
  t ->
  key:string option ->
  width:int ->
  (int array -> int -> float) ->
  Tiles_util.Fbuf.t
(** [values t ~key ~width boundary] — [boundary j f] at every boundary
    cell's point [j], field [f]: all ranks' cells in {!iter_boundary}
    order, [width] slots per cell, rank [r]'s from slot
    [width·bcells.(r)]. With [Some key] (the kernel's content key, width
    included) the values are computed once and kept in a one-entry slot
    on the table, which another key replaces; with [None] they are
    computed on every call. [boundary] must not keep [j]. *)

val coefs :
  t -> key:string option -> (unit -> Tiles_util.Fbuf.t) -> Tiles_util.Fbuf.t
(** [coefs t ~key eval] — a kernel's static-let table over the table's
    grid box ([glo], [gdims]), kept like {!values}: with [Some key] (the
    kernel's content key) [eval] runs once and its result stays in a
    one-entry slot that another key replaces; with [None] it runs on
    every call. *)
