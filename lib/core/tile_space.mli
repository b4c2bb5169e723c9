(** The Tile Space [J^S = {⌊H·j⌋ | j ∈ J^n}] and its loop bounds.

    Following ref [7], the exact characterisation
    [v_kk·j^S_k <= h'_k·j <= v_kk·j^S_k + v_kk − 1] is joined with the
    constraints of [J^n] and the [j] variables are eliminated by
    Fourier–Motzkin, leaving a polyhedron over [j^S] whose integer points
    are the candidate tiles. The projection is a rational relaxation, so
    a few boundary candidates may contain no iteration; they stay in the
    protocol (both communication end-points agree on the same candidate
    set) and simply execute zero iterations.

    The scales [v] enter that system only through [z_k = v_kk·j^S_k] and
    the constant [u_k = v_kk − 1]. So [j] is eliminated over [(u, z, j)]
    once per (space, [H']) — a {!family} — and each tiling of the family
    {!instantiate}s it by substitution. The result is the elimination
    over [(j^S, j)] for that one tiling, constraint for constraint, with
    one proviso: that elimination floors a combination's constant modulo
    the gcd of its coefficients, and where the [j] terms share a factor
    [g > 1] that gcd can involve [v]. So a family holds eliminations,
    each built for one tiling's scales and recording every such
    combination with the floor it took; a tiling whose floors all agree
    reuses it, any other gets its own. A tuner that tries hundreds of
    factor vectors per shape pays a few eliminations per shape.

    No bounding box is stored: {!Mapping} computes one only when it has
    to choose the mapping dimension. *)

type t = private {
  tiling : Tiling.t;
  space : Tiles_poly.Polyhedron.t;  (** [J^n] *)
  poly : Tiles_poly.Polyhedron.t;   (** candidate tiles over [j^S] *)
}

type family
(** The band joined with [J^n] over [(u, z, j)], [j] eliminated: the
    tile spaces of every tiling of one [H'] over one space. Holds at most
    8 eliminations, most recently built first; the first is built by the
    first {!instantiate}. *)

val family : Tiles_poly.Polyhedron.t -> Tiles_linalg.Intmat.t -> family
(** [family space h'] — memoised for the whole process (most recently
    used first, bounded, shared by every domain) and keyed by the
    space's constraints and [h'], so the tuner, experiments and serve
    share it with no handle to pass around. Raises [Invalid_argument]
    on a dimension mismatch or a rationally empty space, and [Failure]
    on an unbounded one: every tile space of such a space would be
    empty or unbounded. *)

val instantiate : family -> Tiling.t -> t
(** Take the family's first elimination whose floors are the tiling's
    (building one for the tiling if none is), substitute [z_k = v_kk·j^S_k] and
    [u_k = v_kk − 1], normalise, drop tautologies and
    {!Tiles_poly.Fourier_motzkin.prune} the result. Raises
    [Invalid_argument] if the tiling's [H'] is not the family's. *)

val make : Tiles_poly.Polyhedron.t -> Tiling.t -> t
(** [make space tiling = instantiate (family space tiling.h') tiling];
    raises like {!family}. *)

val candidates : t -> Tiles_util.Vec.t list
(** All candidate tiles, lexicographic. *)

val contains : t -> Tiles_util.Vec.t -> bool
(** Candidate-tile membership — the paper's [valid()] predicate. *)

val tile_iterations : t -> Tiles_util.Vec.t -> int
(** Exact number of iterations [j ∈ J^n] inside a given tile (enumerates
    the TTIS and clips against [J^n]). *)

val iter_tile_points :
  t -> tile:Tiles_util.Vec.t -> (local:Tiles_util.Vec.t -> global:Tiles_util.Vec.t -> unit) -> unit
(** Enumerate the iterations of one tile: for each TTIS point [j'] whose
    global image [j] lies in [J^n], call the function with both (reused
    buffers). Lexicographic in [j']. *)

val iter_slab_points :
  t ->
  tile:Tiles_util.Vec.t ->
  lo:int array ->
  (local:Tiles_util.Vec.t -> global:Tiles_util.Vec.t -> unit) ->
  unit
(** Like {!iter_tile_points} but restricted to the slab
    [j'_k >= lo.(k)] — the §3.2 pack/unpack loops. Clipping against
    [J^n] is what makes the boundary-tile "corrected bounds" of the paper:
    only real iterations are communicated, so the rectangular and
    non-rectangular variants move exactly the same data. *)

(** {2 Slab counting}

    The space constraints pull back onto TTIS coordinates: with
    [P' = Q/den] and [j = Q·(V·j^S + j')/den], a constraint
    [a·j + b >= 0] becomes [w·(V·j^S + j') + b·den >= 0] with [w = a·Q].
    Only [V·j^S] depends on the tile, so one Fourier–Motzkin projection
    over the prefix [(V·j^S, j')] against the local box [0 <= j' < v]
    serves every tile; a slab's lower bound [lo] is axis-aligned, so it
    clamps each level's range when the chain is evaluated and the same
    projection serves every slab too. *)

type level
(** One level of that chain, compiled to flat arrays: level [k] bounds
    [j'_k] over the prefix [(V·j^S, j'_0 … j'_(k-1))]. *)

type counter = private {
  tiling : Tiling.t;
  den : int;
  q : int array array;  (** [P' = Q/den], [Q] integral *)
  pull_w : int array array;  (** [w] of each space constraint *)
  pull_bden : int array;  (** [b·den] of each space constraint *)
  boxmin : int array;  (** minimum of [pull_w.(i)·j'] over the local box *)
  chain : level array;
      (** the projection of the above against [0 <= j' < v]; its
          innermost level is the unprojected system, so every
          stride-aligned value of that level's range is a member *)
}
(** The pulled-back constraints of one tile space and their chain: a
    staged {!iter_slab_points} counter, and the fast walker's row
    enumeration plan. Never mutated once built. *)

val counter : t -> counter

val is_interior : counter -> Tiles_util.Vec.t -> bool
(** Every TTIS point of the tile is an iteration (exact integer test over
    the local box): its slab [j' >= lo] then has
    [Ttis.count_from tiling ~lo] points. *)

val iter_slab_rows :
  counter ->
  pre:int array ->
  j':int array ->
  lo:int array ->
  (j':int array -> len:int -> unit) ->
  unit
(** [iter_slab_rows c ~pre ~j' ~lo f] — the slab [j' >= lo] of the tile
    whose [V·j^S] the caller has put in [pre.(0 … n-1)], row by row in
    lexicographic order: [f ~j' ~len] gets each row's first point (in
    the [j'] buffer) and its [len] points, [c_(n-1)] apart. [pre] ([2n]
    entries) and [j'] ([n]) are the caller's scratch; no allocation on
    unit-stride levels. *)

val count_slab : counter -> tile:Tiles_util.Vec.t -> lo:int array -> int
(** Number of points {!iter_slab_points} visits: the sum of
    {!iter_slab_rows}' row lengths. Exact for every candidate tile. *)
