(** The semantics of one loop body: what the compiler's input program
    actually computes. [reads] lists the uniform dependence offsets in the
    order the [compute] function indexes them (unlike
    [Tiles_loop.Dependence], which canonicalises order). A kernel may
    carry several scalar fields per iteration point ([width] — ADI updates
    both [X] and [B]). *)

type coefs = private {
  data : Tiles_util.Fbuf.t;
  off : int array;
  str : int array array;
}
(** The kernel's static lets ({!Tiles_kir.Kir.statics}) tabulated over a
    box of original coordinates: static let [v] at original point [j] is
    [data.{coef_start c v j}]. Built by {!coefs}. *)

val no_coefs : coefs
(** The empty table, of a kernel without static lets. *)

val coef_start : coefs -> int -> int array -> int
(** [coef_start c v j] — the slot of static let [v] at original point
    [j]: [off.(v) + Σ_k str.(v).(k)·j.(k)]. *)

val coef_step : coefs -> int -> int array -> int
(** [coef_step c v jstep] — how far static let [v]'s slot moves per
    step [jstep]: [Σ_k str.(v).(k)·jstep.(k)]. *)

type row_body =
  la:Tiles_util.Fbuf.t ->
  dst:int ->
  taps:int array ->
  len:int ->
  j:int array ->
  jstep:int array ->
  coefs:coefs ->
  unit
(** The kernel over one row of points, the walkers' unit of execution.
    [row ~la ~dst ~taps ~len ~j ~jstep ~coefs] computes the points
    [j + s·jstep], [s = 0 .. len-1], at cells [dst + s]: field [f] of
    cell [c] is slot [c·width + f] of [la], and read [r] of cell [c]
    sees cell [c + taps.(r)] (a negative cell delta). The static lets
    come from [coefs] (built over a box covering every point), the other
    uses of [J] step from [j]. The float operations must match
    [compute]'s exactly (same order, same constants) so results are
    bit-identical to the reference walker. All reads are guaranteed
    in-bounds when a row body runs, and a tap outside the iteration space
    already holds its [boundary] value, so the body does no boundary
    lookups. The body must not keep [j] or [jstep]. *)

type t = {
  name : string;
  dim : int;
  width : int;
  uses_j : bool;
      (** whether [compute] reads its [j] argument. Stencils whose body is
          coordinate-free (SOR, Jacobi) set this false, letting [skewed]
          and the walkers skip maintaining/unskewing global coordinates on
          the hot path. *)
  reads : Tiles_util.Vec.t list;
      (** read offsets: read [i] sees the value at [j − reads.(i)] *)
  boundary : Tiles_util.Vec.t -> int -> float;
      (** [boundary j field] — value of points outside the iteration space
          (initial data and spatial boundary conditions) *)
  compute : read:(int -> int -> float) -> j:Tiles_util.Vec.t -> out:float array -> unit;
      (** [compute ~read ~j ~out] evaluates the body at iteration [j];
          [read i f] is field [f] at [j − reads.(i)]; results go into
          [out.(0 .. width-1)]. The reference walkers call it per point;
          the fast ones only through a row {!make} derives from it. *)
  row : row_body;
      (** the row body, the only way the fast walkers compute: {!of_ir}'s
          generated one, or the one {!make} derives from [compute] when
          it is given no [~row]. *)
  statics : (int list * (int array -> float)) array;
      (** per static let: the original coordinates it mentions and its
          value at an original point, the expression [compute] evaluates
          per point; empty for a {!make} kernel *)
  ckernel : Tiles_codegen.Ckernel.t option;
      (** the body as IR, which the code generators print as C. Required
          for the [native] walker variant: the row emitter splices the C
          body into the per-plan compiled kernel. Set by {!of_ir}, so its
          float operations are [compute]'s and results bit-identical. *)
  skew : Tiles_linalg.Intmat.t;
      (** cumulative skew applied via {!skewed} (identity when unskewed);
          the native emitter inverts it to recover original coordinates
          for [J(k)] and boundary lookups. *)
}

val deps : t -> Tiles_loop.Dependence.t
(** The canonical dependence set of the kernel. *)

val content_key : t -> string option
(** The kernel's identity: its IR ([ckernel], boundary expressions
    included), [skew], [width] and [reads], serialised; [None] for a
    kernel without IR. Two kernels with one key compute the same values
    and the same boundary everywhere, by {!of_ir}'s contract that a
    kernel's closures compute what its IR says. *)

val make :
  name:string ->
  dim:int ->
  ?width:int ->
  ?uses_j:bool ->
  ?row:row_body ->
  reads:Tiles_util.Vec.t list ->
  boundary:(Tiles_util.Vec.t -> int -> float) ->
  compute:(read:(int -> int -> float) -> j:Tiles_util.Vec.t -> out:float array -> unit) ->
  unit ->
  t
(** A kernel without a C body; {!of_ir} builds one with it. Without
    [~row] the row body is derived from [compute]: point [j + s·jstep]
    reads cell [dst + s + taps.(r)] and writes slots
    [(dst + s)·width + f], its scratch allocated per row (ranks on
    separate domains share the kernel). *)

val unset_read :
  la:Tiles_util.Fbuf.t ->
  width:int ->
  dst:int ->
  taps:int array ->
  len:int ->
  (int * int) option
(** Check mode's scan of a row before its body runs: the first step [s]
    and read [r] (by step, then read) whose cell [dst + s + taps.(r)]
    lies below [dst] and holds a NaN in some field. Tap deltas are
    negative, so the row's other reads see cells it computes first, and
    every writer (unpack, boundary fill, compute) fills all [width]
    fields of a cell: a row passes exactly when none of its points reads
    an uninitialised cell. *)

val of_ir :
  Tiles_kir.Kir.t ->
  compute:(read:(int -> int -> float) -> j:Tiles_util.Vec.t -> out:float array -> unit) ->
  row:row_body ->
  statics:(int array -> float) array ->
  boundary:(Tiles_util.Vec.t -> int -> float) ->
  unit ->
  t
(** The kernel of an IR body, given its generated OCaml renditions
    ({!Tiles_kir.Kir.ml_defs}); name, dim, width, [uses_j], [reads] and
    the static lets' coordinates are derived and the IR is the
    [ckernel]. *)

val coefs :
  ?memo:((unit -> Tiles_util.Fbuf.t) -> Tiles_util.Fbuf.t) ->
  t ->
  lo:int array ->
  dims:int array ->
  coefs
(** [coefs k ~lo ~dims] — the static lets over the box [lo, lo + dims)
    of [k]'s (possibly skewed) space: the box is mapped back to original
    coordinates by the skew's inverse, interval-wise, and each static
    let is tabulated over its coordinates' extents there. [memo] is
    handed the evaluation and returns the data (default: evaluate), so a
    caller can keep one table per box and kernel. A kernel without
    static lets gets an empty table and evaluates nothing. *)

val skewed : t -> Tiles_linalg.Intmat.t -> t
(** [skewed k t] — the same computation over the skewed space [T·J^n]:
    read offsets become [T·d], and boundary lookups un-skew their argument
    before consulting the original boundary function. [uses_j], [row],
    [statics] and [ckernel] are preserved ([skew] accumulates [t]); when
    [uses_j] holds, [compute] un-skews [j] per point and [row] un-skews
    its [j] and [jstep] once per row, so both see original
    coordinates. *)
