(** The semantics of one loop body: what the compiler's input program
    actually computes. [reads] lists the uniform dependence offsets in the
    order the [compute] function indexes them (unlike
    [Tiles_loop.Dependence], which canonicalises order). A kernel may
    carry several scalar fields per iteration point ([width] — ADI updates
    both [X] and [B]). *)

type row_body =
  la:Tiles_util.Fbuf.t -> dst:int -> taps:int array -> len:int -> unit
(** An optional strength-reduced body for width-1 kernels, used by the
    walker's innermost-contiguous fast path. [row ~la ~dst ~taps ~len]
    must write [la.{dst + i} <- f (la.{dst + i + taps.(0)}, ...)] for
    [i = 0 .. len-1], where [taps.(r)] is the (negative) slot delta of
    read [r] relative to the destination cell. The float operations must
    match [compute]'s exactly (same order, same constants) so results are
    bit-identical to the reference walker. All reads are guaranteed
    in-bounds when a row body runs, and a tap outside the iteration space
    already holds its [boundary] value, so the body does no boundary
    lookups. *)

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
          [out.(0 .. width-1)]. *)
  row : row_body option;
      (** optional unrolled row body; requires [width = 1]. *)
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
(** A kernel without a C body; {!of_ir} builds one with it. *)

val of_ir :
  Tiles_kir.Kir.t ->
  compute:(read:(int -> int -> float) -> j:Tiles_util.Vec.t -> out:float array -> unit) ->
  ?row:row_body ->
  boundary:(Tiles_util.Vec.t -> int -> float) ->
  unit ->
  t
(** The kernel of an IR body, given its generated OCaml renditions
    ({!Tiles_kir.Kir.ml_defs}); name, dim, width, [uses_j] and [reads]
    are derived and the IR is the [ckernel]. *)

val skewed : t -> Tiles_linalg.Intmat.t -> t
(** [skewed k t] — the same computation over the skewed space [T·J^n]:
    read offsets become [T·d], and boundary lookups un-skew their argument
    before consulting the original boundary function. [uses_j], [row] and
    [ckernel] are preserved ([skew] accumulates [t]); when [uses_j] is
    false the compute wrapper that un-skews [j] per point is skipped
    entirely. *)
