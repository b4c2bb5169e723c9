(** Sequential tiled code generation (§2.3, after ref [7]).

    Emits a standalone C program that executes the kernel over the tiled
    iteration space as a [2n]-deep loop nest: [n] outer loops over tile
    coordinates with Fourier–Motzkin bounds, and [n] inner loops over the
    TTIS with strides [c_k] and lattice start offsets. Boundary tiles are
    handled by an [in_space] guard (the paper's "corrected bounds").

    The space's symbolic size parameters (§2.1) become the program's
    arguments; extents and tile-loop bounds are computed at runtime from
    Fourier–Motzkin systems with the parameters as leading variables, so
    one binary serves every size. A fixed-size space is the
    zero-parameter case ({!Tiles_poly.Pspace.of_polyhedron}).

    It prints [points <count>] and [checksum <sum>]: [Grid.checksum]'s
    compensated sum in its order, printed exactly ([%a]). *)

val generate :
  pspace:Tiles_poly.Pspace.t ->
  tiling:Tiles_core.Tiling.t ->
  kernel:Ckernel.t ->
  reads:Tiles_util.Vec.t list ->
  ?skew:Tiles_linalg.Intmat.t ->
  unit ->
  string
(** [pspace] is the (already skewed, if applicable) parametric iteration
    space; [reads] are in its coordinates; [skew] only affects how the
    kernel body's original-coordinate macros are computed. Raises
    [Invalid_argument] on dimension mismatches and [Failure] if a bound
    is unbounded. *)
