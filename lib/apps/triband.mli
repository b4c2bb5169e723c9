(** A dynamic-programming band over a {e triangular} iteration space —
    not one of the paper's benchmarks, but a direct test of its §2.1
    generality claim ("general and parameterized convex spaces"): the
    space is [{(i, j) | 0 <= i < n, 0 <= j <= i}] and the body is a
    three-point recurrence

    {v W[i,j] = a·W[i-1,j] + b·W[i-1,j-1] + c·W[i,j-1] + g(i,j) v}

    with dependencies (1,0), (1,1), (0,1) — legal for rectangular and
    oblique tilings without skewing. Every stage of the pipeline (tile
    space via Fourier–Motzkin on the triangle, boundary-clipped slabs,
    LDS, codegen) must cope with tiles cut by the diagonal. *)

type t = { size : int }

val make : size:int -> t
val nest : t -> Tiles_loop.Nest.t
val kernel : t -> Tiles_runtime.Kernel.t

val oblique : x:int -> y:int -> Tiles_core.Tiling.t
(** Rows [(1/x, 0); (1/y, 1/y)] — the second hyperplane family tilted
    along the anti-diagonal (the tiling cone here is the whole first
    quadrant, so any non-negative rows are legal). *)

val variants : (string * (x:int -> y:int -> Tiles_core.Tiling.t)) list
val ckernel : Tiles_codegen.Ckernel.t
