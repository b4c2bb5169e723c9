(** Gauss Successive Over-Relaxation (§4.1).

    {v
    FOR t=1..M: FOR i=1..N: FOR j=1..N:
      A[t,i,j] := w/4·(A[t,i-1,j] + A[t,i,j-1] + A[t-1,i+1,j]
                       + A[t-1,i,j+1]) + (1-w)·A[t-1,i,j]
    v}

    Dependencies contain negative components, so the nest is skewed with
    the paper's [T = [[1,0,0],[1,1,0],[2,0,1]]] before tiling. Tiles are
    mapped along the {e third} dimension ([m = 2]); the first two tiling
    rows are common to the rectangular and non-rectangular variants, so
    tile size, communication volume and processor count coincide and only
    the schedule differs — the experimental design of §4.1. *)

type t = {
  m_steps : int;  (** M *)
  size : int;     (** N *)
}

val make : m_steps:int -> size:int -> t

val skew_matrix : Tiles_linalg.Intmat.t
val nest : t -> Tiles_loop.Nest.t
(** The skewed nest (ready for rectangular tiling). *)

val kernel : t -> Tiles_runtime.Kernel.t
(** Kernel over the skewed space, matching [nest]. *)

val mapping_dim : int
(** [2] — the paper maps SOR tiles along the third dimension. *)

val rect : x:int -> y:int -> z:int -> Tiles_core.Tiling.t
(** [H_r = diag(1/x, 1/y, 1/z)]. *)

val nonrect : x:int -> y:int -> z:int -> Tiles_core.Tiling.t
(** [H_nr]: rows [(1/x,0,0); (0,1/y,0); (-1/z,0,1/z)] — the first three
    tiling-cone directions. *)

val variants : (string * (x:int -> y:int -> z:int -> Tiles_core.Tiling.t)) list
(** [("rect", rect); ("nonrect", nonrect)]. *)

val ckernel : Tiles_codegen.Ckernel.t
(** The loop body as IR ({!Tiles_kernels.Defs.sor}); the kernel, its
    reads and the code generators' C body all derive from it. *)

val skewed_reads : Tiles_util.Vec.t list
(** Read offsets in skewed coordinates, in the kernel's read order. *)

val pspace : unit -> Tiles_poly.Pspace.t
(** The skewed iteration space with symbolic parameters M and N, for the
    parametric code generator; [Pspace.instantiate _ [m; n]] equals
    [(nest (make ~m_steps:m ~size:n)).space]. *)
