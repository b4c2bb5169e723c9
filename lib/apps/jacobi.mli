(** The Jacobi 5-point relaxation (§4.2).

    {v
    FOR t=1..T: FOR i=1..I: FOR j=1..J:
      A[t,i,j] := (A[t-1,i,j] + A[t-1,i-1,j] + A[t-1,i+1,j]
                   + A[t-1,i,j-1] + A[t-1,i,j+1]) / 5
    v}

    Skewed with the paper's [T = [[1,0,0],[1,1,0],[1,0,1]]]; tiles are
    mapped along the {e first} dimension ([m = 0]); the non-rectangular
    variant changes only the first row of [H] to [(1/x, -1/(2x), 0)], so
    rows 2–3 (hence tile size, communication volume and processor count)
    match the rectangular variant. This tiling exercises the general
    non-unimodular machinery: [v_1 = 2x] and the TTIS strides are
    [(1,2,1)] with incremental offset [a_21 = 1]. *)

type t = {
  t_steps : int;  (** T *)
  size : int;     (** I = J *)
}

val make : t_steps:int -> size:int -> t

val skew_matrix : Tiles_linalg.Intmat.t
val nest : t -> Tiles_loop.Nest.t
val kernel : t -> Tiles_runtime.Kernel.t
val mapping_dim : int
(** [0]. *)

val rect : x:int -> y:int -> z:int -> Tiles_core.Tiling.t
val nonrect : x:int -> y:int -> z:int -> Tiles_core.Tiling.t
val variants : (string * (x:int -> y:int -> z:int -> Tiles_core.Tiling.t)) list
val ckernel : Tiles_codegen.Ckernel.t
val skewed_reads : Tiles_util.Vec.t list

val pspace : unit -> Tiles_poly.Pspace.t
(** Symbolic-extent skewed space (parameters T and N). *)
