(** ADI integration (§4.3, Table 3). Two coupled arrays [X] and [B]
    (kernel width 2) with a static coefficient array [A(i,j)]:

    {v
    X[t,i,j] := X[t-1,i,j] + X[t-1,i,j-1]·A[i,j]/B[t-1,i,j-1]
                           - X[t-1,i-1,j]·A[i,j]/B[t-1,i-1,j]
    B[t,i,j] := B[t-1,i,j] - A[i,j]²/B[t-1,i,j-1] - A[i,j]²/B[t-1,i-1,j]
    v}

    No skewing is needed (all dependence components non-negative). Tiles
    map along the first dimension; the paper compares the rectangular
    tiling with three non-rectangular ones, of which [nr3] (both extra
    entries, parallel to the tiling cone) is schedule-optimal:
    speedups order [nr3 > nr1 ≈ nr2 > rect]. *)

type t = {
  t_steps : int;  (** T *)
  size : int;     (** N *)
}

val make : t_steps:int -> size:int -> t

val nest : t -> Tiles_loop.Nest.t
val kernel : t -> Tiles_runtime.Kernel.t
val mapping_dim : int
(** [0]. *)

val rect : x:int -> y:int -> z:int -> Tiles_core.Tiling.t

val nr3 : x:int -> y:int -> z:int -> Tiles_core.Tiling.t
(** Row 1 = [(1/x, -1/x, -1/x)] — parallel to the tiling cone. *)

val variants : (string * (x:int -> y:int -> z:int -> Tiles_core.Tiling.t)) list
(** rect, nr1, nr2, nr3 in that order. *)

val ckernel : Tiles_codegen.Ckernel.t
val creads : Tiles_util.Vec.t list
(** ADI needs no skewing, so these are the plain read offsets. *)

val pspace : unit -> Tiles_poly.Pspace.t
(** Symbolic-extent space (parameters T and N) for the parametric code
    generator. *)
