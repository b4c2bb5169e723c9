(** Affine array accesses and uniform-dependence extraction — the front
    half of §2.1: the input statements are
    [A[f_w(j)] := F(A[f_w(j − d_1)], …)], i.e. every read is the write
    reference composed with a constant shift. Given the write and read
    subscript functions as general affine maps, this module checks that
    shape and recovers the dependence vectors.

    An access is [f(j) = m·j + offset]. A read [r] induces the flow
    dependence [d] with [f_w(j − d) = f_r(j)] for all [j]; this has a
    constant solution iff the linear parts coincide, and then
    [d = m_w⁻¹·(offset_w − offset_r)] (which must be integral). *)

type t = {
  m : Tiles_linalg.Intmat.t;  (** linear part, [dim(array) × dim(space)] *)
  offset : Tiles_util.Vec.t;
}

val make : m:Tiles_linalg.Intmat.t -> offset:Tiles_util.Vec.t -> t
val identity : int -> t
val shifted : int -> Tiles_util.Vec.t -> t
(** [shifted n d] is [f(j) = j − d] — the classic uniform read. *)

val dependence_of_read : write:t -> read:t -> Tiles_util.Vec.t
(** Raises [Failure] if the read is not uniform with respect to the write
    (different linear parts, or a non-integral / zero shift). *)

val dependencies : write:t -> reads:t list -> Dependence.t

val statement_nest :
  name:string ->
  space:Tiles_poly.Polyhedron.t ->
  write:t ->
  reads:t list ->
  Nest.t
(** Build the nest of a single-statement loop from its accesses. *)
