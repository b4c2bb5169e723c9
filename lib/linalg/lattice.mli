(** Integer lattices spanned by the columns of an integer matrix.

    The TTIS of the paper is exactly [L(H') ∩ box(0, V·1)]; all its
    addressing arithmetic reduces to membership / coordinate queries against
    the lower-triangular HNF basis. *)

type t
(** A full-rank lattice in Z^n with a lower-triangular (HNF) basis. *)

val of_basis : Intmat.t -> t
(** [of_basis g] builds the lattice spanned by the columns of the
    non-singular square matrix [g] (any basis; it is HNF-reduced
    internally). *)

val hnf_basis : t -> Intmat.t
(** The canonical lower-triangular basis. *)

val index : t -> int
(** The index [Z^n : L], i.e. [det] of the basis (positive). *)

val coords : t -> Tiles_util.Vec.t -> Tiles_util.Vec.t option
(** [coords l v] solves [G·t = v] for integer [t] against the HNF basis
    [G]; [None] if [v] is not a lattice point. *)

val member : t -> Tiles_util.Vec.t -> bool

val point_of_coords : t -> Tiles_util.Vec.t -> Tiles_util.Vec.t
(** [point_of_coords l t] is [G·t]. *)

val first_in_residue : t -> int -> Tiles_util.Vec.t -> int
(** [first_in_residue l k prefix] — given the first [k] coordinates
    [prefix] (all lattice-consistent), return the smallest non-negative
    value admissible for coordinate [k]; subsequent admissible values
    differ by multiples of the stride [g_kk]. This is the "incremental
    offset" enumeration of the paper's Fig. 2 expressed as a triangular
    solve. *)
