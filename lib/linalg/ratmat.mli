(** Dense matrices over exact rationals. Tiling transformations [H] have
    rational rows (e.g. [1/x]); their inverses [P] carry the tile side
    vectors. Everything here is exact. *)

type t = Tiles_rat.Rat.t array array

val of_rows : Tiles_rat.Rat.t list list -> t
val of_int_rows : int list list -> t
val of_intmat : Intmat.t -> t
val identity : int -> t
val rows : t -> int
val cols : t -> int
val equal : t -> t -> bool

val mul : t -> t -> t
val apply_int : t -> Tiles_util.Vec.t -> Tiles_rat.Rat.t array
(** Apply to an integer vector. *)

val det : t -> Tiles_rat.Rat.t
val inverse : t -> t
(** Gauss–Jordan with exact pivoting. Raises [Failure] on a singular
    matrix. *)

val to_intmat_exn : t -> Intmat.t
(** Raises [Invalid_argument] if any entry is non-integral. *)

val is_integral : t -> bool

val row_denominator_lcm : t -> int -> int
(** Least common multiple of the denominators of row [i]; this is the
    [v_kk] scaling factor of the paper's diagonal matrix [V]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
