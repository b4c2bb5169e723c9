(** A single affine inequality over [n] integer variables:

      [coeffs · x + const >= 0]

    Coefficients are integers; constraints are normalised by the gcd of the
    coefficient vector with the constant floored, which is an exact
    tightening for integer solution sets. *)

type t = private { coeffs : int array; const : int }

val make : coeffs:int array -> const:int -> t
(** Normalises. A constraint with an all-zero coefficient vector is legal
    (it is then trivially true or false; see {!is_tautology} /
    {!is_contradiction}). *)

val dim : t -> int
val coeff : t -> int -> int
val const : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int

val holds : t -> Tiles_util.Vec.t -> bool

val is_tautology : t -> bool
(** All coefficients zero and [const >= 0]. *)

val is_contradiction : t -> bool
(** All coefficients zero and [const < 0]. *)

val ge : int array -> int -> t
(** [ge a b] is the constraint [a·x >= b]. *)

val le : int array -> int -> t
(** [le a b] is the constraint [a·x <= b]. *)

val lower_bound_var : int -> int -> int -> t
(** [lower_bound_var n k b] is [x_k >= b] in dimension [n]. *)

val upper_bound_var : int -> int -> int -> t
(** [upper_bound_var n k b] is [x_k <= b] in dimension [n]. *)

val pp : Format.formatter -> t -> unit
