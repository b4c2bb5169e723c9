(** Exact rational arithmetic on native 63-bit integers.

    Values are kept normalised: positive denominator, numerator and
    denominator coprime. All operations are overflow-checked ([Overflow] is
    raised rather than silently wrapping); the magnitudes appearing in
    tiling matrices and Fourier–Motzkin systems for realistic loop nests are
    tiny, so native ints suffice (no [zarith] in the sealed environment). *)

type t = private { num : int; den : int }

exception Overflow
(** Raised when an intermediate product exceeds the native int range. *)

val make : int -> int -> t
(** [make num den] normalises the fraction [num/den]. Raises
    [Division_by_zero] if [den = 0]. *)

val of_int : int -> t
val zero : t
val one : t

val num : t -> int
val den : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t
val inv : t -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val sign : t -> int
val is_integer : t -> bool

val min : t -> t -> t
val max : t -> t -> t

val floor : t -> int
val ceil : t -> int

val to_float : t -> float
val to_int_exn : t -> int
(** Raises [Invalid_argument] if the value is not an integer. *)

val to_string : t -> string

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val ( ~- ) : t -> t
val ( = ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
