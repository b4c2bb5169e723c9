(** Small dense integer vectors (iteration points, dependence vectors, tile
    coordinates). A vector is an [int array]; these helpers never mutate
    their arguments unless the name says so. *)

type t = int array

val dim : t -> int
val zero : int -> t
val basis : int -> int -> t
(** [basis n k] is the [n]-dimensional unit vector along axis [k]
    (0-indexed). *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : int -> t -> t
val dot : t -> t -> int
val equal : t -> t -> bool
val compare_lex : t -> t -> int
(** Lexicographic order, first coordinate most significant. *)

val is_zero : t -> bool
val is_lex_positive : t -> bool
(** True iff the first non-zero coordinate is positive (and the vector is
    non-zero). *)

val sum : t -> int
val copy : t -> t
val to_list : t -> int list
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val insert : t -> int -> int -> t
(** [insert v k x] returns a vector of dimension [dim v + 1] with [x]
    inserted at position [k]. *)

val remove : t -> int -> t
(** [remove v k] drops coordinate [k]. *)

val permute_to_last : t -> int -> t
(** [permute_to_last v k] moves coordinate [k] to the last position, keeping
    the relative order of the others. *)
