(** Dense integer matrices, stored row-major ([m.(i).(j)] is row [i],
    column [j]). Dimensions are validated on every binary operation. *)

type t = int array array

val of_rows : int list list -> t
val of_cols : int list list -> t
val identity : int -> t
val rows : t -> int
val cols : t -> int
val is_square : t -> bool
val copy : t -> t
val equal : t -> t -> bool

val col : t -> int -> Tiles_util.Vec.t
val transpose : t -> t
val mul : t -> t -> t
val apply : t -> Tiles_util.Vec.t -> Tiles_util.Vec.t
(** [apply m v] is the matrix-vector product [m · v]. *)

val det : t -> int
(** Determinant by the Bareiss fraction-free algorithm (exact, no rounding);
    square matrices only. *)

val is_unimodular : t -> bool
(** True iff square with determinant [±1]. *)

val is_lower_triangular : t -> bool

val swap_cols : t -> int -> int -> unit
val add_col : t -> src:int -> dst:int -> factor:int -> unit
(** [add_col m ~src ~dst ~factor] performs the column operation
    [col dst <- col dst + factor * col src] in place. *)

val neg_col : t -> int -> unit

val pp : Format.formatter -> t -> unit
val to_string : t -> string
