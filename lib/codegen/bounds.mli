(** Affine loop bounds as C expressions, read off a Fourier–Motzkin
    projection chain: loop variable [k]'s bounds mention only the outer
    variables [0 .. k-1]. *)

val lower : Tiles_poly.Constr.t list -> var:int -> name:(int -> string) -> C_ast.expr
(** [max] of the ceil-divided lower bounds. Raises [Failure] if the
    variable is unbounded below in the system. *)

val upper : Tiles_poly.Constr.t list -> var:int -> name:(int -> string) -> C_ast.expr
(** [min] of the floor-divided upper bounds. *)

