(** The kernel expression IR: a loop body written once. Every rendition
    derives from it: the OCaml [compute]/[row]/[boundary] (printed into
    [lib/apps] at build time), the C body and boundary of the code
    generators, the reads, the width and whether the body needs its
    coordinates. As in Devito's [Cluster], a body is an ordered sequence
    of expressions: [let] bindings, then one output per field.

    Printing follows the tree exactly and both languages share the
    precedence and associativity of [+ - * /] and [mod], so every
    rendition performs the same float operations in the same order. *)

type iexpr =
  | J of int  (** the k-th original-space coordinate *)
  | Int of int
  | Iop of iop * iexpr * iexpr

and iop = Iadd | Isub | Imul | Imod  (** [Imod] truncates, like [mod] and [%] *)

type expr =
  | Rd of int array * int
      (** [Rd (d, f)]: field [f] of the value at [j − d] (original space) *)
  | Const of float
  | Op of op * expr * expr
  | Sin of expr
  | Cos of expr
  | Float of iexpr  (** an integer expression converted to float *)
  | Var of string  (** a [let]-bound name *)

and op = Add | Sub | Mul | Div

type t = private {
  name : string;
  dim : int;
  lets : (string * expr) list;  (** evaluated in order, before [out] *)
  out : expr list;  (** field [f]'s new value is [List.nth out f] *)
  boundary : expr list;
      (** field [f]'s value outside the iteration space, over [J] only *)
}

val make :
  name:string ->
  dim:int ->
  ?lets:(string * expr) list ->
  out:expr list ->
  boundary:expr list ->
  unit ->
  t
(** Raises [Invalid_argument] unless the body reads something, offsets
    have [dim] entries, fields and coordinates are in range, each let is
    bound before its uses, and [boundary] holds one expression per output
    without reads or lets. Names must be lowercase identifiers. *)

val reads : t -> int array list
(** Distinct read offsets in first-use order (lets, then outputs, each
    left to right); a read's index in every rendition is its position. *)

val width : t -> int
val nreads : t -> int

val uses_j : t -> bool
(** Whether the body (not the boundary) mentions [J]. *)

val statics : t -> (string * int list) list
(** The static lets, in order: each [let] that reads no data and no other
    let and mentions a proper subset of the coordinates, with the
    coordinates it mentions, ascending. Its values over those
    coordinates fit a table computed once per plan. *)

val c_body : t -> string list
(** C statements over the code generators' macros [RD(i, f)], [WR(f)]
    and [J(k)]. *)

val c_boundary : t -> string list
(** The body of [double boundary_orig(const int *j, int f)]. *)

val ml_defs : t -> string
(** OCaml definitions of [compute], [statics] (one function of the
    coordinates per {!statics} entry, printing the let's expression),
    [row] (a [Kernel.row_body], for every width, reading the static lets
    from the [Kernel.coefs] table and stepping the other coordinates
    from the row's first point) and [boundary], with the runtime
    kernel's signatures. *)
