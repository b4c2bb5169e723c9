(** A small C abstract syntax tree — just enough to print the tiled
    sequential and SPMD/MPI programs the framework generates. The printer
    produces standalone C99. *)

type expr =
  | Int of int
  | Flt of float
  | Var of string
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr          (** C division — use only when exact *)
  | FloorDiv of expr * expr     (** printed as a [floord] helper call *)
  | CeilDiv of expr * expr      (** printed as a [ceild] helper call *)
  | Mod of expr * expr          (** mathematical (non-negative) modulo *)
  | Neg of expr
  | Max of expr * expr
  | Min of expr * expr
  | Call of string * expr list
  | Idx of string * expr list   (** array subscript [a[e1][e2]…] *)
  | Cmp of string * expr * expr (** e.g. [Cmp ("<=", a, b)] *)
  | And of expr list
  | Or of expr list
  | Not of expr
  | Raw of string

type stmt =
  | Expr of expr
  | Assign of expr * expr
  | Decl of string * string * expr option  (** type, name, initialiser *)
  | DeclArr of string * string * expr      (** type, name, size (heap) *)
  | For of { var : string; lo : expr; hi : expr; step : expr; body : stmt list }
      (** [for (var = lo; var <= hi; var += step)] *)
  | If of expr * stmt list * stmt list
  | Block of stmt list
  | Return of expr option
  | Comment of string
  | RawStmt of string

type func = {
  ret : string;
  name : string;
  params : (string * string) list;  (** type, name *)
  body : stmt list;
}

val simplify : expr -> expr
(** Constant folding and neutral-element elimination — keeps the emitted
    bounds readable. *)

val pp_expr : Buffer.t -> expr -> unit

val helpers : string
(** The [floord]/[ceild]/[imod]/[imax]/[imin] helper definitions. *)

val program :
  ?includes:string list -> ?prelude:string list -> func list -> string
(** Assemble a complete compilation unit. [prelude] lines are emitted
    verbatim between the includes and the functions (helper macros,
    static tables). The [floord]/[ceild]/[imod] helpers are always
    emitted. *)
