(** Fourier–Motzkin elimination over integer affine constraint systems.

    Elimination keeps the ambient dimension (the eliminated variable's
    coefficient becomes zero everywhere), which makes it convenient to build
    the chain of projections used to derive loop bounds: the bounds of loop
    variable [x_k] must only mention [x_0 … x_(k-1)], so they are read off
    the system with [x_(k+1) … x_(n-1)] eliminated. *)

val prune : Constr.t list -> Constr.t list
(** Sort by {!Constr.compare}, drop duplicates and, of the constraints
    sharing one (gcd-normalised) coefficient vector, keep only the
    tightest: the others are implied, so every integer bound is
    unchanged while a system stops growing with parallel copies. *)

val eliminate :
  ?make:(coeffs:int array -> const:int -> Constr.t) ->
  Constr.t list ->
  var:int ->
  Constr.t list
(** Eliminate one variable. Tautologies are dropped; a contradiction (the
    rational relaxation is empty) is kept so emptiness remains visible.
    The result is {!prune}d. [make] builds each combination from its raw
    coefficients and constant (default {!Constr.make}): a caller that
    knows more about its variables may tighten the constant further. *)

val eliminate_all_but :
  ?make:(coeffs:int array -> const:int -> Constr.t) ->
  Constr.t list ->
  dim:int ->
  keep:int list ->
  Constr.t list
(** Eliminate every variable not listed in [keep], each step like
    {!eliminate}. *)

type projection
(** The chain [S_(n-1) ⊇ … ⊇ S_0] where [S_k] has variables
    [> k] eliminated. *)

val project : Constr.t list -> dim:int -> projection
(** The top system [S_(n-1)] is the input, {!prune}d. *)

val bounds : projection -> var:int -> prefix:Tiles_util.Vec.t -> (int * int) option
(** [bounds p ~var:k ~prefix] — numeric [lo, hi] range for [x_k] once
    [x_0 … x_(k-1)] are fixed to [prefix]. [None] if the range is empty;
    raises [Failure] if the variable is unbounded in that direction (the
    iteration spaces we handle are compact). *)

type range = { mutable lo : int; mutable hi : int }

val range : projection -> var:int -> prefix:Tiles_util.Vec.t -> range -> unit
(** [range p ~var ~prefix r] sets [r] to {!bounds}' range, [r.lo > r.hi]
    when it is empty, and raises like {!bounds}. It allocates nothing, so
    a walk reuses one [r] for every row. *)

val system : projection -> var:int -> Constr.t list
(** The projected system [S_var] (for inspection / code generation). *)
