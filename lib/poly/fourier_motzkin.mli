(** Fourier–Motzkin elimination over integer affine constraint systems.

    Elimination keeps the ambient dimension (the eliminated variable's
    coefficient becomes zero everywhere), which makes it convenient to build
    the chain of projections used to derive loop bounds: the bounds of loop
    variable [x_k] must only mention [x_0 … x_(k-1)], so they are read off
    the system with [x_(k+1) … x_(n-1)] eliminated. *)

val eliminate : Constr.t list -> var:int -> Constr.t list
(** Eliminate one variable. Tautologies are dropped; a contradiction (the
    rational relaxation is empty) is kept so emptiness remains visible.
    Of the constraints sharing one (gcd-normalised) coefficient vector
    only the tightest is kept: the others are implied, so every integer
    bound is unchanged while the system stops growing with parallel
    copies. *)

val eliminate_all_but : Constr.t list -> dim:int -> keep:int list -> Constr.t list
(** Eliminate every variable not listed in [keep]. *)

type projection
(** The chain [S_(n-1) ⊇ … ⊇ S_0] where [S_k] has variables
    [> k] eliminated. *)

val project : Constr.t list -> dim:int -> projection
(** The top system [S_(n-1)] is the input, pruned like {!eliminate}'s
    output. *)

val bounds : projection -> var:int -> prefix:Tiles_util.Vec.t -> (int * int) option
(** [bounds p ~var:k ~prefix] — numeric [lo, hi] range for [x_k] once
    [x_0 … x_(k-1)] are fixed to [prefix]. [None] if the range is empty;
    raises [Failure] if the variable is unbounded in that direction (the
    iteration spaces we handle are compact). *)

val system : projection -> var:int -> Constr.t list
(** The projected system [S_var] (for inspection / code generation). *)
