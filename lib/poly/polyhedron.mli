(** Convex polyhedra as conjunctions of affine inequalities — the iteration
    spaces [J^n] of the paper (always bounded in practice). *)

type t

val make : dim:int -> Constr.t list -> t
val dim : t -> int
val constraints : t -> Constr.t list
val add : t -> Constr.t -> t
val inter : t -> t -> t

val box : (int * int) list -> t
(** [box [(l1,u1); …]] is the rectangular space [l_i <= x_i <= u_i]. *)

val member : t -> Tiles_util.Vec.t -> bool

val is_empty_rational : t -> bool
(** Emptiness of the rational relaxation (Fourier–Motzkin to the ground).
    Sound for declaring integer emptiness; may report non-empty for systems
    with rational but no integer points. *)

val bounding_box : t -> (int * int) array
(** Per-variable [lo, hi] over the rational relaxation (integer-tightened).
    Raises [Failure] if some direction is unbounded. *)

val projection : t -> Fourier_motzkin.projection
(** Cached projection chain for loop-style enumeration. *)

val iter_points : t -> (Tiles_util.Vec.t -> unit) -> unit
(** Enumerate all integer points in lexicographic order. The callback
    receives a buffer that is reused between calls; copy it if you keep
    it. *)

val iter_rows : t -> (Tiles_util.Vec.t -> int -> unit) -> unit
(** [iter_rows p f] calls [f j len] once per maximal run of points that
    differ only in the last coordinate, in the order of {!iter_points}:
    the run is [j, j + e, …, j + (len-1)·e] with [e] the last unit vector
    and [len >= 1]. [j] is a reused buffer; [f] may overwrite its last
    coordinate. *)

val fold_points : t -> init:'a -> f:('a -> Tiles_util.Vec.t -> 'a) -> 'a
val count_points : t -> int
val points : t -> Tiles_util.Vec.t list
(** Materialised (copied) points, lexicographic order. *)

val transform_unimodular : Tiles_linalg.Intmat.t -> t -> t
(** [transform_unimodular t p] is the image [{t·x | x ∈ p}] for unimodular
    [t] (used for loop skewing). Raises [Invalid_argument] if [t] is not
    unimodular. *)

val pp : Format.formatter -> t -> unit
