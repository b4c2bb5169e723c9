(** Polyhedral cones [{x | A·x >= 0}] and their extreme rays.

    The {e tiling cone} of an algorithm with dependence matrix [D] is the
    cone of row vectors [h] with [h·d >= 0] for every dependence column [d];
    the paper (after refs [4,12,15] and Hodzic–Shang [10]) selects the rows
    of the tiling matrix [H] from (the surface of) this cone. Extreme rays
    are computed by the combinatorial variant of the double-description
    method: every extreme ray of a pointed [n]-dimensional cone is the
    one-dimensional kernel of some [n-1] linearly independent active
    constraints. Fine for the small dimensions of loop nests. *)

type t

val of_constraints : Tiles_linalg.Intmat.t -> t
(** [of_constraints a] is [{x | a·x >= 0}] (each row of [a] one
    inequality). *)

val tiling_cone : Tiles_linalg.Intmat.t -> t
(** [tiling_cone d] where the columns of [d] are the dependence vectors:
    the cone [{h | hᵀ·d_j >= 0 for all j}]. *)

val contains : t -> Tiles_util.Vec.t -> bool

val is_pointed : t -> bool
(** True iff the lineality space is trivial (no line fits in the cone). *)

val extreme_rays : t -> Tiles_util.Vec.t list
(** Primitive integer representatives of the extreme rays, deduplicated,
    in lexicographic order. Raises [Failure] if the cone is not pointed
    (the ray description would then not be finite-positive-combination
    complete). *)

val contains_in_interior : t -> Tiles_util.Vec.t -> bool
(** Strictly inside: every defining inequality holds strictly. Hodzic–Shang
    optimality says a tiling row lying in the {e interior} of the tiling
    cone is never schedule-optimal. *)
