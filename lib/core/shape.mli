(** Automatic tile-shape selection from the tiling cone — the direction
    the paper's conclusions point to (and refs [4, 10, 12, 15] prove
    optimal): take the tile-forming hyperplanes from the {e surface} of
    the tiling cone rather than the axes.

    [from_cone deps ~factors] picks [n] linearly independent extreme rays
    of the cone [{h | h·D >= 0}] (time-like ray first, then
    lexicographically), scales ray [i] by [1/factors_i] and builds the
    tiling. For ADI this reconstructs the paper's hand-written [H_nr3]
    exactly (see [examples/adi_tilecone.ml] and the tests). *)

val from_cone : Tiles_loop.Dependence.t -> factors:int list -> Tiling.t
(** Raises like {!Tiling.make} (e.g. stride divisibility), and raises
    [Failure] if the cone is not pointed or has fewer than [n]
    independent extreme rays. *)

val families : Tiles_loop.Dependence.t -> (string * Tiles_util.Vec.t list) list
(** The tuner's shape vocabulary: every mix of axis rows and
    [n] independent cone rays (row [k] is either [e_k] or ray [k]),
    selected as in {!from_cone}, filtered to
    legal ([row·d >= 0] for every dependence — scaling rows by positive
    [1/f] preserves this) and linearly independent families, deduplicated.
    [("rect", axis rows)] appears first when legal; [("cone", …)] is the
    full-ray family; in-between families are named ["mix<ray indices>"].
    If the cone has no usable ray basis only the axis family is tried. *)
