(** A dense global value store over the bounding box of an iteration
    space — the Data Space [DS] stand-in ([f_w] is the identity in all the
    paper's benchmarks). Cells start as NaN so that any protocol bug that
    reads a never-written cell poisons the results visibly.

    Storage is a flat unboxed {!Tiles_util.Fbuf.t} (1-D [float64]
    Bigarray): no per-element boxing, no GC write barrier, and the data
    pointer can be passed straight to native compiled kernels. *)

type t

val create :
  ?reads:Tiles_util.Vec.t list -> Tiles_poly.Polyhedron.t -> width:int -> t
(** [create ?reads space ~width] — a NaN-filled grid over the bounding box
    of [space], widened so that [j − d] lies inside it for every point [j]
    of [space] and every read offset [d] of [reads] (default none): a
    kernel's out-of-space taps then have cells too, which the sequential
    oracle fills with boundary values. *)

val width : t -> int
val get : t -> Tiles_util.Vec.t -> int -> float
val set : t -> Tiles_util.Vec.t -> int -> float -> unit

val mem : t -> Tiles_util.Vec.t -> bool
(** Is the point inside the backing bounding box? Raises
    [Invalid_argument] when the point's rank differs from the grid's —
    a silent [true] (short point) or an index error escaping from array
    access (long point) would hide a protocol bug. *)

val index : t -> Tiles_util.Vec.t -> int -> int
(** [index t j field] — flat index of [field] at point [j] into [data].
    Bounds-checked per dimension (and rank-checked like {!mem}); raises
    [Invalid_argument] outside the bounding box. Because storage is a
    dense row-major box, the flat index is affine in [j]: walkers exploit
    this by computing [index] once per row and incrementing by a
    precomputed step. *)

val strides : t -> int array
(** Per-dimension flat-index strides, in slot units (field width folded
    in: moving by 1 in the last dimension moves [width t] slots). *)

val data : t -> Tiles_util.Fbuf.t
(** The raw backing store. Raw access is for strength-reduced walkers
    that have validated their index arithmetic against [index]; everyone
    else should go through [get]/[set]. *)

val slots : t -> int
(** Total slots of the backing store ([cells * width]). *)

val load_boxed : t -> float array -> unit
(** Overwrite the backing store from a boxed array of exactly [slots t]
    elements: how the boxed reference oracle publishes its result. *)

val max_abs_diff : t -> t -> Tiles_poly.Polyhedron.t -> float
(** Maximum absolute difference over the points of the given space (all
    fields). NaN in either operand at a space point yields [infinity].
    The grids may have different boxes (each must contain the space);
    the space is walked row by row, one bounds check per row end. *)

val digest : t -> Tiles_poly.Polyhedron.t -> int64
(** A 64-bit fingerprint of the values over the points of the space (all
    fields): the wrapping sum, over in-space points [j] and fields [f],
    of [mix (Int64.logxor (Int64.bits_of_float v) (key j f))], where
    [mix] is splitmix64's finalizer (a bijection), [key j f = lead j +
    (j_n · width + f) · 0x9e3779b97f4a7c15] and [lead j] folds the
    leading coordinates [j_1 .. j_(n-1)] as [lead := mix (lead + j_k)]
    from [0]. It reads all 64 bits of every slot, so changing any one
    in-space slot (a sign bit, a NaN payload) changes the digest; slots
    outside the space do not count, and grids with different boxes but
    the same in-space bits have equal digests. The space is walked row by
    row, as {!max_abs_diff} walks it. *)

val checksum : t -> Tiles_poly.Polyhedron.t -> float
(** Sum of all field values over the space, using Neumaier compensated
    summation. Guarantee: the result is faithful to the exact sum (one
    final rounding), so it does not depend on the order in which walker
    variants happened to write — or this function happens to visit — the
    cells; checksums of bit-identical grids compare equal across
    variants and traversal orders. *)
