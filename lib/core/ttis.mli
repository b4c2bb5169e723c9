(** Enumeration of the Transformed Tile Iteration Space (Fig. 1–2).

    The TTIS is [L(H') ∩ [0,v_11) × … × [0,v_nn)]. Its points are swept by
    [n] nested loops where loop [k] has stride [c_k] and a starting offset
    determined by the outer loop variables through the sub-diagonal entries
    of [H'~] — precisely the paper's strides/incremental-offsets scheme.
    Dimension [k] always contains exactly [v_kk / c_k] points per outer
    prefix, so a full tile has [Π v_kk / c_k = |det P|] points. *)

val iter : Tiling.t -> (Tiles_util.Vec.t -> unit) -> unit
(** Enumerate TTIS points in lexicographic order. The callback receives a
    reused buffer; copy it to keep it. *)

val count : Tiling.t -> int
(** Number of points by actual enumeration (tests check it equals
    [Tiling.tile_size]). *)

val mem : Tiling.t -> Tiles_util.Vec.t -> bool
(** Is [j'] a TTIS point (on the lattice and inside the box)? *)

val start_offset : Tiling.t -> int -> Tiles_util.Vec.t -> int
(** [start_offset t k prefix] — the smallest admissible value of
    coordinate [k] given outer coordinates [prefix] (the "incremental
    offset" of Fig. 2, computed by triangular solve against [H'~]). *)

val iter_incremental : Tiling.t -> (Tiles_util.Vec.t -> unit) -> unit
(** The paper's Fig. 2 scheme, literally: loop [k] keeps a running start
    offset that is bumped by the incremental offset [a_kl = h'~_kl]
    (mod [c_k]) each time the outer loop [l] advances — no per-prefix
    solve. Tests check it enumerates exactly the same sequence as
    {!iter}. *)

val iter_from : Tiling.t -> lo:int array -> (Tiles_util.Vec.t -> unit) -> unit
(** Like {!iter}, but dimension [k] starts at the first lattice-admissible
    value [>= lo.(k)] (still ending below [v_kk]). This enumerates the
    communication slabs of §3.2: [lo.(k) = d_k·cc_k]. *)

val count_from : Tiling.t -> lo:int array -> int

val iter_bruteforce : Tiling.t -> (Tiles_util.Vec.t -> unit) -> unit
(** Reference implementation: scan the whole box and filter by lattice
    membership. Quadratically slower; used by tests to validate [iter]. *)
