(** Per-plan C source for the native walker's compiled row function.

    The generated translation unit exports a single symbol,
    {!entry_symbol}:

    {v
    void tilec_row(double *la, long cur, const long *taps,
                   const long *j0, long len);
    v}

    [la] is the rank's local array (the Bigarray data pointer), [cur]
    the LDS cell of the row's first point, [taps] the per-read LDS cell
    deltas for this row (the walker's [doffs]), [j0] the global (skewed)
    coordinates of the first point, read only when the body uses its
    coordinates, and [len] the number of points. Every row reads its
    taps unguarded: the walker fills each tap cell outside the space
    with its boundary value before the rank's first tile. Addressing
    matches the fast OCaml path slot for slot, and the float operations
    are the kernel's C body verbatim, so results are bit-identical. *)

val entry_symbol : string

val generate :
  plan:Tiles_core.Plan.t ->
  kernel:Ckernel.t ->
  skew:Tiles_linalg.Intmat.t ->
  reads:Tiles_util.Vec.t list ->
  unit ->
  string
(** [reads] are the kernel's (skewed) read offsets in compute order;
    [skew] the cumulative skew matrix (identity if unskewed) used to
    recover original coordinates for [J(k)]. *)
