(** The compiled tile-execution engine (§2.3, Tables 1–2).

    A walker is built once per (plan, kernel, rank, chain length) and
    precomputes everything the per-point protocol body used to re-derive
    at every iteration: the TTIS→LDS linear-index strides, the
    tile-relative LDS base shift, the integer numerator [Q/den] of [P'],
    the per-innermost-step global-coordinate delta, and — per row — a
    flat [int array] of linear read-offset deltas for each stencil tap.
    The hot loop is then pure unsafe indexing on the local array
    (an unboxed {!Tiles_util.Fbuf.t}) with index increments: no [Vec]
    allocation, no [Lds.map], no bounds re-derivation.

    Enumeration happens row-wise: the space constraints are pulled back
    onto TTIS coordinates (tile-dependent constants only), projected
    with Fourier–Motzkin, and walked with residue-aligned strides
    exactly like {!Tiles_core.Tile_space.count_slab} — the innermost
    level of the projection chain is the original system, so every
    aligned point of a row is a member and rows need no per-point
    membership test. The enumeration order is lexicographic ascending,
    identical to the reference walker's, so pack buffers are filled in
    the same order and results are bit-for-bit equal. *)

type variant =
  | Reference
      (** the original per-point walker ([Lds.map] + bounds-checked
          indexing per tap); always validates against NaN reads.
          Kept as the correctness oracle. *)
  | Fastpath
      (** row enumeration + precomputed linear indices, contiguous-row
          blit pack/unpack, and the kernel's unrolled [row] body on
          every row (width-1 kernels). On a row whose taps leave the
          space, each out-of-space tap's LDS cell first receives its
          boundary value, once per rank run: each tap's in-space steps
          form one interval, one integer division per active
          constraint. The default. *)
  | Native
      (** [Fastpath] whose per-row work runs in a C-compiled,
          [dlopen]'d kernel built at plan time from the kernel's
          [ckernel] body ({!Native_kernel}). Falls back to [Fastpath]
          behaviour when no C compiler is available, the kernel carries
          no C body, or [check] is set (NaN validation needs the OCaml
          read path); {!native_row} says which. *)

val variant_to_string : variant -> string

val variant_of_string : string -> variant option
(** Accepts ["reference"], ["fast"], ["native"]. *)

val all_variants : variant list

val compiled_member : Tiles_poly.Polyhedron.t -> int array -> bool
(** Closure-free membership test compiled from the space's constraints
    (no per-call allocation). *)

type t

val native_row :
  plan:Tiles_core.Plan.t ->
  kernel:Kernel.t ->
  check:bool ->
  (Native_kernel.fn, string) result
(** The [Native] variant's compiled row for a plan, or why a walker
    built with it runs the OCaml fast path instead: check mode, or
    {!Native_kernel.build}'s error. Every rank of a run shares one row,
    so a run builds it once and hands it to each rank's {!make}. *)

val make :
  native:Native_kernel.fn option ->
  plan:Tiles_core.Plan.t ->
  kernel:Kernel.t ->
  rank:int ->
  ntiles:int ->
  variant:variant ->
  check:bool ->
  unit ->
  t
(** [check] makes the fast variants validate every LDS read against NaN
    (uninitialised-cell poisoning) like the reference walker does, and
    confirm that every boundary-filled source lies outside the space; the
    fast variants skip the check — and become eligible for the unrolled
    row bodies — when it is false. [Reference] validates regardless.
    [Native] runs each row through [native], the run's {!native_row}
    when it built; with [None] it runs the OCaml fast path. The other
    variants ignore [native]. *)

val variant : t -> variant

val counter : t -> Tiles_core.Tile_space.counter
(** The plan's {!Tiles_core.Count_table.counter}, whose chain this walker
    enumerates rows with: every rank of a plan shares one projection. *)

val lds_total : t -> int
(** Cells of the rank's local array ([Lds.shape] total); the backing
    buffer must have [lds_total * width] slots. *)

val reset_written : t -> la:Tiles_util.Fbuf.t -> unit
(** Set back to NaN every cell of [la] this walker wrote since it was
    made or last reset: the computed rows, the unpacked slab rows and the
    boundary-filled tap ranges, which the fast variants log as they
    write them. [Reference] resets the whole of [la] instead. A rank
    that borrowed its NaN-poisoned local array ({!Lds_pool}) calls this
    before giving it back. *)

val compute_tile :
  t -> trel:int -> tile:Tiles_util.Vec.t -> la:Tiles_util.Fbuf.t -> int
(** Execute the kernel over the tile's clipped TTIS, reading/writing the
    local array. Returns the number of iteration points computed. *)

val pack_slab :
  t ->
  trel:int ->
  tile:Tiles_util.Vec.t ->
  lo:int array ->
  la:Tiles_util.Fbuf.t ->
  buf:Tiles_util.Fbuf.t ->
  int
(** Gather the clipped slab [j' >= lo] of the tile into [buf] in
    lexicographic TTIS order. Returns the number of cells packed. *)

val unpack_slab :
  t ->
  trel:int ->
  pred_tile:Tiles_util.Vec.t ->
  ds:Tiles_util.Vec.t ->
  lo:int array ->
  la:Tiles_util.Fbuf.t ->
  buf:Tiles_util.Fbuf.t ->
  int
(** Scatter a received slab (packed by the predecessor tile
    [pred_tile], arriving over tile dependence [ds]) into this rank's
    local array. Returns the number of cells scattered. *)

val write_back :
  t ->
  trel:int ->
  tile:Tiles_util.Vec.t ->
  la:Tiles_util.Fbuf.t ->
  Grid.t ->
  unit
(** Copy the tile's computed points from the local array into the
    global grid (LDS → DS). *)
