(** The compiled tile-execution engine (§2.3, Tables 1–2).

    A walker is built once per (plan, kernel, rank, chain length). The
    fast variants replay the plan's {!Tiles_core.Row_table}, built once
    per plan by {!Tiles_core.Plan.rows}: each compute row's LDS cell,
    grid cell, length and tap-delta class, each message's (LDS cell,
    length) segments, and the rank's boundary cells, the LDS cells its
    taps read outside the space. Their values ({!boundary_values}) are
    computed once per (plan, kernel) and land in the local array by one
    unpack-like blit before the rank's first tile, so no row looks up a
    boundary value. Likewise the kernel's static lets ({!coefs}) are
    tabulated once per (plan, kernel). Each row runs the kernel's row
    body: pure unsafe indexing on the local array (an unboxed
    {!Tiles_util.Fbuf.t}) and the table with index increments: no [Vec]
    allocation, no [Lds.map], no Fourier–Motzkin walk, no boundary test,
    no closure call per point.

    The table's rows come from the row-wise enumeration of
    {!Tiles_core.Tile_space.iter_slab_rows}: the space constraints
    pulled back onto TTIS coordinates, projected with Fourier–Motzkin
    and walked with residue-aligned strides, so every aligned point of
    a row is a member and rows need no per-point membership test. The
    order is lexicographic ascending, identical to the reference
    walker's, so pack buffers are filled in the same order and results
    are bit-for-bit equal. *)

type variant =
  | Reference
      (** the original per-point walker ([Lds.map] + bounds-checked
          indexing per tap); always validates against NaN reads.
          Kept as the correctness oracle. *)
  | Fastpath
      (** row enumeration + precomputed linear indices, contiguous-row
          blit pack/unpack, the boundary cells filled once per rank run,
          and the kernel's [row] body on every row, its static lets read
          from the plan's table ({!coefs}). The default. *)
  | Native
      (** [Fastpath] whose per-row work runs in a C-compiled,
          [dlopen]'d kernel built at plan time from the kernel's
          [ckernel] body ({!Native_kernel}). Falls back to [Fastpath]
          behaviour when no C compiler is available, the kernel carries
          no C body, or [check] is set (check mode runs the OCaml row
          body after scanning the row's reads); {!native_row} says
          which. *)

val variant_to_string : variant -> string

val variant_of_string : string -> variant option
(** Accepts ["reference"], ["fast"], ["native"]. *)

val all_variants : variant list

val compiled_member : Tiles_poly.Polyhedron.t -> int array -> bool
(** {!Tiles_core.Row_table.compiled_member}. *)

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

val boundary_values :
  plan:Tiles_core.Plan.t -> kernel:Kernel.t -> Tiles_util.Fbuf.t
(** {!Tiles_core.Row_table.values} of the plan's row table (built here
    if no Full run has built it yet) under [kernel]'s boundary, keyed by
    {!Kernel.content_key}: computed once per (plan, kernel), and on
    every call for a kernel without IR. *)

val coefs : plan:Tiles_core.Plan.t -> kernel:Kernel.t -> Kernel.coefs
(** {!Kernel.coefs} over the plan's row table's grid box (the table built
    here if no Full run has built it yet), its data kept by
    {!Tiles_core.Row_table.coefs} under {!Kernel.content_key}: evaluated
    once per (plan, kernel), and on every call for a kernel without IR
    (which has no static lets, so nothing is evaluated). *)

val make :
  ?values:Tiles_util.Fbuf.t ->
  ?coefs:Kernel.coefs ->
  native:Native_kernel.fn option ->
  plan:Tiles_core.Plan.t ->
  kernel:Kernel.t ->
  rank:int ->
  ntiles:int ->
  variant:variant ->
  check:bool ->
  unit ->
  t
(** [check] makes the fast variants scan each row's reads below its
    first cell for NaN (uninitialised-cell poisoning) before its row body
    runs ({!Kernel.unset_read}): they refuse the reads the reference
    walker refuses, with its message, naming the same first iteration.
    [Reference] validates regardless.
    [Native] runs each row through [native], the run's {!native_row}
    when it built; with [None] it runs the OCaml fast path. The other
    variants ignore [native]. The fast variants read the plan's row
    table (built here if no Full run has built it yet), fill the rank's
    boundary cells from [values] (default {!boundary_values}), hand the
    row body [coefs] (default {!coefs}) and require [ntiles] to be the
    rank's chain length. *)

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
    boundary cells, which the fast variants log as they write them. [Reference] resets the whole of [la] instead. A rank
    that borrowed its NaN-poisoned local array ({!Lds_pool}) calls this
    before giving it back. *)

val compute_tile :
  t ->
  trel:int ->
  tile:Tiles_util.Vec.t ->
  la:Tiles_util.Fbuf.t ->
  grid:Grid.t ->
  int
(** Execute the kernel over the tile's clipped TTIS, reading/writing the
    local array, and copy each computed value into [grid] at its global
    point as well (the LDS → DS write-back of §3.1, done as each row is
    computed: a computed cell is final, since unpack writes only halo
    cells). The fast variants copy a row with one blit when its innermost
    step is contiguous in the grid; [Reference] writes point by point.
    The fast variants fill the rank's boundary cells at [trel = 0], so a
    rank computes its chain in order from there. Returns the number of
    iteration points computed. *)

val pack_slab :
  t ->
  trel:int ->
  tile:Tiles_util.Vec.t ->
  dir:int ->
  la:Tiles_util.Fbuf.t ->
  buf:Tiles_util.Fbuf.t ->
  int
(** Gather the clipped slab the tile sends in direction [dir] (an index
    into {!Tiles_core.Comm.t.dm}) into [buf] in lexicographic TTIS
    order. Returns the number of cells of the slab; the fast variants
    pack nothing when [buf] does not hold exactly that many. *)

val unpack_slab :
  t ->
  trel:int ->
  nth:int ->
  Tiles_core.Count_table.recv ->
  la:Tiles_util.Fbuf.t ->
  buf:Tiles_util.Fbuf.t ->
  int
(** Scatter the received slab of the tile's [nth] receive (in
    {!Tiles_core.Count_table.recvs} order), packed by the predecessor
    tile, into this rank's local array. Returns the number of cells of
    the slab; the fast variants scatter nothing when [buf] does not hold
    exactly that many. *)
