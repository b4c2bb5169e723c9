(** Data-parallel MPI code generation (§3).

    Emits a complete SPMD C program implementing the paper's per-tile
    protocol: for every tile of the rank's chain, RECEIVE from
    predecessor tiles, sweep the TTIS computing the kernel into the
    rank's LDS, then SEND one aggregated message per processor
    direction. All compile-time artifacts — the processor table, chain
    bounds, halo offsets, [D^S] and the slab bounds, and the plan's
    message schedule from {!Tiles_core.Count_table} (each tile's
    receives in channel order, each send's cells and destination rank)
    — are baked in as static tables, exactly what the paper's tool
    precomputed. The program derives no pairing of its own, so its
    message set, tags and per-channel order are the OCaml backends' by
    construction. Every pack and unpack compares the cells it walked
    with the table's count and calls [MPI_Abort] with the rank,
    direction and [t^S] on stderr when they differ (the C form of
    the OCaml protocol's [Slab_mismatch]).

    The program runs under any MPI with [NP] ranks (the vendored
    fork-based [mpistub] works for single-machine testing) and prints
    [points], [messages] (its [MPI_Send] count) and [checksum] from rank
    0 via [MPI_Reduce], so its output is directly comparable with the
    OCaml executors. *)

val generate :
  plan:Tiles_core.Plan.t ->
  kernel:Ckernel.t ->
  reads:Tiles_util.Vec.t list ->
  ?skew:Tiles_linalg.Intmat.t ->
  unit ->
  string
