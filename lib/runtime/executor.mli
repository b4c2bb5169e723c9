(** Distributed execution of a {!Plan} on the simulated cluster.

    Each MPI rank owns one processor id and executes its tile chain with
    the per-tile protocol of §3.2:

    {v RECEIVE (halo unpack)  →  compute TTIS points  →  SEND (pack) v}

    Receives pair with sends through the paper's rules: a tile receives
    from a predecessor tile iff it is that predecessor's lexicographically
    minimum valid successor in the processor direction; a tile sends one
    aggregated message per processor direction iff some valid successor
    exists. Message tags carry the sender's tile index, making the
    matching explicit.

    Two modes:
    - [Full]: allocates the LDS, runs the real stencil arithmetic, and
      writes results back to the global grid through the LDS→DS
      transition, so the output can be compared bit-for-bit against
      {!Seq_exec}. Never-written LDS cells are NaN and reads assert
      non-NaN, so protocol bugs surface immediately.
    - [Timing]: skips data movement and arithmetic but charges the exact
      same virtual-time costs: tile points and message sizes come from
      the plan's {!Tiles_core.Count_table}, and messages carry only their
      length. Used by the benchmark harness; a test checks the two modes
      report identical virtual completion times. *)

type mode = Full | Timing

type result = {
  stats : Tiles_mpisim.Sim.stats;
  seq_modelled : float;
      (** modelled sequential time of the original loop:
          [Plan.total_iterations · flop_time] *)
  speedup : float;       (** [seq_modelled / stats.completion] *)
  grid : Grid.t option;  (** populated in [Full] mode *)
  points_computed : int; (** total iterations executed across ranks *)
  tiles_executed : int;
  walker_fallback : string option;
      (** why a [Native] walker ran the OCaml fast path
          ({!Protocol.shared}'s [fallback]); [None] in [Timing] mode,
          which runs no walker *)
}

val run :
  ?walker:Walker.variant ->
  ?check:bool ->
  ?mode:mode ->
  ?overlap:bool ->
  ?recorder:Tiles_obs.Recorder.t ->
  plan:Tiles_core.Plan.t ->
  kernel:Kernel.t ->
  net:Tiles_mpisim.Netmodel.t ->
  unit ->
  result
(** Raises [Invalid_argument] if the kernel's dependencies don't match the
    plan's nest.

    [walker]/[check] (defaults {!Walker.Fastpath}, [false]) select the
    tile-execution engine and its NaN-read validation; see
    {!Protocol.prepare}. [Timing] mode never touches data, so they only
    matter in [Full] mode.

    [overlap] (default false) runs {!Protocol.rank_program} in its
    overlapped §5 schedule (receives pre-posted per tile) and switches
    sends to the non-blocking, NIC-driven model of
    {!Tiles_mpisim.Sim.run}'s [~overlap]: the paper's §5 future-work scheme
    (ref [8]) where a tile's outgoing communication overlaps the next
    tile's computation.

    [recorder] is passed to {!Tiles_mpisim.Sim.run}, which writes every
    span, edge and counter of the run to it; it must read virtual time
    (be created with a clock that always returns 0); its
    {!Tiles_obs.Recorder.keep} decides how much of the run is kept.
    Without one the run is untraced. *)
