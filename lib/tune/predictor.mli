(** The tuner's two-pass analytic cost model.

    {!predict} is the cheap pass used to prune the whole candidate set: a
    refinement of {!Tiles_runtime.Model} whose schedule length is
    {!Tiles_core.Schedule.effective_steps} — the span between the first
    and last {e real} iterations — rather than the candidate-tile step
    count, which the nearly-empty corner tiles of oblique tilings inflate
    (DESIGN.md finding 4). Communication splits into a CPU-side charge
    (pack/unpack, send/recv overheads) paid on every step, and a wire
    charge (α latency + β transfer) paid only on the [fill] pipeline
    fill/drain hops — in the self-timed steady state the wire time of one
    processor's send overlaps with its successor's compute, so charging
    it per step would systematically punish long chains of small tiles
    that the simulator actually favours.

    {!refine} is the exact-volume pass run on the pruning shortlist: the
    message count and volume are the protocol's own
    ({!Tiles_core.Plan.comm_stats}, boundary-clipped), averaged per
    tile, and the communication is charged only when at least two
    processor-grid directions are active. An effectively
    one-dimensional grid is a pure software pipeline: once it is full,
    each send shadows the successor's compute and the simulator shows
    about no slack over [steps × tile_compute]. Costlier — it enumerates
    boundary slabs — but still far cheaper than a simulation.

    The predictor exists to {e rank} candidates so the exact simulator
    only runs on a short shortlist; tests bound its error against the
    simulator on SOR / Jacobi / ADI. *)

type estimate = {
  steps : int;  (** effective wavefront steps (first → last iteration) *)
  chain : int;  (** longest per-processor tile chain *)
  fill : int;   (** [steps − chain], clamped at 0: pipeline fill + drain *)
  tile_compute : float;
      (** seconds of compute per tile on the critical path: a full
          tile's, in both passes *)
  comm_cpu : float;   (** pack + unpack + send/recv overhead, per step *)
  comm_wire : float;  (** α latency + β transfer, per fill hop *)
  total : float;  (** predicted completion, seconds *)
  predicted_speedup : float;
  refined : bool;  (** whether this came from {!refine} *)
}

val predict :
  ?width:int -> Tiles_core.Plan.t -> net:Tiles_mpisim.Netmodel.t -> estimate
(** Cheap pass: [steps × (tile_compute + comm_cpu) + fill × comm_wire],
    with the slab volume over-approximated by the unclipped TTIS count.
    [width] is the kernel's fields-per-point (default 1); it scales the
    communicated bytes and the pack/unpack CPU charge. *)

val refine :
  ?width:int -> Tiles_core.Plan.t -> net:Tiles_mpisim.Netmodel.t -> estimate
(** Exact-volume pass:
    [steps × (tile_compute + paid·comm_cpu) + fill × paid·comm_wire],
    where [tile_compute] is a full tile's compute, [comm_cpu] and
    [comm_wire] use the protocol's exact per-tile message count and
    clipped volume, and [paid] is 1 when at least two processor-grid
    directions are active and 0 otherwise. *)

val residuals :
  label:string ->
  width:int ->
  Tiles_core.Plan.t ->
  net:Tiles_mpisim.Netmodel.t ->
  observed:(string * float) list ->
  Tiles_obs.Residual.entry list
(** One {!Tiles_obs.Residual} entry per field of [observed] (keyed like
    {!fields}: [completion_s], [speedup]) and per estimator — {!predict},
    {!refine} and the {!Tiles_runtime.Model} — in that order, labelled
    [label]. *)
