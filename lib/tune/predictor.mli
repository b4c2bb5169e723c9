(** The tuner's analytic cost model.

    {!predict} ranks the whole candidate set so that the exact simulator
    only runs on a shortlist: a refinement of {!Tiles_runtime.Model}
    whose schedule length is {!Tiles_core.Schedule.effective_steps} — the
    span between the first and last {e real} iterations — rather than the
    candidate-tile step count, which the nearly-empty corner tiles of
    oblique tilings inflate (DESIGN.md finding 4). Communication splits
    into a CPU-side charge (pack/unpack, send/recv overheads) paid on
    every step, and a wire charge (α latency + β transfer) paid only on
    the [fill] pipeline fill/drain hops — in the self-timed steady state
    the wire time of one processor's send overlaps with its successor's
    compute, so charging it per step would systematically punish long
    chains of small tiles that the simulator actually favours.

    It needs no count table, so it is cheap enough for every candidate;
    the simulator ranks the shortlist exactly. Tests bound its error
    against the simulator on SOR / Jacobi / ADI. *)

type estimate = {
  steps : int;  (** effective wavefront steps (first → last iteration) *)
  chain : int;  (** longest per-processor tile chain *)
  fill : int;   (** [steps − chain], clamped at 0: pipeline fill + drain *)
  tile_compute : float;
      (** seconds of compute per tile on the critical path: a full
          tile's *)
  comm_cpu : float;   (** pack + unpack + send/recv overhead, per step *)
  comm_wire : float;  (** α latency + β transfer, per fill hop *)
  total : float;  (** predicted completion, seconds *)
  predicted_speedup : float;
}

val predict :
  ?width:int -> Tiles_core.Plan.t -> net:Tiles_mpisim.Netmodel.t -> estimate
(** [steps × (tile_compute + comm_cpu) + fill × comm_wire],
    with the slab volume over-approximated by the unclipped TTIS count.
    [width] is the kernel's fields-per-point (default 1); it scales the
    communicated bytes and the pack/unpack CPU charge. *)

val residuals :
  label:string ->
  width:int ->
  Tiles_core.Plan.t ->
  net:Tiles_mpisim.Netmodel.t ->
  observed:(string * float) list ->
  Tiles_obs.Residual.entry list
(** One {!Tiles_obs.Residual} entry per field of [observed] (keyed
    [completion_s], [speedup]) and per estimator — {!predict}
    (source [predictor.predict]) and the {!Tiles_runtime.Model} (source
    [model]), in that order — labelled [label]. *)
