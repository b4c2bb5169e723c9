(** The search loop: generate → predict → prune → simulate → pick.

    Given a loop nest, its kernel, a network model and a processor
    budget, {!search}:

    + enumerates legal candidate tilings ({!Candidate.generate}):
      rectangular and dependence-skewed shape families × mapping
      dimension × processor grid × tile-size sweep;
    + scores every constructible candidate with the fast analytic
      predictor ({!Predictor.predict}) and keeps the [top_k] cheapest;
    + scores the survivors exactly on the chosen backend — the
      discrete-event simulator ({!Tiles_runtime.Executor.run} in [Timing]
      mode), fanned out across OCaml domains, or the real shared-memory
      executor ({!Tiles_runtime.Shm_executor.run}), serialized because
      each measurement already uses every core — memoized in an
      optional on-disk {!Cache} so repeated tunes are incremental;
    + returns everything, best candidate first.

    The paper hand-picks each tiling and observes which wins (§4); this
    module closes that loop — the compiler chooses. *)

type backend = Tiles_apps.Run_spec.backend = Sim | Shm
(** What scores the pruning survivors: the discrete-event simulator
    (virtual time, deterministic) or the real shared-memory executor
    (wall clock, noisy — keep [procs] within the host's cores). *)

type options = {
  procs : int;  (** processor budget (the paper's 16-node cluster) *)
  factors : int list;  (** mapping-dimension tile-factor sweep *)
  top_k : int;  (** candidates surviving predictor pruning *)
  workers : int;  (** domains for parallel simulator evaluation;
                      forced to 1 on the [Shm] backend *)
  cache_dir : string option;  (** [None] disables the on-disk memo *)
  overlap : bool;  (** §5 overlapped schedule (both backends) *)
  backend : backend;  (** what scores the survivors *)
  mapping_dims : int list option;  (** restrict searched [m] (default all) *)
}

val default_options : options
(** 16 processors, factors [2,4,6,8,10,16,25], top 12, as many workers as
    recommended domains (capped at 8), no cache, blocking sends, [Sim]
    backend, all mapping dimensions. *)

type scored = {
  cand : Candidate.t;
  nprocs : int;
  tile_size : int;
  predicted : Predictor.estimate;
  score : Cache.score option;  (** [None] iff predictor-pruned *)
  from_cache : bool;
}

type result = {
  best : scored;
  simulated : scored list;  (** survivors, best completion first *)
  pruned : scored list;     (** predictor-only, cheapest first *)
  generated : int;  (** raw candidates *)
  feasible : int;   (** candidates whose plan constructed *)
  cache_hits : int;
}

val search :
  ?options:options ->
  nest:Tiles_loop.Nest.t ->
  kernel:Tiles_runtime.Kernel.t ->
  net:Tiles_mpisim.Netmodel.t ->
  unit ->
  result
(** Raises [Failure] if no candidate survives to simulation. *)

val plan_of : nest:Tiles_loop.Nest.t -> Candidate.t -> Tiles_core.Plan.t
(** Rebuild the winning plan (daily use: feed it to the code
    generators). *)

val result_json : result -> Tiles_util.Json.t
(** The full result as JSON — schema documented in the README under
    [tilec tune]. *)
