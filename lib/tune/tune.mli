(** The search loop: generate → predict → prune → simulate → pick.

    Given a loop nest, its kernel, a network model and a processor
    budget, {!search}:

    + enumerates legal candidate tilings ({!Candidate.generate}):
      rectangular and dependence-skewed shape families × mapping
      dimension × processor grid × tile-size sweep;
    + scores every constructible candidate with the fast analytic
      predictor ({!Predictor.predict}) and keeps the [3 × top_k]
      cheapest as a shortlist;
    + scores the whole shortlist exactly with the discrete-event
      simulator ({!Tiles_runtime.Executor.run} in [Timing] mode), fanned
      out across OCaml domains;
    + on the [Shm] backend, runs the simulator's [top_k] best for real
      on the shared-memory executor ({!Tiles_runtime.Shm_executor.run}),
      serialized because each measurement already uses every core;
    + memoizes every score in an optional on-disk {!Cache}, keyed by
      backend, so repeated tunes are incremental, and returns
      everything, best candidate first.

    The paper hand-picks each tiling and observes which wins (§4); this
    module closes that loop — the compiler chooses. *)

type backend = Tiles_apps.Run_spec.backend = Sim | Shm
(** What scores the final candidates: the discrete-event simulator
    (virtual time, deterministic) or the real shared-memory executor
    (wall clock, noisy — keep [procs] within the host's cores). *)

type options = {
  procs : int;  (** processor budget (the paper's 16-node cluster) *)
  factors : int list;  (** mapping-dimension tile-factor sweep *)
  top_k : int;
      (** the predictor's [3 × top_k] best are simulated; on [Shm] the
          simulator's [top_k] best are then measured *)
  workers : int;  (** domains for parallel simulator evaluation;
                      shm measurements always run one at a time *)
  cache_dir : string option;  (** [None] disables the on-disk memo *)
  overlap : bool;  (** §5 overlapped schedule (both backends) *)
  backend : backend;  (** what scores the final candidates *)
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
  score : Cache.score option;  (** [None] iff pruned *)
  from_cache : bool;
}

type result = {
  best : scored;
  simulated : scored list;
      (** scored on the chosen backend, best completion first *)
  pruned : scored list;
      (** unscored: on [Shm] the rest of the shortlist, simulator's best
          first; then the predictor's tail, cheapest first *)
  generated : int;  (** raw candidates *)
  feasible : int;   (** candidates whose plan constructed *)
  cache_hits : int;  (** members of [simulated] served from the cache *)
}

val search :
  ?options:options ->
  nest:Tiles_loop.Nest.t ->
  kernel:Tiles_runtime.Kernel.t ->
  net:Tiles_mpisim.Netmodel.t ->
  unit ->
  result
(** Raises [Failure] if no candidate is feasible. *)

val plan_of : nest:Tiles_loop.Nest.t -> Candidate.t -> Tiles_core.Plan.t
(** Rebuild the winning plan (daily use: feed it to the code
    generators). *)

val result_json : result -> Tiles_util.Json.t
(** The full result as JSON — schema documented in the README under
    [tilec tune]. *)
