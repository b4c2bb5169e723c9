(** Post-mortem analysis of traced simulations. *)

val aggregate : Sim.stats -> Tiles_obs.Stats.t
(** The backend-neutral aggregate record (busy fractions, comm/compute
    ratio, message counters) for a simulated run — directly comparable
    with the one reported by {!Tiles_runtime.Shm_executor}. *)
