let aggregate (stats : Sim.stats) =
  let nprocs = Array.length stats.Sim.rank_clocks in
  (* with message edges available, the causal critical path through the
     event DAG replaces the busy-time proxy *)
  let critical_path =
    if stats.Sim.edges = [] || stats.Sim.trace = [] then 0.
    else
      let report =
        Tiles_obs.Critpath.analyze ~completion:stats.Sim.completion ~nprocs
          ~edges:stats.Sim.edges stats.Sim.trace
      in
      report.Tiles_obs.Critpath.path_length
  in
  Tiles_obs.Stats.make ~completion:stats.Sim.completion ~nprocs
    ~messages:stats.Sim.messages ~bytes:stats.Sim.bytes
    ~max_inflight_bytes:stats.Sim.max_inflight_bytes
    ~rank_messages:stats.Sim.rank_messages ~rank_bytes:stats.Sim.rank_bytes
    ~critical_path ~queue_seconds:stats.Sim.queue_seconds stats.Sim.trace
