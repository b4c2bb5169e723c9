module Mapping = Tiles_core.Mapping
module Plan = Tiles_core.Plan
module Sim = Tiles_mpisim.Sim
module Netmodel = Tiles_mpisim.Netmodel

type mode = Full | Timing

type result = {
  stats : Sim.stats;
  seq_modelled : float;
  speedup : float;
  grid : Grid.t option;
  points_computed : int;
  tiles_executed : int;
  walker_fallback : string option;
}

let run ?walker ?check ?(mode = Full) ?(overlap = false) ?recorder ~plan
    ~kernel ~net () =
  let pmode = match mode with Full -> Protocol.Full | Timing -> Protocol.Timing in
  let shared =
    Protocol.prepare ?walker ?check ~mode:pmode ~plan ~kernel
      ~flop_time:net.Netmodel.flop_time ~pack_time:net.Netmodel.pack_time ()
  in
  let stats =
    Sim.run ?recorder ~overlap
      ~nprocs:(Mapping.nprocs plan.Plan.mapping)
      ~net
      (Protocol.rank_program ~overlap shared)
  in
  let seq_modelled =
    float_of_int (Plan.total_iterations plan) *. net.Netmodel.flop_time
  in
  {
    stats;
    seq_modelled;
    speedup = seq_modelled /. stats.Sim.completion;
    grid = shared.Protocol.grid;
    points_computed = Array.fold_left ( + ) 0 shared.Protocol.points_per_rank;
    tiles_executed = Array.fold_left ( + ) 0 shared.Protocol.tiles_per_rank;
    walker_fallback = shared.Protocol.fallback;
  }
