module Netmodel = Tiles_mpisim.Netmodel
module Polyhedron = Tiles_poly.Polyhedron
module Plan = Tiles_core.Plan
module Tiling = Tiles_core.Tiling
module Comm = Tiles_core.Comm
module Mapping = Tiles_core.Mapping
module Schedule = Tiles_core.Schedule
module Model = Tiles_runtime.Model

type estimate = {
  steps : int;
  chain : int;
  fill : int;
  tile_compute : float;
  comm_cpu : float;
  comm_wire : float;
  total : float;
  predicted_speedup : float;
}

let predict ?(width = 1) (plan : Plan.t) ~net =
  let tile_points = float_of_int (Tiling.tile_size plan.Plan.tiling) in
  let tile_compute = tile_points *. net.Netmodel.flop_time in
  let w = float_of_int width in
  let cells = float_of_int (Model.slab_cells plan) *. w in
  let bytes = cells *. 8. in
  let nmsg = float_of_int (List.length plan.Plan.comm.Comm.dm) in
  (* the CPU stays busy for pack/unpack and the send/recv overheads on
     every step; wire latency and transfer time overlap with downstream
     compute in the self-timed steady state and only sit on the critical
     path while the pipeline fills and drains *)
  let comm_cpu =
    (2. *. cells *. net.Netmodel.pack_time)
    +. (nmsg *. (net.Netmodel.send_overhead +. net.Netmodel.recv_overhead))
  in
  let comm_wire =
    (nmsg *. net.Netmodel.latency) +. (bytes /. net.Netmodel.bandwidth)
  in
  (* schedule skeleton: effective steps, longest chain, fill + drain *)
  let chain =
    Array.fold_left
      (fun acc (lo, hi) -> max acc (hi - lo + 1))
      0 plan.Plan.mapping.Mapping.chains
  in
  let steps = max (Schedule.effective_steps plan) chain in
  let fill = steps - chain in
  let total =
    (float_of_int steps *. (tile_compute +. comm_cpu))
    +. (float_of_int fill *. comm_wire)
  in
  let seq =
    float_of_int (Polyhedron.count_points plan.Plan.nest.Tiles_loop.Nest.space)
    *. net.Netmodel.flop_time
  in
  {
    steps;
    chain;
    fill;
    tile_compute;
    comm_cpu;
    comm_wire;
    total;
    predicted_speedup = seq /. total;
  }

let fields e =
  [ ("completion_s", e.total); ("speedup", e.predicted_speedup) ]

let residuals ~label ~width plan ~net ~observed =
  let entries source fields =
    List.filter_map
      (fun (field, predicted) ->
        Option.map
          (fun observed ->
            { Tiles_obs.Residual.label; source; field; predicted; observed })
          (List.assoc_opt field observed))
      fields
  in
  entries "predictor.predict" (fields (predict ~width plan ~net))
  @ entries "model" (Model.fields (Model.predict plan ~net))
