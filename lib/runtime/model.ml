module Netmodel = Tiles_mpisim.Netmodel
module Polyhedron = Tiles_poly.Polyhedron
module Plan = Tiles_core.Plan
module Tiling = Tiles_core.Tiling
module Ttis = Tiles_core.Ttis
module Comm = Tiles_core.Comm
module Schedule = Tiles_core.Schedule

type estimate = {
  steps : int;
  tile_compute : float;
  comm_per_step : float;
  total : float;
  predicted_speedup : float;
}

let slab_cells (plan : Tiles_core.Plan.t) =
  let comm = plan.Plan.comm in
  List.fold_left
    (fun acc (dm, _) ->
      acc + Ttis.count_from plan.Plan.tiling ~lo:(Comm.slab_lo comm ~dm))
    0 comm.Comm.dm

let predict (plan : Tiles_core.Plan.t) ~net =
  let tile_points = float_of_int (Tiling.tile_size plan.Plan.tiling) in
  let tile_compute = tile_points *. net.Netmodel.flop_time in
  let cells = float_of_int (slab_cells plan) in
  let width =
    (* kernels may carry several fields; the model is used for ranking so
       a single field is assumed — callers with width > 1 can scale *)
    1.
  in
  let bytes = cells *. width *. 8. in
  let nmsg = float_of_int (List.length plan.Plan.comm.Comm.dm) in
  let comm_per_step =
    (* pack + unpack CPU, plus per-message overheads, plus wire *)
    (2. *. cells *. width *. net.Netmodel.pack_time)
    +. (nmsg
        *. (net.Netmodel.send_overhead +. net.Netmodel.recv_overhead
          +. net.Netmodel.latency))
    +. (bytes /. net.Netmodel.bandwidth)
  in
  let steps = Schedule.steps plan in
  let total = float_of_int steps *. (tile_compute +. comm_per_step) in
  let seq =
    float_of_int (Polyhedron.count_points plan.Plan.nest.Tiles_loop.Nest.space)
    *. net.Netmodel.flop_time
  in
  {
    steps;
    tile_compute;
    comm_per_step;
    total;
    predicted_speedup = seq /. total;
  }

let fields e =
  [ ("completion_s", e.total); ("speedup", e.predicted_speedup) ]

let best_factor mk ~factors ~net =
  let candidates =
    List.filter_map
      (fun f ->
        match mk f with
        | plan -> Some (f, predict plan ~net)
        | exception (Invalid_argument _ | Failure _) -> None)
      factors
  in
  match candidates with
  | [] -> failwith "Model.best_factor: no feasible factor"
  | first :: rest ->
    List.fold_left
      (fun ((_, eb) as best) ((_, e) as cand) ->
        if e.total < eb.total then cand else best)
      first rest
