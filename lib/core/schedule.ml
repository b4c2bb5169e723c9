module Vec = Tiles_util.Vec
module Polyhedron = Tiles_poly.Polyhedron

let step_range (plan : Plan.t) =
  (* min / max of Π·j^S over candidate tiles, read off the mapping: a
     chain's range is exact (its innermost level is the unprojected
     system), so the rank of pid p spans steps Σp + lo .. Σp + hi *)
  let mp = plan.Plan.mapping in
  if Mapping.nprocs mp = 0 then
    invalid_arg "Schedule.step_range: empty tile space";
  let lo = ref max_int and hi = ref min_int in
  Array.iteri
    (fun rank pid ->
      let s = Vec.sum pid and tlo, thi = Mapping.chain mp rank in
      lo := min !lo (s + tlo);
      hi := max !hi (s + thi))
    mp.Mapping.pids;
  (!lo, !hi)

let steps p =
  let lo, hi = step_range p in
  hi - lo + 1

(* linear-schedule step of the lexicographic extreme point of J^n,
   [pick] selecting the lower or upper projection bound per variable *)
let extreme_point_step (plan : Plan.t) ~pick =
  let space = plan.Plan.nest.Tiles_loop.Nest.space in
  let n = Polyhedron.dim space in
  let proj = Polyhedron.projection space in
  let j = Array.make n 0 in
  for k = 0 to n - 1 do
    match Tiles_poly.Fourier_motzkin.bounds proj ~var:k ~prefix:j with
    | Some (lo, hi) -> j.(k) <- pick lo hi
    | None -> invalid_arg "Schedule.extreme_point_step: empty space"
  done;
  Vec.sum (Tiling.tile_of plan.Plan.tiling j)

let last_point_step plan = extreme_point_step plan ~pick:(fun _ hi -> hi)
let first_point_step plan = extreme_point_step plan ~pick:(fun lo _ -> lo)

let effective_steps plan =
  last_point_step plan - first_point_step plan + 1
