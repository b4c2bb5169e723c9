module Vec = Tiles_util.Vec
module Polyhedron = Tiles_poly.Polyhedron

let step_range (plan : Plan.t) =
  (* min / max of Π·j^S over candidate tiles: a 1-variable FM projection of
     the tile polyhedron along the diagonal would do, but the candidate
     sets are small; fold over them. *)
  let tiles = Tile_space.candidates plan.Plan.tspace in
  match tiles with
  | [] -> invalid_arg "Schedule.step_range: empty tile space"
  | first :: rest ->
    List.fold_left
      (fun (lo, hi) s ->
        let v = Vec.sum s in
        (min lo v, max hi v))
      (Vec.sum first, Vec.sum first)
      rest

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
