module Polyhedron = Tiles_poly.Polyhedron
module Nest = Tiles_loop.Nest
module Tiling = Tiles_core.Tiling
module Tile_space = Tiles_core.Tile_space
module Mapping = Tiles_core.Mapping
module Plan = Tiles_core.Plan
module Schedule = Tiles_core.Schedule
module Kernel = Tiles_runtime.Kernel

type spec = {
  name : string;
  space_label : string;
  nest : Nest.t;
  kernel : Kernel.t;
  m : int;
  variants : (string * (int -> Tiling.t)) list;
  factors : int list;
  procs : int;
}

type run = {
  variant : string;
  factor : int;
  nprocs : int;
  tile_size : int;
  steps : int;
  completion : float;
  speedup : float;
  messages : int;
  bytes : int;
}

(* Number of processes a candidate grid factor yields, or None if some
   variant cannot even be constructed with it (stride divisibility). *)
let procs_for nest m tilings =
  match
    List.map
      (fun mk ->
        let tiling = mk () in
        let ts = Tile_space.make nest.Nest.space tiling in
        Mapping.nprocs (Mapping.make ~m ts))
      tilings
  with
  | counts -> (
    match counts with
    | [] -> None
    | first :: rest -> if List.for_all (( = ) first) rest then Some first else None)
  | exception Invalid_argument _ -> None
  | exception Failure _ -> None

(* Search grid factor g around g0 for an exact process-count hit;
   otherwise the closest not exceeding the target. *)
let search_grid ~nest ~m ~target ~g0 ~build =
  let candidates =
    List.filter (fun g -> g >= 1) (List.init 16 (fun i -> g0 - 6 + i))
  in
  let scored =
    List.filter_map
      (fun g ->
        match procs_for nest m (build g) with
        | Some p -> Some (g, p)
        | None -> None)
      candidates
  in
  let exact = List.filter (fun (_, p) -> p = target) scored in
  match exact with
  | (g, p) :: _ -> (g, p)
  | [] -> (
    (* closest below target, then closest overall *)
    let below = List.filter (fun (_, p) -> p <= target) scored in
    let best lst =
      List.fold_left
        (fun acc ((_, p) as cand) ->
          match acc with
          | None -> Some cand
          | Some (_, pb) -> if abs (target - p) < abs (target - pb) then Some cand else acc)
        None lst
    in
    match best (if below = [] then scored else below) with
    | Some (g, p) -> (g, p)
    | None ->
      failwith "Experiment.search_grid: no feasible grid factor found")

let dim_width nest k =
  let bbox = Polyhedron.bounding_box nest.Nest.space in
  let lo, hi = bbox.(k) in
  hi - lo + 1

let default_factors = [ 2; 4; 6; 10; 16; 25; 40 ]

let sor ?(procs = 16) ?(factors = default_factors) ~m_steps ~size () =
  let p = Sor.make ~m_steps ~size in
  let nest = Sor.nest p in
  let kernel = Sor.kernel p in
  let m = Sor.mapping_dim in
  (* a 2 × (procs/2) processor grid: two tile blocks along t', and the
     skewed i' dimension split so the total pid count hits [procs]. A flat
     1 × procs grid also works but pipelines poorly (each tile spans the
     whole time dimension), hiding the schedule effect under fill time. *)
  let rows = if procs >= 4 then 2 else 1 in
  let x = max 1 (m_steps / rows) in
  let g0 = Tiles_util.Ints.cdiv (dim_width nest 1) (procs / rows) in
  let z0 = List.hd factors in
  let build g =
    List.map (fun (_, mk) () -> mk ~x ~y:g ~z:z0) Sor.variants
  in
  let y, achieved = search_grid ~nest ~m ~target:procs ~g0 ~build in
  {
    name = "sor";
    space_label = Printf.sprintf "M=%d N=%d" m_steps size;
    nest;
    kernel;
    m;
    variants = List.map (fun (nm, mk) -> (nm, fun z -> mk ~x ~y ~z)) Sor.variants;
    factors;
    procs = achieved;
  }

let square_grid_spec ~name ~space_label ~nest ~kernel ~m ~variants ~factors
    ~procs ~per_dim_width =
  let side = int_of_float (Float.round (sqrt (float_of_int procs))) in
  let g0 = Tiles_util.Ints.cdiv per_dim_width side in
  let x0 = List.hd factors in
  let build g = List.map (fun (_, mk) () -> mk ~x:x0 ~y:g ~z:g) variants in
  let g, achieved = search_grid ~nest ~m ~target:procs ~g0 ~build in
  {
    name;
    space_label;
    nest;
    kernel;
    m;
    variants = List.map (fun (nm, mk) -> (nm, fun x -> mk ~x ~y:g ~z:g)) variants;
    factors;
    procs = achieved;
  }

let jacobi ?(procs = 16) ?(factors = default_factors) ~t_steps ~size () =
  let p = Jacobi.make ~t_steps ~size in
  let nest = Jacobi.nest p in
  square_grid_spec ~name:"jacobi"
    ~space_label:(Printf.sprintf "T=%d I=J=%d" t_steps size)
    ~nest ~kernel:(Jacobi.kernel p) ~m:Jacobi.mapping_dim
    ~variants:Jacobi.variants ~factors ~procs
    ~per_dim_width:(dim_width nest 1)

let adi ?(procs = 16) ?(factors = default_factors) ~t_steps ~size () =
  let p = Adi.make ~t_steps ~size in
  let nest = Adi.nest p in
  square_grid_spec ~name:"adi"
    ~space_label:(Printf.sprintf "T=%d N=%d" t_steps size)
    ~nest ~kernel:(Adi.kernel p) ~m:Adi.mapping_dim ~variants:Adi.variants
    ~factors ~procs ~per_dim_width:(dim_width nest 1)

let run_one spec ~net ~variant ~factor =
  let mk =
    match List.assoc_opt variant spec.variants with
    | Some mk -> mk
    | None -> invalid_arg "Experiment.run_one: unknown variant"
  in
  let tiling = mk factor in
  let plan = Plan.make ~m:spec.m spec.nest tiling in
  let r =
    Run_spec.run ~mode:Run_spec.Timing
      { (Run_spec.default spec.name) with net }
      ~plan ~kernel:spec.kernel
  in
  {
    variant;
    factor;
    nprocs = Plan.nprocs plan;
    tile_size = Tiling.tile_size tiling;
    steps = Schedule.steps plan;
    completion = r.Run_spec.completion;
    speedup = r.Run_spec.speedup;
    messages = r.Run_spec.messages;
    bytes = r.Run_spec.bytes;
  }

let sweep spec ~net =
  List.concat_map
    (fun factor ->
      List.filter_map
        (fun (variant, _) ->
          match run_one spec ~net ~variant ~factor with
          | r -> Some r
          | exception Invalid_argument _ ->
            (* this factor is infeasible for this variant (tile too small
               for the dependencies, or stride divisibility) *)
            None)
        spec.variants)
    spec.factors

let best_by_variant runs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun r ->
      match Hashtbl.find_opt tbl r.variant with
      | Some best when best.speedup >= r.speedup -> ()
      | _ -> Hashtbl.replace tbl r.variant r)
    runs;
  Hashtbl.fold (fun v r acc -> (v, r) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let improvement_pct runs =
  (* pair rect and the best non-rect run at each factor *)
  let factors = List.sort_uniq compare (List.map (fun r -> r.factor) runs) in
  let pcts =
    List.filter_map
      (fun f ->
        let at_f = List.filter (fun r -> r.factor = f) runs in
        let rect = List.find_opt (fun r -> r.variant = "rect") at_f in
        let non_rect =
          List.filter (fun r -> r.variant <> "rect") at_f
          |> List.fold_left
               (fun acc r ->
                 match acc with
                 | Some b when b.speedup >= r.speedup -> acc
                 | _ -> Some r)
               None
        in
        match (rect, non_rect) with
        | Some r, Some nr -> Some (100. *. (nr.speedup -. r.speedup) /. r.speedup)
        | _ -> None)
      factors
  in
  match pcts with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. pcts /. float_of_int (List.length pcts)
