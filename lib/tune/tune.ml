module Json = Tiles_util.Json
module Polyhedron = Tiles_poly.Polyhedron
module Nest = Tiles_loop.Nest
module Plan = Tiles_core.Plan
module Tiling = Tiles_core.Tiling
module Kernel = Tiles_runtime.Kernel
module Netmodel = Tiles_mpisim.Netmodel
module Run_spec = Tiles_apps.Run_spec

type backend = Run_spec.backend = Sim | Shm

type options = {
  procs : int;
  factors : int list;
  top_k : int;
  workers : int;
  cache_dir : string option;
  overlap : bool;
  backend : backend;
  mapping_dims : int list option;
}

let default_options =
  {
    procs = 16;
    factors = [ 2; 4; 6; 8; 10; 16; 25 ];
    top_k = 12;
    workers = max 1 (min 8 (Domain.recommended_domain_count ()));
    cache_dir = None;
    overlap = false;
    backend = Sim;
    mapping_dims = None;
  }

type scored = {
  cand : Candidate.t;
  nprocs : int;
  tile_size : int;
  predicted : Predictor.estimate;
  score : Cache.score option;
  from_cache : bool;
}

type result = {
  best : scored;
  simulated : scored list;
  pruned : scored list;
  generated : int;
  feasible : int;
  cache_hits : int;
}

let plan_of ~nest cand = Plan.make ~m:cand.Candidate.m nest (Candidate.tiling cand)

(* evaluate [plans] across [workers] domains; the simulator state is
   per-run and all cross-candidate shared structures (the nest-space
   projection memo) are forced before spawning. Each shm evaluation runs
   its ranks on a pool as large as the host's cores, so shm is
   serialized: parallel evals would oversubscribe the cores being
   measured. *)
let evaluate_parallel ~workers ~kernel ~net ~overlap ~backend plans =
  let plans = Array.of_list plans in
  let out = Array.make (Array.length plans) None in
  let eval i =
    (* the spec's naming fields only label metadata, unused here *)
    let r =
      Run_spec.run ~mode:Run_spec.Timing
        { (Run_spec.default "") with backend; overlap; net }
        ~plan:plans.(i) ~kernel
    in
    out.(i) <-
      Some
        {
          Cache.completion = r.completion;
          speedup = r.speedup;
          messages = r.messages;
          bytes = r.bytes;
          points_computed = r.points;
          tiles_executed = r.tiles;
        }
  in
  let workers = match backend with Sim -> workers | Shm -> 1 in
  let nw = max 1 (min workers (Array.length plans)) in
  if nw = 1 then Array.iteri (fun i _ -> eval i) plans
  else begin
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < Array.length plans && Atomic.get failure = None then begin
          (try eval i
           with e -> Atomic.compare_and_set failure None (Some e) |> ignore);
          loop ()
        end
      in
      loop ()
    in
    let domains = List.init nw (fun _ -> Domain.spawn worker) in
    List.iter Domain.join domains;
    match Atomic.get failure with Some e -> raise e | None -> ()
  end;
  Array.to_list
    (Array.map
       (function
         | Some s -> s
         | None -> failwith "Tune.evaluate_parallel: job skipped")
       out)

let unscored (cand, _, predicted, nprocs, tile_size) =
  { cand; nprocs; tile_size; predicted; score = None; from_cache = false }

(* score [jobs] on [backend], each from the cache when it holds it, and
   pair each job with its scored form, best completion first; the stable
   sort breaks ties in [jobs]' order whether a score was a cache hit or a
   fresh run *)
let score_all ~options ~cache ~nest ~kernel ~net ~backend jobs =
  let looked =
    List.map
      (fun ((cand, plan, _, _, _) as job) ->
        let slot =
          Option.map
            (fun c ->
              ( c,
                Cache.key ~nest ~tiling:plan.Plan.tiling ~m:cand.Candidate.m
                  ~kernel ~net ~overlap:options.overlap
                  ~backend:(Run_spec.backend_to_string backend) ))
            cache
        in
        (job, slot, Option.bind slot (fun (c, k) -> Cache.find c k)))
      jobs
  in
  let fresh =
    evaluate_parallel ~workers:options.workers ~kernel ~net
      ~overlap:options.overlap ~backend
      (List.filter_map
         (fun ((_, plan, _, _, _), _, hit) ->
           if hit = None then Some plan else None)
         looked)
  in
  List.fold_left_map
    (fun fresh (job, slot, hit) ->
      match (hit, fresh) with
      | Some score, _ -> (fresh, (job, score, true))
      | None, score :: fresh ->
        Option.iter (fun (c, k) -> Cache.store c k score) slot;
        (fresh, (job, score, false))
      | None, [] -> failwith "Tune.score_all: missing score")
    fresh looked
  |> snd
  |> List.stable_sort (fun (_, a, _) (_, b, _) ->
         compare a.Cache.completion b.Cache.completion)
  |> List.map (fun (job, score, from_cache) ->
         (job, { (unscored job) with score = Some score; from_cache }))

let search ?(options = default_options) ~nest ~kernel ~net () =
  let cands =
    Candidate.generate ~nest ~procs:options.procs ~factors:options.factors
      ?mapping_dims:options.mapping_dims ()
  in
  let generated = List.length cands in
  let width = kernel.Kernel.width in
  let feasible =
    List.filter_map
      (fun cand ->
        match
          let plan = plan_of ~nest cand in
          let predicted = Predictor.predict ~width plan ~net in
          ( cand,
            plan,
            predicted,
            Plan.nprocs plan,
            Tiling.tile_size plan.Plan.tiling )
        with
        | x -> Some x
        | exception (Invalid_argument _ | Failure _ | Division_by_zero) -> None)
      cands
  in
  let ranked =
    List.sort
      (fun (_, _, a, _, _) (_, _, b, _, _) ->
        compare a.Predictor.total b.Predictor.total)
      feasible
  in
  let rec split k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> split (k - 1) (x :: acc) rest
  in
  let shortlist, tail = split (max 1 (3 * options.top_k)) [] ranked in
  (* force the shared nest-space projection memo before domains race on it *)
  ignore (Polyhedron.count_points nest.Nest.space);
  let cache = Option.map Cache.open_dir options.cache_dir in
  let score_all = score_all ~options ~cache ~nest ~kernel ~net in
  (* the DES ranks the whole shortlist; on shm only its best [top_k] are
     then run for real *)
  let by_sim = score_all ~backend:Sim shortlist in
  let simulated, pruned =
    match options.backend with
    | Sim -> (List.map snd by_sim, tail)
    | Shm ->
      let measured, rest = split (max 1 options.top_k) [] by_sim in
      ( List.map snd (score_all ~backend:Shm (List.map fst measured)),
        List.map fst rest @ tail )
  in
  let pruned = List.map unscored pruned in
  match simulated with
  | [] -> failwith "Tune.search: no feasible candidate"
  | best :: _ ->
    {
      best;
      simulated;
      pruned;
      generated;
      feasible = List.length feasible;
      cache_hits = List.length (List.filter (fun s -> s.from_cache) simulated);
    }

(* ---------------- JSON rendering ---------------- *)

let estimate_json (e : Predictor.estimate) =
  Json.Obj
    [
      ("steps", Json.Int e.Predictor.steps);
      ("chain", Json.Int e.Predictor.chain);
      ("fill", Json.Int e.Predictor.fill);
      ("tile_compute_s", Json.Float e.Predictor.tile_compute);
      ("comm_cpu_s", Json.Float e.Predictor.comm_cpu);
      ("comm_wire_s", Json.Float e.Predictor.comm_wire);
      ("total_s", Json.Float e.Predictor.total);
      ("speedup", Json.Float e.Predictor.predicted_speedup);
    ]

let score_json (s : Cache.score) =
  Json.Obj
    [
      ("completion_s", Json.Float s.Cache.completion);
      ("speedup", Json.Float s.Cache.speedup);
      ("messages", Json.Int s.Cache.messages);
      ("bytes", Json.Int s.Cache.bytes);
      ("points", Json.Int s.Cache.points_computed);
      ("tiles", Json.Int s.Cache.tiles_executed);
    ]

let scored_json s =
  let c = s.cand in
  Json.Obj
    [
      ("label", Json.Str (Candidate.label c));
      ("shape", Json.Str c.Candidate.shape);
      ( "rows",
        Json.List
          (List.map
             (fun r -> Json.List (List.map (fun x -> Json.Int x) (Array.to_list r)))
             c.Candidate.rows) );
      ( "factors",
        Json.List
          (List.map (fun x -> Json.Int x) (Array.to_list c.Candidate.factors)) );
      ("m", Json.Int c.Candidate.m);
      ("nprocs", Json.Int s.nprocs);
      ("tile_size", Json.Int s.tile_size);
      ("predicted", estimate_json s.predicted);
      ( "simulated",
        match s.score with Some sc -> score_json sc | None -> Json.Null );
      ("from_cache", Json.Bool s.from_cache);
    ]

let result_json r =
  Json.Obj
    [
      ("best", scored_json r.best);
      ("simulated", Json.List (List.map scored_json r.simulated));
      ("pruned", Json.List (List.map scored_json r.pruned));
      ("generated", Json.Int r.generated);
      ("feasible", Json.Int r.feasible);
      ("cache_hits", Json.Int r.cache_hits);
    ]
