(* Tests for the autotuning subsystem (lib/tune): candidate generation
   legality, predictor accuracy bounds, the search loop's acceptance
   criteria on the fig6 SOR configuration, and the on-disk cache. *)

module Nest = Tiles_loop.Nest
module Tiling = Tiles_core.Tiling
module Plan = Tiles_core.Plan
module Netmodel = Tiles_mpisim.Netmodel
module Sim = Tiles_mpisim.Sim
module Executor = Tiles_runtime.Executor
module Kernel = Tiles_runtime.Kernel
module Candidate = Tiles_tune.Candidate
module Predictor = Tiles_tune.Predictor
module Cache = Tiles_tune.Cache
module Tune = Tiles_tune.Tune

let net = Netmodel.fast_ethernet_cluster

(* ---------------- candidate generation ---------------- *)

(* some swept factor combinations do not construct (non-integer P);
   the search loop filters those — but every candidate that does
   construct must be legal for the nest's dependences *)
let check_all_legal name nest ~procs ~factors =
  let cands = Candidate.generate ~nest ~procs ~factors () in
  Alcotest.(check bool) (name ^ ": generates candidates") true (cands <> []);
  let constructed = ref 0 in
  List.iter
    (fun c ->
      match Candidate.tiling c with
      | tiling ->
        incr constructed;
        if not (Tiling.legal_for tiling nest.Nest.deps) then
          Alcotest.failf "%s: illegal candidate %s" name (Candidate.label c)
      | exception (Invalid_argument _ | Failure _) -> ())
    cands;
  Alcotest.(check bool)
    (name ^ ": some candidate constructs")
    true (!constructed > 0)

let test_candidates_legal_sor () =
  let p = Tiles_apps.Sor.make ~m_steps:12 ~size:24 in
  check_all_legal "sor" (Tiles_apps.Sor.nest p) ~procs:4 ~factors:[ 2; 3 ]

let test_candidates_legal_jacobi () =
  let p = Tiles_apps.Jacobi.make ~t_steps:8 ~size:12 in
  check_all_legal "jacobi" (Tiles_apps.Jacobi.nest p) ~procs:4 ~factors:[ 2; 3 ]

let test_candidates_legal_adi () =
  let p = Tiles_apps.Adi.make ~t_steps:8 ~size:12 in
  check_all_legal "adi" (Tiles_apps.Adi.nest p) ~procs:4 ~factors:[ 2; 3 ]

let test_candidates_respect_budget () =
  let p = Tiles_apps.Sor.make ~m_steps:12 ~size:24 in
  let nest = Tiles_apps.Sor.nest p in
  List.iter
    (fun c ->
      match Plan.make ~m:c.Candidate.m nest (Candidate.tiling c) with
      | plan ->
        let np = Plan.nprocs plan in
        if np > 4 then
          Alcotest.failf "candidate %s uses %d > 4 processors"
            (Candidate.label c) np
      | exception (Invalid_argument _ | Failure _) -> ())
    (Candidate.generate ~nest ~procs:4 ~factors:[ 2; 3 ] ())

(* ---------------- predictor vs simulator ---------------- *)

(* the predictor exists to rank candidates, not to hit the clock
   exactly; bound its error by a generous constant factor *)
let check_bounded name plan ~kernel =
  let r = Executor.run ~mode:Executor.Timing ~plan ~kernel ~net () in
  let sim = r.Executor.stats.Sim.completion in
  let est = Predictor.predict ~width:kernel.Kernel.width plan ~net in
  let ratio = est.Predictor.total /. sim in
  if ratio < 0.2 || ratio > 5.0 then
    Alcotest.failf "%s: predictor off by %.2fx (%.5fs vs %.5fs)" name ratio
      est.Predictor.total sim

let test_predictor_bounded_sor () =
  let p = Tiles_apps.Sor.make ~m_steps:40 ~size:60 in
  let nest = Tiles_apps.Sor.nest p in
  let kernel = Tiles_apps.Sor.kernel p in
  check_bounded "sor-rect"
    (Plan.make ~m:2 nest (Tiles_apps.Sor.rect ~x:20 ~y:15 ~z:4))
    ~kernel;
  check_bounded "sor-nonrect"
    (Plan.make ~m:2 nest (Tiles_apps.Sor.nonrect ~x:20 ~y:15 ~z:4))
    ~kernel

(* Planning cost, pinned by counts rather than time: without FM's
   redundancy pruning this Jacobi cone-family tile polyhedron has 118
   constraints, and every tune that meets it pays for them ~54 times. *)
let test_jacobi_cone_tile_space_compact () =
  let p = Tiles_apps.Jacobi.make ~t_steps:4 ~size:6 in
  let nest = Tiles_apps.Jacobi.nest p in
  let cand =
    {
      Candidate.shape = "cone";
      rows = [ [| 3; -1; -1 |]; [| 1; 1; -1 |]; [| 1; -1; 1 |] ];
      factors = [| 12; 20; 2 |];
      m = 2;
    }
  in
  let ts = Tiles_core.Tile_space.make nest.Nest.space (Candidate.tiling cand) in
  let n =
    List.length (Tiles_poly.Polyhedron.constraints ts.Tiles_core.Tile_space.poly)
  in
  if n > 40 then Alcotest.failf "tile polyhedron has %d constraints (> 40)" n

let test_jacobi_tune_pinned () =
  let p = Tiles_apps.Jacobi.make ~t_steps:4 ~size:6 in
  let options =
    {
      Tune.default_options with
      Tune.procs = 2;
      factors = [ 2 ];
      top_k = 3;
      workers = 1;
      cache_dir = None;
    }
  in
  let r =
    Tune.search ~options ~nest:(Tiles_apps.Jacobi.nest p)
      ~kernel:(Tiles_apps.Jacobi.kernel p) ~net ()
  in
  Alcotest.(check int) "generated" 16 r.Tune.generated;
  Alcotest.(check string) "best" "mix1 m=0 f=[2,9,9]"
    (Candidate.label r.Tune.best.Tune.cand)

(* ---------------- byte identity with recorded outputs ---------------- *)

(* Recorded before tile spaces came from one elimination per shape: the
   candidate lists of the seven profiled configurations and the
   benchmark's four tune results (the first four). Planning changes that
   keep every plan must keep these bytes. *)
let fixture name =
  In_channel.with_open_bin (Filename.concat "fixtures" name)
    In_channel.input_all

let test_candidate_labels_recorded () =
  let b = Buffer.create 4096 in
  List.iter
    (fun (p : Profiled.config) ->
      Buffer.add_string b ("# " ^ p.label ^ "\n");
      List.iter
        (fun c -> Buffer.add_string b (Candidate.label c ^ "\n"))
        (Candidate.generate ~nest:p.nest ~procs:p.procs ~factors:p.factors ()))
    Profiled.configs;
  Alcotest.(check string) "candidate-labels.txt"
    (fixture "candidate-labels.txt") (Buffer.contents b)

let test_tune_results_recorded () =
  List.iteri
    (fun i (p : Profiled.config) ->
      if i < 4 then begin
        let options =
          {
            Tune.default_options with
            Tune.procs = p.procs;
            factors = p.factors;
            top_k = 3;
            workers = 1;
            cache_dir = None;
          }
        in
        let r = Tune.search ~options ~nest:p.nest ~kernel:p.kernel ~net () in
        let name = "tune-" ^ p.file ^ ".json" in
        Alcotest.(check string) name (fixture name)
          (Tiles_util.Json.to_string (Tune.result_json r) ^ "\n")
      end)
    Profiled.configs

let test_predictor_bounded_jacobi () =
  let p = Tiles_apps.Jacobi.make ~t_steps:16 ~size:24 in
  let nest = Tiles_apps.Jacobi.nest p in
  let kernel = Tiles_apps.Jacobi.kernel p in
  check_bounded "jacobi-rect"
    (Plan.make ~m:0 nest (Tiles_apps.Jacobi.rect ~x:4 ~y:10 ~z:10))
    ~kernel;
  check_bounded "jacobi-nonrect"
    (Plan.make ~m:0 nest (Tiles_apps.Jacobi.nonrect ~x:4 ~y:10 ~z:10))
    ~kernel

let test_predictor_bounded_adi () =
  let p = Tiles_apps.Adi.make ~t_steps:16 ~size:24 in
  let nest = Tiles_apps.Adi.nest p in
  let kernel = Tiles_apps.Adi.kernel p in
  check_bounded "adi-rect"
    (Plan.make ~m:0 nest (Tiles_apps.Adi.rect ~x:4 ~y:8 ~z:8))
    ~kernel;
  check_bounded "adi-nr3"
    (Plan.make ~m:0 nest (Tiles_apps.Adi.nr3 ~x:4 ~y:8 ~z:8))
    ~kernel

(* ---------------- the search on the fig6 SOR configuration ---------------- *)

let fig6 =
  lazy
    (let p = Tiles_apps.Sor.make ~m_steps:100 ~size:200 in
     let nest = Tiles_apps.Sor.nest p in
     let kernel = Tiles_apps.Sor.kernel p in
     let options =
       {
         Tune.default_options with
         Tune.procs = 16;
         factors = [ 2; 3; 4; 6; 8 ];
         top_k = 8;
       }
     in
     let result = Tune.search ~options ~nest ~kernel ~net () in
     (nest, kernel, result))

let completion_of (s : Tune.scored) =
  match s.Tune.score with
  | Some sc -> sc.Cache.completion
  | None -> Alcotest.fail "scored candidate has no simulator score"

let test_tuner_best_is_legal () =
  let nest, _, r = Lazy.force fig6 in
  let best = r.Tune.best in
  let tiling = Candidate.tiling best.Tune.cand in
  Alcotest.(check bool) "legal" true (Tiling.legal_for tiling nest.Nest.deps);
  let plan = Tune.plan_of ~nest best.Tune.cand in
  Alcotest.(check bool) "within budget" true (Plan.nprocs plan <= 16)

(* acceptance: the tuner must match or beat the best hand-picked fig6
   tiling (nonrect z=4 on the 50×34 grid) under the same nest, net and
   processor budget *)
let test_tuner_beats_hand_picked () =
  let nest, kernel, r = Lazy.force fig6 in
  let hand =
    let plan = Plan.make ~m:2 nest (Tiles_apps.Sor.nonrect ~x:50 ~y:34 ~z:4) in
    Executor.run ~mode:Executor.Timing ~plan ~kernel ~net ()
  in
  let tuned = completion_of r.Tune.best in
  let hand = hand.Executor.stats.Sim.completion in
  if tuned > hand +. 1e-12 then
    Alcotest.failf "tuned %.6fs worse than hand-picked %.6fs" tuned hand

(* the DES's best over every feasible candidate: the exhaustive search
   the tuner's shortlist stands in for *)
let exhaustive_best ~nest ~kernel ~procs ~factors =
  List.filter_map
    (fun c ->
      match Tune.plan_of ~nest c with
      | plan ->
        let r = Executor.run ~mode:Executor.Timing ~plan ~kernel ~net () in
        Some (c, r.Executor.stats.Sim.completion)
      | exception (Invalid_argument _ | Failure _ | Division_by_zero) -> None)
    (Candidate.generate ~nest ~procs ~factors ())
  |> List.fold_left
       (fun best ((_, t) as x) ->
         match best with Some (_, b) when b <= t -> best | _ -> Some x)
       None
  |> Option.get

(* acceptance: the simulator's best candidate over the whole fig6 sweep
   lies inside the 3 × top_k shortlist the predictor hands it *)
let test_exhaustive_best_in_shortlist () =
  let nest, kernel, r = Lazy.force fig6 in
  let best, t =
    exhaustive_best ~nest ~kernel ~procs:16 ~factors:[ 2; 3; 4; 6; 8 ]
  in
  if not (List.exists (fun s -> s.Tune.cand = best) r.Tune.simulated) then
    Alcotest.failf "exhaustive best %s (%.6fs) is outside the shortlist"
      (Candidate.label best) t;
  Alcotest.(check (float 0.)) "tuned best = exhaustive best" t
    (completion_of r.Tune.best)

(* law: on the tune configurations the benchmark runs, the tuner's pick
   is the exhaustive optimum *)
let test_search_finds_exhaustive_best () =
  List.iter
    (fun (name, (nest, kernel), procs, factors) ->
      let options =
        {
          Tune.default_options with
          Tune.procs;
          factors;
          top_k = 3;
          workers = 1;
          cache_dir = None;
        }
      in
      let r = Tune.search ~options ~nest ~kernel ~net () in
      let best, t = exhaustive_best ~nest ~kernel ~procs ~factors in
      Alcotest.(check (float 0.))
        (Printf.sprintf "%s: tuned %s = exhaustive %s" name
           (Candidate.label r.Tune.best.Tune.cand)
           (Candidate.label best))
        t
        (completion_of r.Tune.best))
    [
      ( "sor 10/12",
        (let p = Tiles_apps.Sor.make ~m_steps:10 ~size:12 in
         (Tiles_apps.Sor.nest p, Tiles_apps.Sor.kernel p)),
        4,
        [ 2; 3 ] );
      ( "adi 10/12",
        (let p = Tiles_apps.Adi.make ~t_steps:10 ~size:12 in
         (Tiles_apps.Adi.nest p, Tiles_apps.Adi.kernel p)),
        4,
        [ 2; 3 ] );
      ( "jacobi 4/6",
        (let p = Tiles_apps.Jacobi.make ~t_steps:4 ~size:6 in
         (Tiles_apps.Jacobi.nest p, Tiles_apps.Jacobi.kernel p)),
        2,
        [ 2 ] );
      ( "jacobi 4/7",
        (let p = Tiles_apps.Jacobi.make ~t_steps:4 ~size:7 in
         (Tiles_apps.Jacobi.nest p, Tiles_apps.Jacobi.kernel p)),
        2,
        [ 2 ] );
    ]

let test_simulated_sorted_and_scored () =
  let _, _, r = Lazy.force fig6 in
  Alcotest.(check bool) "nonempty" true (r.Tune.simulated <> []);
  let completions = List.map completion_of r.Tune.simulated in
  Alcotest.(check bool) "sorted by completion" true
    (List.sort compare completions = completions);
  Alcotest.(check bool) "pruned unscored" true
    (List.for_all (fun s -> s.Tune.score = None) r.Tune.pruned);
  Alcotest.(check bool) "counts consistent" true
    (r.Tune.feasible <= r.Tune.generated
    && List.length r.Tune.simulated + List.length r.Tune.pruned
       = r.Tune.feasible)

(* ---------------- on-disk cache ---------------- *)

let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tilec-tune-test-%d" (Unix.getpid ()))
  in
  let cleanup () =
    if Sys.file_exists dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  cleanup ();
  Fun.protect ~finally:cleanup (fun () -> f dir)

let test_cache_hits_identical () =
  with_temp_dir @@ fun dir ->
  let p = Tiles_apps.Adi.make ~t_steps:10 ~size:12 in
  let nest = Tiles_apps.Adi.nest p in
  let kernel = Tiles_apps.Adi.kernel p in
  let options =
    {
      Tune.default_options with
      Tune.procs = 4;
      factors = [ 2; 3 ];
      top_k = 4;
      cache_dir = Some dir;
    }
  in
  let r1 = Tune.search ~options ~nest ~kernel ~net () in
  let r2 = Tune.search ~options ~nest ~kernel ~net () in
  Alcotest.(check int) "first run all misses" 0 r1.Tune.cache_hits;
  Alcotest.(check int) "second run all hits"
    (List.length r2.Tune.simulated)
    r2.Tune.cache_hits;
  Alcotest.(check bool) "second run served from cache" true
    (List.for_all (fun s -> s.Tune.from_cache) r2.Tune.simulated);
  (* bit-identical scores, not merely close *)
  List.iter2
    (fun (a : Tune.scored) (b : Tune.scored) ->
      Alcotest.(check bool)
        (Candidate.label a.Tune.cand ^ ": identical score")
        true
        (a.Tune.cand = b.Tune.cand && a.Tune.score = b.Tune.score))
    r1.Tune.simulated r2.Tune.simulated

(* the shm backend measures the simulator's top_k on real domains: the
   measured candidates are exactly those a sim-backed search ranks
   first, and each comes back with a positive wall-clock measurement and
   the same deterministic counters the simulator reports *)
let test_shm_backend_search () =
  let p = Tiles_apps.Sor.make ~m_steps:8 ~size:10 in
  let nest = Tiles_apps.Sor.nest p in
  let kernel = Tiles_apps.Sor.kernel p in
  let options =
    {
      Tune.default_options with
      Tune.procs = 2;
      factors = [ 2; 4 ];
      top_k = 2;
      backend = Tune.Shm;
      overlap = true;
    }
  in
  let r = Tune.search ~options ~nest ~kernel ~net () in
  let by_sim =
    Tune.search ~options:{ options with backend = Tune.Sim } ~nest ~kernel ~net
      ()
  in
  let labels l =
    List.sort compare (List.map (fun s -> Candidate.label s.Tune.cand) l)
  in
  Alcotest.(check (list string))
    "measured = the simulator's top_k"
    (labels
       (List.filteri (fun i _ -> i < options.Tune.top_k) by_sim.Tune.simulated))
    (labels r.Tune.simulated);
  List.iter
    (fun (s : Tune.scored) ->
      let sim =
        List.find (fun x -> x.Tune.cand = s.Tune.cand) by_sim.Tune.simulated
      in
      match (s.Tune.score, sim.Tune.score) with
      | Some sc, Some des ->
        Alcotest.(check bool) "wall time positive" true
          (sc.Cache.completion > 0.);
        Alcotest.(check int) "messages as simulated" des.Cache.messages
          sc.Cache.messages;
        Alcotest.(check int) "points as simulated" des.Cache.points_computed
          sc.Cache.points_computed
      | _ -> Alcotest.fail "measured candidate lacks a score")
    r.Tune.simulated

let test_cache_key_sensitivity () =
  let p = Tiles_apps.Sor.make ~m_steps:12 ~size:24 in
  let nest = Tiles_apps.Sor.nest p in
  let kernel = Tiles_apps.Sor.kernel p in
  let tiling = Tiles_apps.Sor.nonrect ~x:6 ~y:9 ~z:3 in
  let key = Cache.key ~nest ~tiling ~m:2 ~kernel ~net
      ~overlap:false ~backend:"sim" in
  let variants =
    [
      Cache.key ~nest ~tiling ~m:1 ~kernel ~net ~overlap:false
        ~backend:"sim";
      Cache.key ~nest ~tiling ~m:2 ~kernel ~net ~overlap:true
        ~backend:"sim";
      Cache.key ~nest ~tiling ~m:2 ~kernel ~net ~overlap:false
        ~backend:"shm";
      Cache.key ~nest ~tiling ~m:2 ~kernel
        ~net:{ net with Netmodel.latency = net.Netmodel.latency *. 2. }
        ~overlap:false ~backend:"sim";
      Cache.key ~nest
        ~tiling:(Tiles_apps.Sor.nonrect ~x:6 ~y:9 ~z:4)
        ~m:2 ~kernel ~net ~overlap:false ~backend:"sim";
    ]
  in
  List.iteri
    (fun i k ->
      if k = key then Alcotest.failf "variant %d collides with base key" i)
    variants;
  Alcotest.(check string) "key is deterministic" key
    (Cache.key ~nest ~tiling ~m:2 ~kernel ~net ~overlap:false
       ~backend:"sim")

(* Committed digest of one SOR configuration's key: a change to how
   [Polyhedron.make] normalises the nest's constraints, or to the key's
   rendering, would orphan every tune cache already on disk. *)
let test_cache_key_pinned () =
  let p = Tiles_apps.Sor.make ~m_steps:12 ~size:24 in
  let nest = Tiles_apps.Sor.nest p in
  let kernel = Tiles_apps.Sor.kernel p in
  let tiling = Tiles_apps.Sor.nonrect ~x:6 ~y:9 ~z:3 in
  Alcotest.(check string) "sor 12/24 nonrect 6x9x3 key"
    "32c25291d149d0eb17eb25052f619435"
    (Cache.key ~nest ~tiling ~m:2 ~kernel ~net ~overlap:false
       ~backend:"sim")

(* A v4 entry committed under the pinned digest above (sor 12/24
   nonrect 6x9x3, m = 2, the paper's network, blocking, sim): a tune
   cache already on disk must keep answering with the exact floats it
   stored. *)
let test_cache_v4_fixture () =
  let p = Tiles_apps.Sor.make ~m_steps:12 ~size:24 in
  let key =
    Cache.key ~nest:(Tiles_apps.Sor.nest p)
      ~tiling:(Tiles_apps.Sor.nonrect ~x:6 ~y:9 ~z:3)
      ~m:2 ~kernel:(Tiles_apps.Sor.kernel p) ~net ~overlap:false
      ~backend:"sim"
  in
  Alcotest.(check string) "pinned digest" "32c25291d149d0eb17eb25052f619435"
    key;
  match Cache.find (Cache.open_dir "fixtures/tune-cache-v4") key with
  | None -> Alcotest.fail "v4 fixture entry not found"
  | Some s ->
    let bits f = Printf.sprintf "%Lx" (Int64.bits_of_float f) in
    Alcotest.(check string) "completion bits" "3f6291928f0e5059"
      (bits s.Cache.completion);
    Alcotest.(check string) "speedup bits" "3fd3842078fffc7e"
      (bits s.Cache.speedup);
    Alcotest.(check int) "messages" 122 s.Cache.messages;
    Alcotest.(check int) "bytes" 10944 s.Cache.bytes;
    Alcotest.(check int) "points" 6912 s.Cache.points_computed;
    Alcotest.(check int) "tiles" 78 s.Cache.tiles_executed

let sample_score =
  {
    Cache.completion = 0.125;
    speedup = 3.5;
    messages = 42;
    bytes = 1024;
    points_computed = 4096;
    tiles_executed = 64;
  }

(* a crashed writer, disk-full truncation or plain garbage must read as
   a miss — the daemon's tune jobs share one cache directory, and a
   lookup that raises would take the whole worker down *)
let test_cache_corrupt_entry_is_miss () =
  with_temp_dir @@ fun dir ->
  let c = Cache.open_dir dir in
  let write_raw k bytes =
    let oc = open_out_bin (Filename.concat dir (k ^ ".score")) in
    output_string oc bytes;
    close_out oc
  in
  (* sanity: a good entry round-trips *)
  Cache.store c "good" sample_score;
  Alcotest.(check bool) "good entry found" true
    (Cache.find c "good" = Some sample_score);
  (* garbage bytes: not even a Marshal header *)
  write_raw "garbage" "this is not a marshalled score";
  Alcotest.(check bool) "garbage is a miss" true (Cache.find c "garbage" = None);
  (* truncation: a valid prefix of a real entry (killed mid-write) *)
  let full =
    let path = Filename.concat dir "good.score" in
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let b = really_input_string ic n in
    close_in ic;
    b
  in
  write_raw "truncated" (String.sub full 0 (String.length full / 2));
  Alcotest.(check bool) "truncated is a miss" true
    (Cache.find c "truncated" = None);
  write_raw "empty" "";
  Alcotest.(check bool) "empty is a miss" true (Cache.find c "empty" = None);
  (* a wrong-version entry (stale schema) is rejected, not decoded *)
  let oc = open_out_bin (Filename.concat dir "stale.score") in
  Marshal.to_channel oc ((-1, sample_score) : int * Cache.score) [];
  close_out oc;
  Alcotest.(check bool) "stale version is a miss" true
    (Cache.find c "stale" = None);
  (* and none of the bad entries disturbed the good one *)
  Alcotest.(check bool) "good entry still intact" true
    (Cache.find c "good" = Some sample_score)

(* many domains hammering one key and one directory: stores must never
   collide on a temp file or expose a half-written entry *)
let test_cache_concurrent_stores () =
  with_temp_dir @@ fun dir ->
  let c = Cache.open_dir dir in
  let writers = 4 and rounds = 50 in
  let domains =
    List.init writers (fun w ->
        Domain.spawn (fun () ->
            for i = 1 to rounds do
              Cache.store c "contended"
                { sample_score with Cache.messages = (w * 1000) + i };
              (* interleave reads: every observation is a complete entry *)
              match Cache.find c "contended" with
              | Some s ->
                if s.Cache.completion <> sample_score.Cache.completion then
                  failwith "partial entry observed"
              | None -> failwith "entry vanished mid-race"
            done))
  in
  List.iter Domain.join domains;
  (* last writer wins with some complete entry *)
  (match Cache.find c "contended" with
  | Some s ->
    Alcotest.(check bool) "final entry complete" true
      (s.Cache.completion = sample_score.Cache.completion)
  | None -> Alcotest.fail "no entry after the race");
  (* no temp litter left behind *)
  let tmp_files =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f -> Filename.check_suffix f ".tmp")
  in
  Alcotest.(check (list string)) "no leaked temp files" [] tmp_files

let () =
  Alcotest.run "tiles_tune"
    [
      ( "candidate",
        [
          Alcotest.test_case "sor legal" `Quick test_candidates_legal_sor;
          Alcotest.test_case "jacobi legal" `Quick test_candidates_legal_jacobi;
          Alcotest.test_case "adi legal" `Quick test_candidates_legal_adi;
          Alcotest.test_case "budget" `Quick test_candidates_respect_budget;
          Alcotest.test_case "jacobi cone tile space compact" `Quick
            test_jacobi_cone_tile_space_compact;
        ] );
      ( "predictor",
        [
          Alcotest.test_case "sor bounded" `Quick test_predictor_bounded_sor;
          Alcotest.test_case "jacobi bounded" `Quick
            test_predictor_bounded_jacobi;
          Alcotest.test_case "adi bounded" `Quick test_predictor_bounded_adi;
        ] );
      ( "search",
        [
          Alcotest.test_case "best is legal" `Slow test_tuner_best_is_legal;
          Alcotest.test_case "beats hand-picked" `Slow
            test_tuner_beats_hand_picked;
          Alcotest.test_case "exhaustive best in shortlist" `Slow
            test_exhaustive_best_in_shortlist;
          Alcotest.test_case "finds the exhaustive best" `Quick
            test_search_finds_exhaustive_best;
          Alcotest.test_case "result invariants" `Slow
            test_simulated_sorted_and_scored;
          Alcotest.test_case "shm backend" `Slow test_shm_backend_search;
          Alcotest.test_case "jacobi 4/6 pinned" `Quick test_jacobi_tune_pinned;
          Alcotest.test_case "candidate lists as recorded" `Quick
            test_candidate_labels_recorded;
          Alcotest.test_case "tune results as recorded" `Quick
            test_tune_results_recorded;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hits identical" `Quick test_cache_hits_identical;
          Alcotest.test_case "key sensitivity" `Quick test_cache_key_sensitivity;
          Alcotest.test_case "key pinned" `Quick test_cache_key_pinned;
          Alcotest.test_case "v4 fixture entry" `Quick test_cache_v4_fixture;
          Alcotest.test_case "corrupt entries are misses" `Quick
            test_cache_corrupt_entry_is_miss;
          Alcotest.test_case "concurrent stores" `Quick
            test_cache_concurrent_stores;
        ] );
    ]
