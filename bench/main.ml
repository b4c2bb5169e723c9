(* Benchmark harness: regenerates every figure of the paper's evaluation
   section (Figures 5-10), the §4.4 aggregate improvements, the §4.1-4.3
   analytic schedule gaps, two ablations, and Bechamel micro-benchmarks of
   the compiler's hot paths.

   Usage:
     bench/main.exe                 all figures + summary + analytic
     bench/main.exe fig5 ... fig10  individual figures
     bench/main.exe summary | analytic | ablation-net | ablation-map
     bench/main.exe ablation-tune   autotuner predictor vs simulator ranks
     bench/main.exe trace           unified span metrics, sim vs shm domains
     bench/main.exe analyze         causal critical-path split, rect vs nonrect
                                    Jacobi at 58 and 1219 sim ranks
     bench/main.exe perf            run distributions + analytic-model residuals
     bench/main.exe micro           Bechamel micro-benchmarks
     bench/main.exe kernels         walker throughput: reference vs fast vs native
     bench/main.exe serve           compile-service load test: throughput,
                                    per-class latency, coalesce/cache counters
     bench/main.exe everything      all of the above
     bench/main.exe --json ...      also write each target's tables (plus any
                                    embedded aggregate statistics records) to
                                    BENCH_<target>.json *)

module Table = Tiles_util.Table
module Json = Tiles_util.Json
module Netmodel = Tiles_mpisim.Netmodel
module E = Tiles_apps.Experiment
module Registry = Tiles_apps.Registry
module Run_spec = Tiles_apps.Run_spec
module Plan = Tiles_core.Plan
module Schedule = Tiles_core.Schedule
module Tiling = Tiles_core.Tiling
module Executor = Tiles_runtime.Executor
module Sim = Tiles_mpisim.Sim

let net = Netmodel.fast_ethernet_cluster

let pf fmt = Printf.printf fmt

(* tables printed by the current target, collected for --json output *)
let collected : Table.t list ref = ref []

let emit t =
  Table.print t;
  collected := t :: !collected

(* raw JSON records (e.g. aggregate run statistics) riding along in the
   current target's BENCH_<target>.json under "stats" *)
let collected_json : (string * Json.t) list ref = ref []

let emit_json key j = collected_json := (key, j) :: !collected_json

let table_json t =
  let row_json cells = Json.List (List.map (fun c -> Json.Str c) cells) in
  Json.Obj
    [ ("header", row_json (Table.header t));
      ("rows", Json.List (List.map row_json (Table.rows t))) ]

(* every artifact carries its provenance: CI uploads these files and a
   downloaded BENCH_*.json must say what produced it *)
let bench_metadata ~target =
  Json.Obj
    [
      ("tool", Json.Str "bench");
      ("tilec_version", Json.Str Tiles_obs.Runmeta.version);
      ("target", Json.Str target);
      ("nprocs", Json.Int 16);
      ("netmodel", Json.Str "fast_ethernet_cluster");
      ("netmodel_latency_s", Json.Float net.Netmodel.latency);
      ("netmodel_bandwidth_Bps", Json.Float net.Netmodel.bandwidth);
      ("netmodel_flop_time_s", Json.Float net.Netmodel.flop_time);
    ]

let write_json ~target =
  let file = Printf.sprintf "BENCH_%s.json" target in
  let json =
    Json.Obj
      (("target", Json.Str target)
       :: ("metadata", bench_metadata ~target)
       :: ("tables", Json.List (List.rev_map table_json !collected))
       :: (match !collected_json with
          | [] -> []
          | kvs -> [ ("stats", Json.Obj (List.rev kvs)) ]))
  in
  let oc = open_out file in
  output_string oc (Json.to_string ~indent:2 json);
  output_char oc '\n';
  close_out oc;
  pf "[%s written]\n" file

let sor_spaces = [ (100, 100); (100, 200); (200, 200); (100, 400) ]
let jacobi_spaces = [ (50, 100); (100, 100); (50, 200); (100, 200) ]
let adi_spaces = [ (100, 128); (100, 256); (200, 256); (100, 512) ]
let sor_factors = [ 2; 4; 6; 10; 16; 25 ]
let jacobi_factors = [ 2; 3; 5; 10; 25 ]
let adi_factors = [ 4; 10; 25; 50 ]

let fmt_speedup r = Printf.sprintf "%.2f" r.E.speedup

(* ---------------- maximum-speedup figures (5 / 7 / 9) ---------------- *)

let max_speedup_figure ~title ~specs =
  pf "\n=== %s ===\n" title;
  let variants =
    match specs with
    | [] -> []
    | (_, s) :: _ -> List.map fst s.E.variants
  in
  let t = Table.create ~header:(("iteration space" :: variants) @ [ "procs"; "best nr gain" ]) in
  List.iter
    (fun (label, spec) ->
      let runs = E.sweep spec ~net in
      let best = E.best_by_variant runs in
      let cells =
        List.map
          (fun v ->
            match List.assoc_opt v best with
            | Some r -> fmt_speedup r
            | None -> "-")
          variants
      in
      let gain =
        match List.assoc_opt "rect" best with
        | Some rect ->
          let best_nr =
            List.fold_left
              (fun acc (v, r) ->
                if v = "rect" then acc
                else match acc with
                  | Some b when b.E.speedup >= r.E.speedup -> acc
                  | _ -> Some r)
              None best
          in
          (match best_nr with
          | Some nr ->
            Printf.sprintf "%+.1f%%"
              (100. *. (nr.E.speedup -. rect.E.speedup) /. rect.E.speedup)
          | None -> "-")
        | None -> "-"
      in
      Table.add_row t ((label :: cells) @ [ string_of_int spec.E.procs; gain ]))
    specs;
  emit t

let fig5 () =
  let specs =
    List.map
      (fun (m, n) ->
        (Printf.sprintf "M=%d N=%d" m n,
         E.sor ~factors:sor_factors ~m_steps:m ~size:n ()))
      sor_spaces
  in
  max_speedup_figure
    ~title:"Figure 5 — SOR: maximum speedups per iteration space (16 nodes)"
    ~specs

let fig7 () =
  let specs =
    List.map
      (fun (t, s) ->
        (Printf.sprintf "T=%d I=J=%d" t s,
         E.jacobi ~factors:jacobi_factors ~t_steps:t ~size:s ()))
      jacobi_spaces
  in
  max_speedup_figure
    ~title:"Figure 7 — Jacobi: maximum speedups per iteration space (16 nodes)"
    ~specs

let fig9 () =
  let specs =
    List.map
      (fun (t, n) ->
        (Printf.sprintf "T=%d N=%d" t n,
         E.adi ~factors:adi_factors ~t_steps:t ~size:n ()))
      adi_spaces
  in
  max_speedup_figure
    ~title:
      "Figure 9 — ADI: maximum speedups per iteration space (rect vs nr1/nr2/nr3)"
    ~specs

(* ---------------- tile-size sweep figures (6 / 8 / 10) ---------------- *)

let sweep_figure ~title ~spec ~factor_label =
  pf "\n=== %s ===\n" title;
  let runs = E.sweep spec ~net in
  let variants = List.map fst spec.E.variants in
  let t =
    Table.create
      ~header:
        ((factor_label :: "tile size" :: variants)
        @ [ "steps r/nr"; "nr gain" ])
  in
  List.iter
    (fun f ->
      let at v =
        List.find_opt (fun r -> r.E.factor = f && r.E.variant = v) runs
      in
      let cells =
        List.map (fun v -> match at v with Some r -> fmt_speedup r | None -> "-")
          variants
      in
      let tile =
        match List.find_opt (fun r -> r.E.factor = f) runs with
        | Some r -> string_of_int r.E.tile_size
        | None -> "-"
      in
      let steps =
        match (at "rect", at (List.nth variants (List.length variants - 1))) with
        | Some a, Some b -> Printf.sprintf "%d/%d" a.E.steps b.E.steps
        | _ -> "-"
      in
      let gain =
        match at "rect" with
        | Some rect ->
          let best =
            List.fold_left
              (fun acc r ->
                if r.E.factor = f && r.E.variant <> "rect" then
                  match acc with
                  | Some b when b.E.speedup >= r.E.speedup -> acc
                  | _ -> Some r
                else acc)
              None runs
          in
          (match best with
          | Some b ->
            Printf.sprintf "%+.1f%%"
              (100. *. (b.E.speedup -. rect.E.speedup) /. rect.E.speedup)
          | None -> "-")
        | None -> "-"
      in
      Table.add_row t ((string_of_int f :: tile :: cells) @ [ steps; gain ]))
    spec.E.factors;
  emit t

let fig6 () =
  sweep_figure
    ~title:"Figure 6 — SOR: speedups for various tile sizes (M=100, N=200)"
    ~spec:(E.sor ~factors:[ 2; 3; 4; 6; 8; 10; 16; 25 ] ~m_steps:100 ~size:200 ())
    ~factor_label:"z"

let fig8 () =
  sweep_figure
    ~title:"Figure 8 — Jacobi: speedups for various tile sizes (T=50, I=J=100)"
    ~spec:(E.jacobi ~factors:[ 1; 2; 3; 5; 8; 10; 15; 25 ] ~t_steps:50 ~size:100 ())
    ~factor_label:"x"

let fig10 () =
  sweep_figure
    ~title:"Figure 10 — ADI: speedups for various tile sizes (T=100, N=256)"
    ~spec:(E.adi ~factors:[ 2; 4; 6; 10; 16; 25; 50 ] ~t_steps:100 ~size:256 ())
    ~factor_label:"x"

(* ---------------- §4.4 aggregate ---------------- *)

let summary () =
  pf "\n=== Summary (§4.4) — average non-rectangular speedup improvement ===\n";
  pf "(\"over sweep\" averages the gain at every tile size; \"at best tile\"\n";
  pf " compares the per-variant maxima, which is closer to how the paper's\n";
  pf " figure-level numbers read. The gain grows with tile size, so the\n";
  pf " absolute percentage is sensitive to the — unpublished — factor sets.)\n";
  let t =
    Table.create
      ~header:
        [ "algorithm"; "avg over sweep"; "at best tile"; "paper reports"; "spaces" ]
  in
  let avg name paper specs =
    let runs_per_spec = List.map (fun spec -> E.sweep spec ~net) specs in
    let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
    let sweep_mean = mean (List.map E.improvement_pct runs_per_spec) in
    let best_gain runs =
      let best = E.best_by_variant runs in
      match List.assoc_opt "rect" best with
      | None -> 0.
      | Some rect ->
        let nr =
          List.fold_left
            (fun acc (v, r) ->
              if v = "rect" then acc else Float.max acc r.E.speedup)
            0. best
        in
        100. *. (nr -. rect.E.speedup) /. rect.E.speedup
    in
    let best_mean = mean (List.map best_gain runs_per_spec) in
    Table.add_row t
      [
        name;
        Printf.sprintf "%+.1f%%" sweep_mean;
        Printf.sprintf "%+.1f%%" best_mean;
        paper;
        string_of_int (List.length specs);
      ]
  in
  avg "SOR" "+17.3%"
    (List.map (fun (m, n) -> E.sor ~factors:sor_factors ~m_steps:m ~size:n ()) sor_spaces);
  avg "Jacobi" "+9.1%"
    (List.map (fun (t, s) -> E.jacobi ~factors:jacobi_factors ~t_steps:t ~size:s ()) jacobi_spaces);
  avg "ADI" "+10.1%"
    (List.map (fun (t, n) -> E.adi ~factors:adi_factors ~t_steps:t ~size:n ()) adi_spaces);
  emit t

(* ---------------- §4.1-4.3 analytic schedule gaps ---------------- *)

let analytic () =
  pf "\n=== Analytic check — linear-schedule step of j_max (Π·⌊H·j_max⌋) ===\n";
  pf "paper: t_r − t_nr = M/z (SOR), (T+I)/2x (Jacobi), N/y + N/z (ADI nr3)\n";
  let t =
    Table.create
      ~header:[ "algorithm"; "config"; "t_r"; "t_nr"; "measured gap"; "predicted" ]
  in
  (* SOR, M=100 N=200, x=50 y=34 (the fig6 grid), sweep z *)
  let p = Tiles_apps.Sor.make ~m_steps:100 ~size:200 in
  let nest = Tiles_apps.Sor.nest p in
  List.iter
    (fun z ->
      let tr =
        Schedule.last_point_step
          (Plan.make ~m:2 nest (Tiles_apps.Sor.rect ~x:50 ~y:34 ~z))
      in
      let tnr =
        Schedule.last_point_step
          (Plan.make ~m:2 nest (Tiles_apps.Sor.nonrect ~x:50 ~y:34 ~z))
      in
      Table.add_row t
        [
          "SOR"; Printf.sprintf "z=%d" z; string_of_int tr; string_of_int tnr;
          string_of_int (tr - tnr);
          Printf.sprintf "M/z = %d" (100 / z);
        ])
    [ 4; 10; 25 ];
  let p = Tiles_apps.Jacobi.make ~t_steps:50 ~size:100 in
  let nest = Tiles_apps.Jacobi.nest p in
  List.iter
    (fun x ->
      let tr =
        Schedule.last_point_step
          (Plan.make ~m:0 nest (Tiles_apps.Jacobi.rect ~x ~y:38 ~z:38))
      in
      let tnr =
        Schedule.last_point_step
          (Plan.make ~m:0 nest (Tiles_apps.Jacobi.nonrect ~x ~y:38 ~z:38))
      in
      Table.add_row t
        [
          "Jacobi"; Printf.sprintf "x=%d" x; string_of_int tr; string_of_int tnr;
          string_of_int (tr - tnr);
          Printf.sprintf "(T+I)/2x = %d" ((50 + 100) / (2 * x));
        ])
    [ 2; 5; 10 ];
  let p = Tiles_apps.Adi.make ~t_steps:100 ~size:256 in
  let nest = Tiles_apps.Adi.nest p in
  List.iter
    (fun x ->
      let tr =
        Schedule.last_point_step
          (Plan.make ~m:0 nest (Tiles_apps.Adi.rect ~x ~y:64 ~z:64))
      in
      let tnr =
        Schedule.last_point_step
          (Plan.make ~m:0 nest (Tiles_apps.Adi.nr3 ~x ~y:64 ~z:64))
      in
      Table.add_row t
        [
          "ADI/nr3"; Printf.sprintf "x=%d" x; string_of_int tr; string_of_int tnr;
          string_of_int (tr - tnr);
          (* the paper writes N/y + N/z assuming x = y = z; with our grid
             the two subtracted row-0 entries each contribute N/x *)
          Printf.sprintf "2N/x = %d" (2 * 256 / x);
        ])
    [ 4; 10; 25 ];
  emit t

(* ---------------- ablations ---------------- *)

let ablation_net () =
  pf "\n=== Ablation — computation/communication ratio vs non-rect gain ===\n";
  pf "(SOR M=100 N=200, z=6; ratio scales per-point compute cost)\n";
  let spec = E.sor ~factors:[ 6 ] ~m_steps:100 ~size:200 () in
  let t =
    Table.create ~header:[ "comp/comm ratio"; "rect"; "nonrect"; "nr gain" ]
  in
  List.iter
    (fun ratio ->
      let net = Netmodel.with_ratio net ratio in
      let rect = E.run_one spec ~net ~variant:"rect" ~factor:6 in
      let nr = E.run_one spec ~net ~variant:"nonrect" ~factor:6 in
      Table.add_row t
        [
          Printf.sprintf "%.2fx" ratio;
          fmt_speedup rect;
          fmt_speedup nr;
          Printf.sprintf "%+.1f%%"
            (100. *. (nr.E.speedup -. rect.E.speedup) /. rect.E.speedup);
        ])
    [ 0.25; 0.5; 1.0; 2.0; 4.0 ];
  emit t

let ablation_map () =
  pf "\n=== Ablation — mapping-dimension choice (ADI T=100 N=256, nr3, x=10) ===\n";
  pf "(§3.1: map along the dimension with the maximum trip count)\n";
  let p = Tiles_apps.Adi.make ~t_steps:100 ~size:256 in
  let nest = Tiles_apps.Adi.nest p in
  let kernel = Tiles_apps.Adi.kernel p in
  let t = Table.create ~header:[ "mapping dim"; "procs"; "speedup"; "messages" ] in
  List.iter
    (fun m ->
      match
        let tiling = Tiles_apps.Adi.nr3 ~x:10 ~y:64 ~z:64 in
        let plan = Plan.make ~m nest tiling in
        (plan, Executor.run ~mode:Executor.Timing ~plan ~kernel ~net ())
      with
      | plan, r ->
        Table.add_row t
          [
            string_of_int m;
            string_of_int (Plan.nprocs plan);
            Printf.sprintf "%.2f" r.Executor.speedup;
            string_of_int r.Executor.stats.Sim.messages;
          ]
      | exception e ->
        Table.add_row t [ string_of_int m; "-"; Printexc.to_string e ])
    [ 0; 1; 2 ];
  emit t

let ablation_overlap () =
  pf "\n=== Ablation — §5 future work: computation/communication overlap ===\n";
  pf "(non-blocking sends; SOR M=100 N=200 and ADI T=100 N=256)\n";
  let t =
    Table.create
      ~header:
        [ "experiment"; "variant"; "blocking"; "overlapped"; "overlap gain";
          "busy% blk"; "busy% ovl" ]
  in
  let row label spec variant factor =
    let mk overlap =
      let tiling = (List.assoc variant spec.E.variants) factor in
      let plan = Plan.make ~m:spec.E.m spec.E.nest tiling in
      Executor.run ~mode:Executor.Timing ~overlap ~trace:true ~plan
        ~kernel:spec.E.kernel ~net ()
    in
    let b = mk false and o = mk true in
    let eff r =
      let s = Tiles_mpisim.Trace.aggregate r.Executor.stats in
      s.Tiles_obs.Stats.total_compute
      /. (float_of_int s.Tiles_obs.Stats.nprocs *. s.Tiles_obs.Stats.completion)
    in
    Table.add_row t
      [
        label; variant;
        Printf.sprintf "%.2f" b.Executor.speedup;
        Printf.sprintf "%.2f" o.Executor.speedup;
        Printf.sprintf "%+.1f%%"
          (100. *. (o.Executor.speedup -. b.Executor.speedup)
           /. b.Executor.speedup);
        Printf.sprintf "%.0f%%" (100. *. eff b);
        Printf.sprintf "%.0f%%" (100. *. eff o);
      ]
  in
  let sor = E.sor ~factors:[ 6 ] ~m_steps:100 ~size:200 () in
  row "SOR z=6" sor "rect" 6;
  row "SOR z=6" sor "nonrect" 6;
  let adi = E.adi ~factors:[ 10 ] ~t_steps:100 ~size:256 () in
  row "ADI x=10" adi "rect" 10;
  row "ADI x=10" adi "nr3" 10;
  emit t;
  (* the same ablation on the real shm backend: wall clock, so smaller
     configurations that fit the host's cores, and the busy fractions
     come from the unified span recorder instead of the simulator *)
  pf "\nshm backend (real domains, wall-clock; host-dependent):\n";
  let module Shm_executor = Tiles_runtime.Shm_executor in
  let ts =
    Table.create
      ~header:
        [ "experiment"; "variant"; "blocking"; "overlapped"; "overlap gain";
          "busy% blk"; "busy% ovl" ]
  in
  let shm_row label spec variant factor =
    let mk overlap =
      let tiling = (List.assoc variant spec.E.variants) factor in
      let plan = Plan.make ~m:spec.E.m spec.E.nest tiling in
      Shm_executor.run ~trace:true ~overlap ~plan ~kernel:spec.E.kernel ()
    in
    let b = mk false and o = mk true in
    let busy (r : Shm_executor.result) =
      r.Shm_executor.stats.Tiles_obs.Stats.mean_busy_fraction
    in
    Table.add_row ts
      [
        label; variant;
        Printf.sprintf "%.2f" b.Shm_executor.wall_speedup;
        Printf.sprintf "%.2f" o.Shm_executor.wall_speedup;
        Printf.sprintf "%+.1f%%"
          (100.
           *. (o.Shm_executor.wall_speedup -. b.Shm_executor.wall_speedup)
           /. b.Shm_executor.wall_speedup);
        Printf.sprintf "%.0f%%" (100. *. busy b);
        Printf.sprintf "%.0f%%" (100. *. busy o);
      ]
  in
  let sor_shm = E.sor ~factors:[ 6 ] ~m_steps:24 ~size:128 () in
  shm_row "SOR z=6 (M=24 N=128)" sor_shm "rect" 6;
  shm_row "SOR z=6 (M=24 N=128)" sor_shm "nonrect" 6;
  let adi_shm = E.adi ~factors:[ 8 ] ~t_steps:24 ~size:96 () in
  shm_row "ADI x=8 (T=24 N=96)" adi_shm "rect" 8;
  shm_row "ADI x=8 (T=24 N=96)" adi_shm "nr3" 8;
  emit ts

let model () =
  pf "\n=== Model — Hodzic–Shang analytic completion time vs simulation ===\n";
  pf "(SOR M=100 N=200, rect tiling; the model ranks tile sizes and finds\n";
  pf " the speedup peak without running anything)\n";
  let module Model = Tiles_runtime.Model in
  let spec = E.sor ~factors:[ 2; 3; 4; 6; 8; 10; 16; 25 ] ~m_steps:100 ~size:200 () in
  let t =
    Table.create
      ~header:[ "z"; "predicted time"; "simulated time"; "predicted speedup"; "measured speedup" ]
  in
  let mk f = Plan.make ~m:spec.E.m spec.E.nest ((List.assoc "rect" spec.E.variants) f) in
  List.iter
    (fun f ->
      let est = Model.predict (mk f) ~net in
      let r = E.run_one spec ~net ~variant:"rect" ~factor:f in
      Table.add_row t
        [
          string_of_int f;
          Printf.sprintf "%.4f s" est.Model.total;
          Printf.sprintf "%.4f s" r.E.completion;
          Printf.sprintf "%.2f" est.Model.predicted_speedup;
          Printf.sprintf "%.2f" r.E.speedup;
        ])
    spec.E.factors;
  emit t;
  let best_f, _ = Model.best_factor mk ~factors:spec.E.factors ~net in
  let measured_best =
    List.fold_left
      (fun acc f ->
        let r = E.run_one spec ~net ~variant:"rect" ~factor:f in
        match acc with
        | Some (_, s) when s >= r.E.speedup -> acc
        | _ -> Some (f, r.E.speedup))
      None spec.E.factors
  in
  (match measured_best with
  | Some (f, _) ->
    pf "model-optimal z = %d; simulation-optimal z = %d\n" best_f f
  | None -> ())

let memory () =
  pf "\n=== Memory — LDS compression vs enclosing-rectangle allocation (§3.1) ===\n";
  pf "(the paper: allocating each processor's non-rectangular DS share as its\n";
  pf " minimum enclosing rectangle wastes memory; the condensed LDS does not)\n";
  let t =
    Table.create
      ~header:
        [ "experiment"; "variant"; "|J^n| cells"; "sum LDS cells";
          "sum enclosing rect"; "replicated DS"; "LDS overhead"; "rect overhead" ]
  in
  let module Mapping = Tiles_core.Mapping in
  let module Tile_space = Tiles_core.Tile_space in
  let module Polyhedron = Tiles_poly.Polyhedron in
  let row label spec variant factor =
    let tiling = (List.assoc variant spec.E.variants) factor in
    let plan = Plan.make ~m:spec.E.m spec.E.nest tiling in
    let mapping = plan.Plan.mapping in
    let total_points =
      Polyhedron.count_points spec.E.nest.Tiles_loop.Nest.space
    in
    let lds_cells = ref 0 and rect_cells = ref 0 in
    for rank = 0 to Mapping.nprocs mapping - 1 do
      let shape = Plan.lds_shape plan ~rank in
      lds_cells := !lds_cells + shape.Tiles_core.Lds.total;
      (* minimum enclosing rectangle of this rank's share of DS: bounding
         box over its tiles' global points (via tile hull corners) *)
      let n = Tiles_core.Tiling.dim tiling in
      let lo = Array.make n max_int and hi = Array.make n min_int in
      List.iter
        (fun tile ->
          Tile_space.iter_tile_points plan.Plan.tspace ~tile
            (fun ~local:_ ~global:j ->
              for k = 0 to n - 1 do
                if j.(k) < lo.(k) then lo.(k) <- j.(k);
                if j.(k) > hi.(k) then hi.(k) <- j.(k)
              done))
        (Mapping.tiles_of_rank mapping rank);
      if lo.(0) <> max_int then begin
        let cells = ref 1 in
        for k = 0 to n - 1 do
          cells := !cells * (hi.(k) - lo.(k) + 1)
        done;
        rect_cells := !rect_cells + !cells
      end
    done;
    let pct x =
      Printf.sprintf "%+.0f%%"
        (100. *. (float_of_int x -. float_of_int total_points)
         /. float_of_int total_points)
    in
    Table.add_row t
      [
        label; variant;
        string_of_int total_points;
        string_of_int !lds_cells;
        string_of_int !rect_cells;
        string_of_int (total_points * Mapping.nprocs mapping);
        pct !lds_cells;
        pct !rect_cells;
      ]
  in
  let sor = E.sor ~factors:[ 6 ] ~m_steps:60 ~size:120 () in
  row "SOR M=60 N=120 z=6" sor "rect" 6;
  row "SOR M=60 N=120 z=6" sor "nonrect" 6;
  let adi = E.adi ~factors:[ 10 ] ~t_steps:60 ~size:96 () in
  row "ADI T=60 N=96 x=10" adi "rect" 10;
  row "ADI T=60 N=96 x=10" adi "nr3" 10;
  emit t

let ablation_tune () =
  pf "\n=== Ablation — autotuner: predictor rank order vs simulator rank order ===\n";
  pf "(SOR M=100 N=200, 16-processor budget, the fig6 factor sweep; the\n";
  pf " tuner's shortlist re-simulated, both orderings side by side)\n";
  let module Tune = Tiles_tune.Tune in
  let module Predictor = Tiles_tune.Predictor in
  let module Cache = Tiles_tune.Cache in
  let p = Tiles_apps.Sor.make ~m_steps:100 ~size:200 in
  let nest = Tiles_apps.Sor.nest p in
  let kernel = Tiles_apps.Sor.kernel p in
  let options =
    { Tune.default_options with factors = [ 2; 3; 4; 6; 8; 10; 16; 25 ] }
  in
  let r = Tune.search ~options ~nest ~kernel ~net () in
  let by_pred =
    List.sort
      (fun (a : Tune.scored) b ->
        compare a.Tune.predicted.Predictor.total b.Tune.predicted.Predictor.total)
      r.Tune.simulated
  in
  let pred_rank s =
    let rec find i = function
      | [] -> 0
      | x :: rest -> if x.Tune.cand = s.Tune.cand then i else find (i + 1) rest
    in
    find 1 by_pred
  in
  let t =
    Table.create
      ~header:
        [ "candidate"; "predicted ms"; "pred rank"; "simulated ms"; "sim rank" ]
  in
  List.iteri
    (fun i s ->
      let sim =
        match s.Tune.score with
        | Some sc -> Printf.sprintf "%.3f" (1e3 *. sc.Cache.completion)
        | None -> "-"
      in
      Table.add_row t
        [
          Tiles_tune.Candidate.label s.Tune.cand;
          Printf.sprintf "%.3f" (1e3 *. s.Tune.predicted.Predictor.total);
          string_of_int (pred_rank s);
          sim;
          string_of_int (i + 1);
        ])
    r.Tune.simulated;
  emit t;
  (* the acceptance comparison: the tuner against fig6's best hand-picked
     tiling (same nest, net and processor budget) *)
  let hand =
    let plan = Plan.make ~m:2 nest (Tiles_apps.Sor.nonrect ~x:50 ~y:34 ~z:4) in
    Executor.run ~mode:Executor.Timing ~plan ~kernel ~net ()
  in
  let best_completion =
    match r.Tune.best.Tune.score with
    | Some sc -> sc.Cache.completion
    | None -> nan
  in
  pf "tuned best  : %s — %.3f ms\n"
    (Tiles_tune.Candidate.label r.Tune.best.Tune.cand)
    (1e3 *. best_completion);
  pf "hand-picked : nonrect z=4 (fig6) — %.3f ms\n"
    (1e3 *. hand.Executor.stats.Sim.completion);
  pf "sim-best predictor rank: %d of %d simulated\n"
    (pred_rank (List.hd r.Tune.simulated))
    (List.length r.Tune.simulated)

(* ---------------- unified trace metrics ---------------- *)

let trace_target () =
  pf "\n=== Trace — unified span metrics, simulator vs shm domains ===\n";
  pf "(SOR M=24 N=32 nonrect x=6 y=8 z=8; both backends run the same plan\n";
  pf " through the same recorder vocabulary; counters must agree exactly)\n";
  let module Stats = Tiles_obs.Stats in
  let module Shm_executor = Tiles_runtime.Shm_executor in
  let p = Tiles_apps.Sor.make ~m_steps:24 ~size:32 in
  let nest = Tiles_apps.Sor.nest p in
  let kernel = Tiles_apps.Sor.kernel p in
  let plan =
    Plan.make ~m:Tiles_apps.Sor.mapping_dim nest
      (Tiles_apps.Sor.nonrect ~x:6 ~y:8 ~z:8)
  in
  let sim =
    let r = Executor.run ~mode:Executor.Full ~trace:true ~plan ~kernel ~net () in
    Tiles_mpisim.Trace.aggregate r.Executor.stats
  in
  let shm = (Shm_executor.run ~trace:true ~plan ~kernel ()).Shm_executor.stats in
  let t =
    Table.create
      ~header:
        [ "backend"; "completion"; "messages"; "bytes"; "max in-flight";
          "mean busy"; "comm/compute"; "critical path" ]
  in
  let row name (s : Stats.t) =
    Table.add_row t
      [
        name;
        Printf.sprintf "%.6f s" s.Stats.completion;
        string_of_int s.Stats.messages;
        string_of_int s.Stats.bytes;
        string_of_int s.Stats.max_inflight_bytes;
        Printf.sprintf "%.0f%%" (100. *. s.Stats.mean_busy_fraction);
        Printf.sprintf "%.2f" s.Stats.comm_compute_ratio;
        Printf.sprintf "%.6f s" s.Stats.critical_path;
      ]
  in
  row "sim (virtual)" sim;
  row "shm (wall)" shm;
  emit t;
  emit_json "sim" (Stats.to_json sim);
  emit_json "shm" (Stats.to_json shm);
  if sim.Stats.messages <> shm.Stats.messages
     || sim.Stats.bytes <> shm.Stats.bytes then
    pf "WARNING: backend counters disagree\n"

(* ---------------- causal critical-path analysis ---------------- *)

let analyze_target () =
  pf "\n=== Analyze — causal critical path, rect vs nonrect, small vs large ===\n";
  pf "(Jacobi on the simulator in Timing mode; the causal path replays the\n";
  pf " send→recv edge DAG, so its compute/wait/flight split says where the\n";
  pf " makespan actually goes — rank counts span 58 to 4483)\n";
  let module Stats = Tiles_obs.Stats in
  let module Recorder = Tiles_obs.Recorder in
  let module Critpath = Tiles_obs.Critpath in
  let configs =
    [
      ("rect", 24, 34, (6, 8, 8)); ("nonrect", 24, 34, (6, 8, 8));
      ("rect", 24, 256, (3, 8, 8)); ("nonrect", 24, 256, (3, 8, 8));
      ("rect", 24, 512, (3, 8, 8)); ("nonrect", 24, 512, (3, 8, 8));
    ]
  in
  let run ~net (variant, t_steps, size, (x, y, z)) =
    let p = Tiles_apps.Jacobi.make ~t_steps ~size in
    let plan =
      Plan.make ~m:Tiles_apps.Jacobi.mapping_dim (Tiles_apps.Jacobi.nest p)
        ((List.assoc variant Tiles_apps.Jacobi.variants) ~x ~y ~z)
    in
    let r =
      Executor.run ~mode:Executor.Timing ~trace:true ~plan
        ~kernel:(Tiles_apps.Jacobi.kernel p) ~net ()
    in
    let stats = r.Executor.stats in
    let nprocs = Array.length stats.Sim.rank_clocks in
    ( nprocs,
      Critpath.analyze ~completion:stats.Sim.completion ~nprocs
        ~edges:stats.Sim.edges stats.Sim.trace )
  in
  let pct report k =
    let s =
      match List.assoc_opt k report.Critpath.kind_seconds with
      | Some s -> s
      | None -> 0.
    in
    Printf.sprintf "%.1f%%" (100. *. s /. report.Critpath.completion)
  in
  let t =
    Table.create
      ~header:
        [ "config"; "procs"; "completion"; "path compute"; "path wait";
          "path flight"; "edges"; "coverage"; "imbalance" ]
  in
  List.iter
    (fun ((variant, t_steps, size, _tile) as cfg) ->
      let nprocs, report = run ~net cfg in
      let label = Printf.sprintf "T=%d N=%d %s" t_steps size variant in
      Table.add_row t
        [
          label;
          string_of_int nprocs;
          Printf.sprintf "%.6f s" report.Critpath.completion;
          pct report "compute";
          pct report "wait";
          pct report "flight";
          string_of_int report.Critpath.edges_crossed;
          Printf.sprintf "%.1f%%" (100. *. report.Critpath.coverage);
          Printf.sprintf "%.3f" report.Critpath.imbalance;
        ];
      emit_json label (Critpath.to_json ~segments:false ~per_rank:false report))
    configs;
  emit t;
  pf "\n--- same sweep under the contended NIC model (1 send / 1 recv lane) ---\n";
  pf "(\"path queue\" is the share of the causal path spent serialized behind\n";
  pf " a busy NIC lane; the nonrect advantage has to survive contention)\n";
  let cnet = Netmodel.contended net in
  let tc =
    Table.create
      ~header:
        [ "config"; "procs"; "completion"; "path compute"; "path wait";
          "path flight"; "path queue"; "coverage" ]
  in
  List.iter
    (fun ((variant, t_steps, size, _tile) as cfg) ->
      let nprocs, report = run ~net:cnet cfg in
      let label = Printf.sprintf "T=%d N=%d %s contended" t_steps size variant in
      Table.add_row tc
        [
          label;
          string_of_int nprocs;
          Printf.sprintf "%.6f s" report.Critpath.completion;
          pct report "compute";
          pct report "wait";
          pct report "flight";
          pct report "nic-queue";
          Printf.sprintf "%.1f%%" (100. *. report.Critpath.coverage);
        ];
      emit_json label (Critpath.to_json ~segments:false ~per_rank:false report))
    configs;
  emit tc

(* ---------------- perf observatory ---------------- *)

let perf_target () =
  pf "\n=== Perf — repeated-run distributions and analytic-model residuals ===\n";
  pf "(each config runs 1 warmup + 3 measured sim repeats; the residual\n";
  pf " table compares the tuner's two predictor passes and the\n";
  pf " Hodzic-Shang model against the observed completion)\n";
  let module Stats = Tiles_obs.Stats in
  let module Metric = Tiles_obs.Metric in
  let module Residual = Tiles_obs.Residual in
  let module Baseline = Tiles_obs.Baseline in
  let module Runmeta = Tiles_obs.Runmeta in
  let module Predictor = Tiles_tune.Predictor in
  let module Model = Tiles_runtime.Model in
  let repeats = 3 and warmup = 1 in
  let suite =
    [
      ("sor", "rect", 24, 32, (6, 8, 8));
      ("sor", "nonrect", 24, 32, (6, 8, 8));
      ("jacobi", "rect", 12, 16, (3, 4, 4));
      ("jacobi", "nonrect", 12, 16, (3, 4, 4));
      ("adi", "rect", 12, 16, (3, 4, 4));
      ("adi", "nr3", 12, 16, (3, 4, 4));
    ]
  in
  let dist_table =
    Table.create
      ~header:
        [ "config"; "procs"; "mean ms"; "stddev ms"; "p50 ms"; "p99 ms";
          "messages"; "bytes" ]
  in
  let residual_entries = ref [] in
  let records = ref [] in
  List.iter
    (fun (app, variant, size1, size2, ((x, y, z) as tile)) ->
      let spec = { (Run_spec.default app) with variant; size1; size2; tile } in
      let r = Result.fold ~ok:Fun.id ~error:failwith (Run_spec.resolve spec) in
      let kernel = r.Registry.kernel in
      let plan = Plan.make ~m:r.Registry.m r.Registry.nest r.Registry.tiling in
      let label = Printf.sprintf "%s/%s x=%d y=%d z=%d" app variant x y z in
      let last_speedup = ref nan in
      let run_once () =
        let r =
          Executor.run ~mode:Executor.Timing ~trace:true ~plan ~kernel ~net ()
        in
        last_speedup := r.Executor.speedup;
        Tiles_mpisim.Trace.aggregate r.Executor.stats
      in
      let runs = List.init (warmup + repeats) (fun _ -> run_once ()) in
      let stats = List.nth runs (List.length runs - 1) in
      let dist = Stats.distributions ~warmup runs in
      let c = List.assoc "completion_s" dist in
      Table.add_row dist_table
        [
          label;
          string_of_int (Plan.nprocs plan);
          Printf.sprintf "%.3f" (1e3 *. c.Metric.mean);
          Printf.sprintf "%.3f" (1e3 *. c.Metric.stddev);
          Printf.sprintf "%.3f" (1e3 *. c.Metric.p50);
          Printf.sprintf "%.3f" (1e3 *. c.Metric.p99);
          string_of_int stats.Stats.messages;
          string_of_int stats.Stats.bytes;
        ];
      let observed =
        [
          ("completion_s", stats.Stats.completion);
          ("speedup", !last_speedup);
        ]
      in
      let width = kernel.Tiles_runtime.Kernel.width in
      let entries source fields =
        List.filter_map
          (fun (field, predicted) ->
            Option.map
              (fun observed ->
                { Residual.label; source; field; predicted; observed })
              (List.assoc_opt field observed))
          fields
      in
      let p = Predictor.predict ~width plan ~net in
      let r = Predictor.refine ~width plan ~net in
      let mo = Model.predict plan ~net in
      residual_entries :=
        !residual_entries
        @ entries (Predictor.source p) (Predictor.fields p)
        @ entries (Predictor.source r) (Predictor.fields r)
        @ entries "model" (Model.fields mo);
      let meta = Run_spec.runmeta ~nprocs:(Plan.nprocs plan) spec in
      records :=
        (label,
         Json.Obj
           [
             ("metadata", Runmeta.to_json meta);
             ("baseline",
              Baseline.to_json (Baseline.make ~meta ~stats ~timings:dist));
           ])
        :: !records)
    suite;
  emit dist_table;
  let entries = !residual_entries in
  let residual_table =
    Table.create
      ~header:[ "config"; "source"; "field"; "predicted"; "observed"; "err" ]
  in
  List.iter
    (fun (e : Residual.entry) ->
      Table.add_row residual_table
        [
          e.Residual.label;
          e.Residual.source;
          e.Residual.field;
          Printf.sprintf "%.6g" e.Residual.predicted;
          Printf.sprintf "%.6g" e.Residual.observed;
          Printf.sprintf "%+.1f%%" (100. *. Residual.rel_error e);
        ])
    entries;
  emit residual_table;
  let calibration_table =
    Table.create
      ~header:[ "source"; "n"; "mean |err|"; "bias"; "max |err|" ]
  in
  List.iter
    (fun (c : Residual.calibration) ->
      Table.add_row calibration_table
        [
          c.Residual.source;
          string_of_int c.Residual.count;
          Printf.sprintf "%.1f%%" (100. *. c.Residual.mean_abs_rel);
          Printf.sprintf "%+.1f%%" (100. *. c.Residual.mean_rel);
          Printf.sprintf "%.1f%%" (100. *. c.Residual.max_abs_rel);
        ])
    (Residual.calibrate entries);
  emit calibration_table;
  List.iter (fun (k, j) -> emit_json k j) (List.rev !records);
  emit_json "residuals" (Residual.to_json entries)

(* ---------------- Bechamel micro-benchmarks ---------------- *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  pf "\n=== Micro-benchmarks (Bechamel, monotonic clock) ===\n";
  let mat =
    Tiles_linalg.Intmat.of_rows [ [ 2; -1; 0 ]; [ 0; 1; 0 ]; [ -1; 0; 3 ] ]
  in
  let tiling =
    Tiling.of_rows
      Tiles_rat.Rat.
        [
          [ make 1 6; make (-1) 12; of_int 0 ];
          [ of_int 0; make 1 8; of_int 0 ];
          [ of_int 0; of_int 0; make 1 10 ];
        ]
  in
  let space = Tiles_poly.Polyhedron.box [ (0, 19); (0, 19); (0, 19) ] in
  let cs = Tiles_poly.Polyhedron.constraints space in
  let deps =
    Tiles_loop.Dependence.of_vectors [ [| 1; 0; 0 |]; [| 1; 1; 0 |]; [| 1; 0; 1 |] ]
  in
  let pascal =
    Tiles_runtime.Kernel.make ~name:"pascal" ~dim:2
      ~reads:[ [| 1; 0 |]; [| 0; 1 |] ]
      ~boundary:(fun _ _ -> 1.)
      ~compute:(fun ~read ~j:_ ~out -> out.(0) <- read 0 0 +. read 1 0)
      ()
  in
  let pascal_plan =
    Plan.make
      (Tiles_loop.Nest.make ~name:"pascal"
         ~space:(Tiles_poly.Polyhedron.box [ (0, 29); (0, 29) ])
         ~deps:(Tiles_runtime.Kernel.deps pascal))
      (Tiling.rectangular [ 5; 5 ])
  in
  let tests =
    [
      Test.make ~name:"hnf-3x3" (Staged.stage (fun () ->
           ignore (Tiles_linalg.Hnf.compute mat)));
      Test.make ~name:"snf-3x3" (Staged.stage (fun () ->
           ignore (Tiles_linalg.Snf.compute mat)));
      Test.make ~name:"fm-eliminate" (Staged.stage (fun () ->
           ignore (Tiles_poly.Fourier_motzkin.eliminate cs ~var:2)));
      Test.make ~name:"ttis-enumerate-480pt" (Staged.stage (fun () ->
           ignore (Tiles_core.Ttis.count tiling)));
      Test.make ~name:"tile-deps" (Staged.stage (fun () ->
           ignore (Tiles_core.Comm.make tiling deps ~m:0)));
      Test.make ~name:"cone-extreme-rays" (Staged.stage (fun () ->
           ignore
             (Tiles_poly.Cone.extreme_rays
                (Tiles_poly.Cone.tiling_cone
                   (Tiles_loop.Dependence.to_matrix deps)))));
      Test.make ~name:"executor-pascal-900pt" (Staged.stage (fun () ->
           ignore
             (Executor.run ~mode:Executor.Timing ~plan:pascal_plan
                ~kernel:pascal ~net ())));
    ]
  in
  let grouped = Test.make_grouped ~name:"tiles" ~fmt:"%s/%s" tests in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols (Instance.monotonic_clock) raw in
  let t = Table.create ~header:[ "benchmark"; "time/run" ] in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (name, ols_result) ->
      let time =
        match Analyze.OLS.estimates ols_result with
        | Some [ est ] -> Printf.sprintf "%.0f ns" est
        | _ -> "?"
      in
      Table.add_row t [ name; time ])
    (List.sort compare rows);
  emit t

(* ---------------- walker throughput (kernels) ---------------- *)

(* Wall-clock throughput of the tile walkers on the real apps. The
   sim backend in Full mode executes every rank's compute/pack/unpack
   work on one thread with zero transport cost, so elapsed wall time
   isolates walker cost from scheduling and parallel speedup:
   points/s counts computed iteration points, bytes/s counts packed slab
   payload, both against the same elapsed wall clock. When the native
   walker cannot compile (no C compiler on the box) its row fell back to
   the fast path; the JSON records the reason so the numbers are never
   silently mislabelled. The small configurations are cache-resident;
   the wide-tile one has a per-rank working set far past L2. A second
   table times the sequential oracle ([Seq_exec]) on each config's whole
   space, reference vs fast, in interleaved rounds so host drift cannot
   manufacture the ratio. *)
let kernels_target () =
  let module Walker = Tiles_runtime.Walker in
  let module Seq_exec = Tiles_runtime.Seq_exec in
  let module Metric = Tiles_obs.Metric in
  pf "\n=== Kernels — walker throughput (reference vs fast vs native) ===\n";
  pf "(each cell is 1 warmup + N measured Full-mode runs on the sim backend)\n";
  let warmup = 1 in
  (* (app, variant, size1, size2, tile, repeats) *)
  let suite =
    [
      ("sor", "nonrect", 32, 64, (8, 16, 16), 4);
      ("jacobi", "nonrect", 16, 48, (4, 12, 12), 4);
      ("adi", "nr3", 16, 40, (4, 10, 10), 4);
      (* wide tile: 8x512x512 doubles = 16.8 MB per rank tile *)
      ("sor", "nonrect", 8, 512, (8, 512, 512), 2);
    ]
  in
  let t =
    Table.create
      ~header:
        [ "config"; "procs"; "walker"; "Mpoint/s"; "stddev"; "MB/s"; "x ref" ]
  in
  let ts =
    Table.create
      ~header:[ "config"; "points"; "seq walk"; "Mpoint/s"; "stddev"; "x ref" ]
  in
  let records = ref [] in
  List.iter
    (fun (app, variant, size1, size2, ((x, y, z) as tile), repeats) ->
      let r =
        Result.fold ~ok:Fun.id ~error:failwith
          (Registry.resolve ~app ~size1 ~size2 ~variant ~tile)
      in
      let nest = r.Registry.nest and kernel = r.Registry.kernel in
      let plan = Plan.make ~m:r.Registry.m nest r.Registry.tiling in
      let label =
        Printf.sprintf "%s/%s %d/%d x=%d y=%d z=%d" app variant size1 size2 x
          y z
      in
      let native_fallback =
        match Tiles_runtime.Native_kernel.build ~plan ~kernel () with
        | Ok _ -> None
        | Error reason -> Some reason
      in
      (match native_fallback with
      | Some reason ->
        pf "note: %s: native walker fell back to fast (%s)\n" label reason
      | None -> ());
      let run_once walker =
        let t0 = Unix.gettimeofday () in
        let r =
          Executor.run ~walker ~mode:Executor.Full ~plan ~kernel ~net ()
        in
        let dt = Unix.gettimeofday () -. t0 in
        ( float_of_int r.Executor.points_computed /. dt,
          float_of_int r.Executor.stats.Sim.bytes /. dt )
      in
      let measure walker =
        let samples =
          List.init (warmup + repeats) (fun _ -> run_once walker)
          |> List.filteri (fun i _ -> i >= warmup)
        in
        ( Metric.of_values (List.map fst samples),
          Metric.of_values (List.map snd samples) )
      in
      let results = List.map (fun w -> (w, measure w)) Walker.all_variants in
      let ref_pps =
        (fst (List.assoc Walker.Reference results)).Metric.mean
      in
      let walker_json =
        List.map
          (fun (w, ((pps : Metric.summary), (bps : Metric.summary))) ->
            Table.add_row t
              [
                label;
                string_of_int (Plan.nprocs plan);
                Walker.variant_to_string w;
                Printf.sprintf "%.2f" (pps.Metric.mean /. 1e6);
                Printf.sprintf "%.2f" (pps.Metric.stddev /. 1e6);
                Printf.sprintf "%.1f" (bps.Metric.mean /. 1e6);
                Printf.sprintf "%.2fx" (pps.Metric.mean /. ref_pps);
              ];
            ( Walker.variant_to_string w,
              Json.Obj
                ([
                   ("points_per_s", Metric.summary_to_json pps);
                   ("packed_bytes_per_s", Metric.summary_to_json bps);
                   ( "speedup_vs_reference",
                     Json.Float (pps.Metric.mean /. ref_pps) );
                 ]
                @
                match (w, native_fallback) with
                | Walker.Native, Some reason ->
                  [ ("fallback", Json.Str reason) ]
                | _ -> []) ))
          results
      in
      let space = nest.Tiles_loop.Nest.space in
      let npoints = Tiles_poly.Polyhedron.count_points space in
      let seq_once variant =
        let t0 = Unix.gettimeofday () in
        ignore (Seq_exec.run ~variant ~space ~kernel ());
        float_of_int npoints /. (Unix.gettimeofday () -. t0)
      in
      let rounds =
        List.init (warmup + repeats) (fun _ ->
            let r = seq_once Walker.Reference in
            (r, seq_once Walker.Fastpath))
        |> List.filteri (fun i _ -> i >= warmup)
      in
      let seq_ref = Metric.of_values (List.map fst rounds) in
      let seq_fast = Metric.of_values (List.map snd rounds) in
      let seq_json =
        List.map
          (fun (w, (pps : Metric.summary)) ->
            let speedup = pps.Metric.mean /. seq_ref.Metric.mean in
            Table.add_row ts
              [
                label;
                string_of_int npoints;
                Walker.variant_to_string w;
                Printf.sprintf "%.2f" (pps.Metric.mean /. 1e6);
                Printf.sprintf "%.2f" (pps.Metric.stddev /. 1e6);
                Printf.sprintf "%.2fx" speedup;
              ];
            ( Walker.variant_to_string w,
              Json.Obj
                [
                  ("points_per_s", Metric.summary_to_json pps);
                  ("speedup_vs_reference", Json.Float speedup);
                ] ))
          [ (Walker.Reference, seq_ref); (Walker.Fastpath, seq_fast) ]
      in
      records :=
        (label, Json.Obj (walker_json @ [ ("seq", Json.Obj seq_json) ]))
        :: !records)
    suite;
  emit t;
  pf "\nSequential oracle (Seq_exec) over the whole space; [native] runs the\n";
  pf "same OCaml row bodies as [fast], so it has no row of its own:\n";
  emit ts;
  List.iter (fun (k, j) -> emit_json k j) (List.rev !records)

(* ---------------- serve load generator ---------------- *)

(* Drive the daemon programmatically with a mixed multi-tenant workload:
   distinct plan/simulate/tune configurations plus deliberate duplicates
   (the coalescing and plan-cache fodder). Reports end-to-end throughput
   and the server's own per-class latency percentiles, and rides the
   final metrics snapshot along in BENCH_serve.json. *)
let serve_target () =
  let module Server = Tiles_serve.Server in
  let module Job = Tiles_serve.Job in
  pf "\n=== Serve — multi-tenant compile-service load test ===\n";
  pf "(2 workers, capacity 64; every duplicate request is a coalesce or\n";
  pf " plan-cache opportunity — the hit/batch counters below are the\n";
  pf " amortization the daemon exists for)\n";
  let mk fields =
    match Job.of_json (Json.Obj fields) with
    | Ok j -> j
    | Error e -> failwith ("serve bench job: " ^ e)
  in
  let plan_job app size1 size2 =
    mk
      [
        ("op", Json.Str "plan"); ("app", Json.Str app);
        ("size1", Json.Int size1); ("size2", Json.Int size2);
        ("variant", Json.Str (if app = "adi" then "nr1" else "nonrect"));
      ]
  in
  let sim_job app size1 size2 =
    mk
      [
        ("op", Json.Str "simulate"); ("app", Json.Str app);
        ("size1", Json.Int size1); ("size2", Json.Int size2);
        ("variant", Json.Str (if app = "adi" then "nr3" else "nonrect"));
      ]
  in
  let tune_job app =
    mk
      [
        ("op", Json.Str "tune"); ("app", Json.Str app);
        ("size1", Json.Int 10); ("size2", Json.Int 12);
        ("variant", Json.Str (if app = "adi" then "nr1" else "nonrect"));
        ("procs", Json.Int 4);
        ("factors", Json.List [ Json.Int 2; Json.Int 3 ]);
      ]
  in
  (* 12 distinct plans x3 copies, 6 distinct sims x2, 2 tunes x2:
     52 requests over 20 unique configurations *)
  let distinct_plans =
    List.concat_map
      (fun (s1, s2) ->
        [ plan_job "sor" s1 s2; plan_job "jacobi" s1 s2;
          plan_job "adi" s1 s2 ])
      [ (24, 32); (24, 48); (48, 32); (48, 64) ]
  in
  let distinct_sims =
    List.concat_map
      (fun (s1, s2) ->
        [ sim_job "sor" s1 s2; sim_job "jacobi" s1 s2; sim_job "adi" s1 s2 ])
      [ (16, 24); (24, 32) ]
  in
  let tunes = [ tune_job "sor"; tune_job "adi" ] in
  let workload =
    List.concat
      [
        distinct_plans; distinct_plans; distinct_plans;
        distinct_sims; distinct_sims;
        tunes; tunes;
      ]
  in
  let config =
    { Server.default_config with Server.capacity = 64; workers = 2 }
  in
  let t0 = Unix.gettimeofday () in
  let server = Server.create ~config () in
  let lock = Mutex.create () in
  let ok = ref 0 and failed = ref 0 in
  let respond j =
    Mutex.lock lock;
    (match Json.member "status" j with
    | Some (Json.Str "ok") -> incr ok
    | _ -> incr failed);
    Mutex.unlock lock
  in
  List.iter (fun job -> Server.submit server ~respond job) workload;
  Server.drain server;
  let elapsed = Unix.gettimeofday () -. t0 in
  let snapshot = Server.metrics_json server in
  Server.shutdown server;
  let n = List.length workload in
  let t = Table.create ~header:[ "requests"; "unique"; "ok"; "failed";
                                 "elapsed s"; "req/s" ] in
  Table.add_row t
    [
      string_of_int n;
      string_of_int
        (List.length distinct_plans + List.length distinct_sims
        + List.length tunes);
      string_of_int !ok;
      string_of_int !failed;
      Printf.sprintf "%.3f" elapsed;
      Printf.sprintf "%.0f" (float_of_int n /. elapsed);
    ];
  emit t;
  (* per-class latency straight from the daemon's own metrics *)
  let get path j =
    List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j)
      path
  in
  let num path j =
    match get path j with
    | Some v -> Option.value ~default:nan (Json.to_float_opt v)
    | None -> nan
  in
  let lat =
    Table.create
      ~header:
        [ "class"; "count"; "queued p50 ms"; "service p50 ms";
          "total p50 ms"; "total p99 ms" ]
  in
  (match get [ "jobs"; "classes" ] snapshot with
  | Some (Json.Obj classes) ->
    List.iter
      (fun (cls, cj) ->
        Table.add_row lat
          [
            cls;
            Printf.sprintf "%.0f" (num [ "count" ] cj);
            Printf.sprintf "%.3f" (1e3 *. num [ "queued_s"; "p50" ] cj);
            Printf.sprintf "%.3f" (1e3 *. num [ "service_s"; "p50" ] cj);
            Printf.sprintf "%.3f" (1e3 *. num [ "total_s"; "p50" ] cj);
            Printf.sprintf "%.3f" (1e3 *. num [ "total_s"; "p99" ] cj);
          ])
      classes
  | _ -> pf "WARNING: no per-class latency in the snapshot\n");
  emit lat;
  let amort = Table.create ~header:[ "counter"; "value" ] in
  List.iter
    (fun (label, path) ->
      Table.add_row amort
        [ label; Printf.sprintf "%.0f" (num path snapshot) ])
    [
      ("admitted", [ "queue"; "accepted" ]);
      ("admission rejects", [ "queue"; "rejected_full" ]);
      ("queue high water", [ "queue"; "high_water" ]);
      ("coalesced (batched)", [ "coalesce"; "batched" ]);
      ("plan-cache hits", [ "plan_cache"; "hits" ]);
      ("plan-cache misses", [ "plan_cache"; "misses" ]);
      ("plan compiles", [ "plan_cache"; "compiles" ]);
    ];
  emit amort;
  if !failed > 0 then pf "WARNING: %d requests failed\n" !failed;
  emit_json "throughput"
    (Json.Obj
       [
         ("requests", Json.Int n);
         ("ok", Json.Int !ok);
         ("failed", Json.Int !failed);
         ("elapsed_s", Json.Float elapsed);
         ("requests_per_s", Json.Float (float_of_int n /. elapsed));
       ]);
  emit_json "metrics" snapshot

(* ---------------- driver ---------------- *)

let figures =
  [
    ("fig5", fig5); ("fig6", fig6); ("fig7", fig7); ("fig8", fig8);
    ("fig9", fig9); ("fig10", fig10); ("summary", summary);
    ("analytic", analytic); ("ablation-net", ablation_net);
    ("ablation-map", ablation_map); ("ablation-overlap", ablation_overlap);
    ("ablation-tune", ablation_tune);
    ("memory", memory); ("model", model); ("trace", trace_target);
    ("analyze", analyze_target);
    ("perf", perf_target); ("micro", micro); ("kernels", kernels_target);
    ("serve", serve_target);
  ]

let default = [ "fig5"; "fig6"; "fig7"; "fig8"; "fig9"; "fig10"; "summary"; "analytic" ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json = List.mem "--json" args in
  let args = List.filter (fun a -> a <> "--json") args in
  let targets =
    match args with
    | [] -> default
    | [ "everything" ] -> List.map fst figures
    | args -> args
  in
  pf "Reproduction harness — \"Compiling Tiled Iteration Spaces for Clusters\"\n";
  pf "simulated cluster: 16 nodes, %.0f Mbit/s, %.0f us latency, %.0f ns/point\n"
    (net.Netmodel.bandwidth *. 8. /. 1e6)
    (net.Netmodel.latency *. 1e6)
    (net.Netmodel.flop_time *. 1e9);
  List.iter
    (fun name ->
      match List.assoc_opt name figures with
      | Some f ->
        let t0 = Unix.gettimeofday () in
        collected := [];
        collected_json := [];
        f ();
        pf "[%s done in %.1fs]\n" name (Unix.gettimeofday () -. t0);
        if json then write_json ~target:name
      | None ->
        pf "unknown target %s (available: %s)\n" name
          (String.concat ", " (List.map fst figures));
        exit 1)
    targets
