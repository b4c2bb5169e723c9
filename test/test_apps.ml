module Polyhedron = Tiles_poly.Polyhedron
module Nest = Tiles_loop.Nest
module Dependence = Tiles_loop.Dependence
module Tiling = Tiles_core.Tiling
module Plan = Tiles_core.Plan
module Schedule = Tiles_core.Schedule
module Kernel = Tiles_runtime.Kernel
module Grid = Tiles_runtime.Grid
module Seq_exec = Tiles_runtime.Seq_exec
module Executor = Tiles_runtime.Executor
module Shm_executor = Tiles_runtime.Shm_executor
module Netmodel = Tiles_mpisim.Netmodel
module Sim = Tiles_mpisim.Sim
module Sor = Tiles_apps.Sor
module Jacobi = Tiles_apps.Jacobi
module Adi = Tiles_apps.Adi
module Experiment = Tiles_apps.Experiment
module Vec = Tiles_util.Vec
module Fbuf = Tiles_util.Fbuf
module Intmat = Tiles_linalg.Intmat
module Kir = Tiles_kir.Kir
module Triband = Tiles_apps.Triband

let net = Netmodel.fast_ethernet_cluster

(* the oracle is the boxed reference walk, which shares no row body with
   the run it checks, and the two must agree bit for bit *)
let check_equiv ~name ~nest ~kernel ~tiling ~m =
  let plan = Plan.make ~m nest tiling in
  let seq =
    Seq_exec.run ~variant:Tiles_runtime.Walker.Reference ~space:nest.Nest.space
      ~kernel ()
  in
  let r = Executor.run ~mode:Executor.Full ~plan ~kernel ~net () in
  match r.Executor.grid with
  | None -> Alcotest.fail "no grid"
  | Some g ->
    Alcotest.(check (float 0.))
      (name ^ ": parallel = sequential")
      0.
      (Grid.max_abs_diff g seq nest.Nest.space);
    r

(* ---------- dependence / skew structure ---------- *)

let test_sor_skewed_deps () =
  let p = Sor.make ~m_steps:4 ~size:5 in
  let nest = Sor.nest p in
  Alcotest.(check bool) "nonneg" true
    (Dependence.all_nonnegative nest.Nest.deps);
  (* the paper's skewed SOR dependence columns *)
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "dep %s" (Vec.to_string d))
        true
        (List.exists (Vec.equal d) (Dependence.vectors nest.Nest.deps)))
    [ [| 1; 1; 2 |]; [| 0; 1; 0 |]; [| 1; 0; 2 |]; [| 1; 1; 1 |]; [| 0; 0; 1 |] ]

let test_jacobi_skewed_deps () =
  let p = Jacobi.make ~t_steps:3 ~size:4 in
  let nest = Jacobi.nest p in
  Alcotest.(check bool) "nonneg" true (Dependence.all_nonnegative nest.Nest.deps);
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "dep %s" (Vec.to_string d))
        true
        (List.exists (Vec.equal d) (Dependence.vectors nest.Nest.deps)))
    [ [| 1; 1; 1 |]; [| 1; 2; 1 |]; [| 1; 0; 1 |]; [| 1; 1; 2 |]; [| 1; 1; 0 |] ]

let test_tilings_match_tiling_cone () =
  (* the non-rectangular rows the paper picks lie on the tiling cone of
     each algorithm (not in its interior) *)
  let check name nest rows =
    let cone = Nest.tiling_cone nest in
    List.iter
      (fun row ->
        Alcotest.(check bool)
          (Printf.sprintf "%s row %s in cone" name (Vec.to_string row))
          true
          (Tiles_poly.Cone.contains cone row))
      rows
  in
  check "sor" (Sor.nest (Sor.make ~m_steps:4 ~size:5))
    [ [| 1; 0; 0 |]; [| 0; 1; 0 |]; [| -1; 0; 1 |] ];
  check "adi" (Adi.nest (Adi.make ~t_steps:4 ~size:5))
    [ [| 1; -1; -1 |]; [| 0; 1; 0 |]; [| 0; 0; 1 |] ]

(* ---------- end-to-end correctness, all apps, all variants ---------- *)

let test_sor_equivalence () =
  let p = Sor.make ~m_steps:6 ~size:8 in
  let nest = Sor.nest p and kernel = Sor.kernel p in
  ignore
    (check_equiv ~name:"sor-rect" ~nest ~kernel ~m:Sor.mapping_dim
       ~tiling:(Sor.rect ~x:3 ~y:4 ~z:4));
  ignore
    (check_equiv ~name:"sor-nonrect" ~nest ~kernel ~m:Sor.mapping_dim
       ~tiling:(Sor.nonrect ~x:3 ~y:4 ~z:4))

let test_jacobi_equivalence () =
  let p = Jacobi.make ~t_steps:4 ~size:7 in
  let nest = Jacobi.nest p and kernel = Jacobi.kernel p in
  ignore
    (check_equiv ~name:"jacobi-rect" ~nest ~kernel ~m:Jacobi.mapping_dim
       ~tiling:(Jacobi.rect ~x:2 ~y:4 ~z:4));
  (* the non-rectangular Jacobi tiling exercises strides (1,2,1) *)
  ignore
    (check_equiv ~name:"jacobi-nonrect" ~nest ~kernel ~m:Jacobi.mapping_dim
       ~tiling:(Jacobi.nonrect ~x:2 ~y:4 ~z:4))

let test_adi_equivalence () =
  let p = Adi.make ~t_steps:5 ~size:8 in
  let nest = Adi.nest p and kernel = Adi.kernel p in
  List.iter
    (fun (name, mk) ->
      ignore
        (check_equiv ~name:("adi-" ^ name) ~nest ~kernel ~m:Adi.mapping_dim
           ~tiling:(mk ~x:3 ~y:4 ~z:4)))
    Adi.variants

let test_adi_values_finite () =
  (* B must stay away from zero for the kernel to be well-conditioned *)
  let p = Adi.make ~t_steps:8 ~size:8 in
  let nest = Adi.nest p in
  let g = Seq_exec.run ~space:nest.Nest.space ~kernel:(Adi.kernel p) () in
  Polyhedron.iter_points nest.Nest.space (fun j ->
      let b = Grid.get g j 1 in
      Alcotest.(check bool) "B bounded" true (Float.is_finite b && b > 1.0))

(* ---------- triband: non-box (triangular) iteration space ---------- *)

let test_triband_space_shape () =
  let p = Tiles_apps.Triband.make ~size:10 in
  let nest = Tiles_apps.Triband.nest p in
  (* triangular number of points *)
  Alcotest.(check int) "points" (10 * 11 / 2)
    (Polyhedron.count_points nest.Nest.space)

let test_triband_equivalence () =
  let p = Triband.make ~size:20 in
  let nest = Triband.nest p and kernel = Triband.kernel p in
  List.iter
    (fun (name, mk) ->
      ignore
        (check_equiv ~name:("triband-" ^ name) ~nest ~kernel ~m:0
           ~tiling:(mk ~x:4 ~y:5)))
    Triband.variants

let test_triband_boundary_tiles_partial () =
  (* tiles crossing the diagonal must report fewer points than the tile
     size, and the fast counter must agree with enumeration *)
  let module Tile_space = Tiles_core.Tile_space in
  let p = Triband.make ~size:17 in
  let nest = Triband.nest p in
  let tiling = Triband.oblique ~x:4 ~y:5 in
  let ts = Tile_space.make nest.Nest.space tiling in
  let clipped = ref 0 in
  List.iter
    (fun s ->
      let pts = Tile_space.tile_iterations ts s in
      if pts < Tiles_core.Tiling.tile_size tiling then incr clipped;
      Alcotest.(check bool) "nonneg" true (pts >= 0))
    (Tile_space.candidates ts);
  Alcotest.(check bool) "some tiles clipped by the diagonal" true (!clipped > 0)

(* ---------- experiment specs ---------- *)

let test_sor_spec_grid () =
  (* skewed i' spans [0, 46]; y = 6 gives exactly 8 tile columns *)
  let spec = Experiment.sor ~procs:8 ~factors:[ 4; 8 ] ~m_steps:20 ~size:28 () in
  Alcotest.(check int) "8 procs" 8 spec.Experiment.procs;
  Alcotest.(check int) "m" 2 spec.Experiment.m

let test_jacobi_spec_grid () =
  let spec =
    Experiment.jacobi ~procs:16 ~factors:[ 4 ] ~t_steps:12 ~size:24 ()
  in
  Alcotest.(check int) "16 procs" 16 spec.Experiment.procs

let test_adi_spec_grid () =
  let spec = Experiment.adi ~procs:16 ~factors:[ 4 ] ~t_steps:12 ~size:24 () in
  Alcotest.(check int) "16 procs" 16 spec.Experiment.procs

let test_sweep_nonrect_wins () =
  (* the paper's headline: at equal tile size / comm volume / procs, the
     non-rectangular tiling is at least as fast at every factor, and
     strictly faster somewhere *)
  let spec = Experiment.sor ~procs:8 ~factors:[ 3; 5; 8 ] ~m_steps:24 ~size:24 () in
  let runs = Experiment.sweep spec ~net in
  let by_factor f v =
    List.find_opt (fun r -> r.Experiment.factor = f && r.Experiment.variant = v) runs
  in
  let strictly = ref false in
  List.iter
    (fun f ->
      match (by_factor f "rect", by_factor f "nonrect") with
      | Some r, Some nr ->
        Alcotest.(check bool)
          (Printf.sprintf "nonrect >= rect at z=%d" f)
          true
          (nr.Experiment.speedup >= r.Experiment.speedup -. 1e-9);
        if nr.Experiment.speedup > r.Experiment.speedup +. 1e-9 then
          strictly := true
      | _ -> ())
    [ 3; 5; 8 ];
  Alcotest.(check bool) "strictly better somewhere" true !strictly

let test_comm_stats_match_executor () =
  (* the analytic §3.2 communication statistics must equal what the
     simulated execution actually sends *)
  let p = Sor.make ~m_steps:12 ~size:16 in
  let nest = Sor.nest p and kernel = Sor.kernel p in
  List.iter
    (fun (_, mk) ->
      let plan = Plan.make ~m:Sor.mapping_dim nest (mk ~x:6 ~y:7 ~z:4) in
      let msgs, cells = Plan.comm_stats plan in
      let r = Executor.run ~mode:Executor.Timing ~plan ~kernel ~net () in
      Alcotest.(check int) "messages" msgs r.Executor.stats.Sim.messages;
      Alcotest.(check int) "bytes" (cells * 8) r.Executor.stats.Sim.bytes)
    Sor.variants

let test_sweep_same_comm_volume () =
  (* rect and nonrect exchange the same bytes (§4.1's controlled design) *)
  let spec = Experiment.sor ~procs:8 ~factors:[ 4 ] ~m_steps:24 ~size:24 () in
  let runs = Experiment.sweep spec ~net in
  match runs with
  | [ a; b ] ->
    Alcotest.(check int) "same bytes" a.Experiment.bytes b.Experiment.bytes;
    Alcotest.(check int) "same tile size" a.Experiment.tile_size b.Experiment.tile_size;
    Alcotest.(check int) "same procs" a.Experiment.nprocs b.Experiment.nprocs
  | _ -> Alcotest.fail "expected two runs"

let test_best_by_variant () =
  let spec = Experiment.adi ~procs:4 ~factors:[ 3; 6 ] ~t_steps:12 ~size:12 () in
  let runs = Experiment.sweep spec ~net in
  let best = Experiment.best_by_variant runs in
  Alcotest.(check int) "four variants" 4 (List.length best);
  List.iter
    (fun (v, b) ->
      List.iter
        (fun r ->
          if r.Experiment.variant = v then
            Alcotest.(check bool) "is max" true
              (b.Experiment.speedup >= r.Experiment.speedup))
        runs)
    best

let test_improvement_pct_positive () =
  let spec = Experiment.sor ~procs:8 ~factors:[ 3; 5; 8 ] ~m_steps:24 ~size:24 () in
  let runs = Experiment.sweep spec ~net in
  Alcotest.(check bool) "positive" true (Experiment.improvement_pct runs > 0.)

(* the §4.1 closed-form schedule-length argument, checked exactly *)
let test_schedule_gap_formula () =
  (* t_r − t_nr = (steps difference) should be close to M/z tiles for SOR *)
  let m_steps = 24 and size = 24 in
  let p = Sor.make ~m_steps ~size in
  let nest = Sor.nest p in
  let x = m_steps and y = 8 and z = 6 in
  let s_r =
    Schedule.steps (Plan.make ~m:2 nest (Sor.rect ~x ~y ~z))
  in
  let s_nr =
    Schedule.steps (Plan.make ~m:2 nest (Sor.nonrect ~x ~y ~z))
  in
  let gap = s_r - s_nr in
  let predicted = m_steps / z in
  Alcotest.(check bool)
    (Printf.sprintf "gap %d within 1 of predicted %d" gap predicted)
    true
    (abs (gap - predicted) <= 1)

(* ---------- kernels derived from the IR ---------- *)

(* the values each kernel was hand-written with before it became IR:
   original-space reads in body order, width, nreads, uses_j, and the
   coordinates of its static lets *)
let test_derived_facts () =
  let check name ir (k : Kernel.t) ~skew ~reads ~width ~uses_j ~statics =
    let vecs = Alcotest.(list (array int)) in
    Alcotest.check vecs (name ^ " IR reads") reads (Kir.reads ir);
    Alcotest.check vecs (name ^ " kernel reads")
      (List.map (Intmat.apply skew) reads)
      k.Kernel.reads;
    Alcotest.(check int) (name ^ " width") width k.Kernel.width;
    Alcotest.(check int) (name ^ " nreads") (List.length reads) (Kir.nreads ir);
    Alcotest.(check bool) (name ^ " uses_j") uses_j k.Kernel.uses_j;
    Alcotest.(check (list (list int))) (name ^ " statics") statics
      (List.map snd (Kir.statics ir));
    Alcotest.(check (list (list int))) (name ^ " kernel statics") statics
      (Array.to_list (Array.map fst k.Kernel.statics))
  in
  let id n = Intmat.identity n in
  check "sor" Sor.ckernel (Sor.kernel (Sor.make ~m_steps:2 ~size:2))
    ~skew:Sor.skew_matrix
    ~reads:
      [ [| 0; 1; 0 |]; [| 0; 0; 1 |]; [| 1; -1; 0 |]; [| 1; 0; -1 |]; [| 1; 0; 0 |] ]
    ~width:1 ~uses_j:false ~statics:[];
  check "jacobi" Jacobi.ckernel (Jacobi.kernel (Jacobi.make ~t_steps:2 ~size:2))
    ~skew:Jacobi.skew_matrix
    ~reads:
      [ [| 1; 0; 0 |]; [| 1; 1; 0 |]; [| 1; -1; 0 |]; [| 1; 0; 1 |]; [| 1; 0; -1 |] ]
    ~width:1 ~uses_j:false ~statics:[];
  check "adi" Adi.ckernel (Adi.kernel (Adi.make ~t_steps:2 ~size:2)) ~skew:(id 3)
    ~reads:[ [| 1; 0; 0 |]; [| 1; 0; 1 |]; [| 1; 1; 0 |] ]
    ~width:2 ~uses_j:true ~statics:[ [ 1; 2 ] ];
  check "triband" Triband.ckernel (Triband.kernel (Triband.make ~size:2))
    ~skew:(id 2)
    ~reads:[ [| 1; 0 |]; [| 1; 1 |]; [| 0; 1 |] ]
    ~width:1 ~uses_j:true ~statics:[]

(* unimodular skews under which the ADI and triband dependences stay
   nonnegative, so rectangular tiles remain legal *)
let adi_skew = Intmat.of_rows [ [ 1; 0; 0 ]; [ 1; 1; 0 ]; [ 2; 1; 1 ] ]
let triband_skew = Intmat.of_rows [ [ 1; 0 ]; [ 1; 1 ] ]

(* a closure kernel of width 2 that reads [j], given no [~row]: the law
   below holds for the row {!Kernel.make} derives from its [compute],
   skewed too *)
let derived_kernel =
  Kernel.make ~name:"derived" ~dim:3 ~width:2
    ~reads:[ [| 1; 0; 0 |]; [| 1; 0; 1 |]; [| 1; 1; 0 |] ]
    ~boundary:(fun _ _ -> 1.)
    ~compute:(fun ~read ~j ~out ->
      let a = 0.25 +. (0.125 *. float_of_int ((j.(1) - (2 * j.(2))) land 3)) in
      out.(0) <- read 0 0 +. (a *. read 1 1) -. read 2 0;
      out.(1) <- read 1 0 /. (a +. read 2 1))
    ()

(* law: the row body and [compute], run in place
   over the same random interior data from the same random first point
   and step, write the same bits; the row reads its static lets from a
   table over the box the points span *)
let row_matches_compute (name, (k : Kernel.t)) =
  let nreads = List.length k.Kernel.reads and w = k.Kernel.width in
  let n = k.Kernel.dim in
  QCheck.Test.make ~count:300 ~name:(name ^ ": row = compute")
    QCheck.(
      quad
        (array_of_size (Gen.return nreads) (int_range (-16) (-1)))
        (int_range 1 24)
        (pair
           (array_of_size (Gen.return n) (int_range (-6) 6))
           (array_of_size (Gen.return n) (int_range (-2) 2)))
        int)
    (fun (taps, len, (j, jstep), seed) ->
      let rs = Random.State.make [| seed |] in
      let init =
        Array.init ((16 + len) * w) (fun _ -> Random.State.float rs 4. +. 1.)
      in
      let by_row = Fbuf.of_array init and by_compute = Fbuf.of_array init in
      let point s = Array.init n (fun c -> j.(c) + (s * jstep.(c))) in
      let lo = Array.map2 min (point 0) (point (len - 1)) in
      let dims =
        Array.init n (fun c -> abs (jstep.(c) * (len - 1)) + 1)
      in
      let coefs = Kernel.coefs k ~lo ~dims in
      k.Kernel.row ~la:by_row ~dst:16 ~taps ~len ~j:(Array.copy j) ~jstep ~coefs;
      let out = Array.make w 0. in
      for s = 0 to len - 1 do
        let i = 16 + s in
        k.Kernel.compute
          ~read:(fun r f -> by_compute.{((i + taps.(r)) * w) + f})
          ~j:(point s) ~out;
        Array.iteri (fun f v -> by_compute.{(i * w) + f} <- v) out
      done;
      Array.for_all2
        (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
        (Fbuf.to_array by_row) (Fbuf.to_array by_compute))

(* Run_spec.run over backend x overlap x mode x walker: every run of one
   configuration moves the same messages, bytes, points and tiles; every
   run that moves data reports an exact oracle check, and only those
   report a native walker's fallback (forced by hiding the compiler) *)
module Run_spec = Tiles_apps.Run_spec

let test_run_spec_table () =
  let configs =
    [
      ("sor", "nonrect", (6, 8, 8));
      ("jacobi", "nonrect", (4, 8, 16));
      ("adi", "nr3", (3, 8, 8));
    ]
  in
  let walkers = [ Tiles_runtime.Walker.Fastpath; Tiles_runtime.Walker.Native ] in
  Unix.putenv "TILEC_NO_CC" "1";
  Fun.protect ~finally:(fun () -> Unix.putenv "TILEC_NO_CC" "") @@ fun () ->
  List.iter
    (fun (app, variant, tile) ->
      let spec =
        { (Run_spec.default app) with variant; size1 = 12; size2 = 16; tile }
      in
      let r = Result.get_ok (Run_spec.resolve spec) in
      let plan =
        Plan.make ~m:r.Tiles_apps.Registry.m r.Tiles_apps.Registry.nest
          r.Tiles_apps.Registry.tiling
      in
      let counts (x : Run_spec.result) =
        [ x.messages; x.bytes; x.points; x.tiles ]
      in
      let first = ref None in
      List.iter
        (fun (backend, overlap, mode, walker) ->
          let name =
            Printf.sprintf "%s %s%s %s %s" app
              (Run_spec.backend_to_string backend)
              (if overlap then " overlap" else "")
              (match mode with Run_spec.Full -> "full" | Timing -> "timing")
              (Tiles_runtime.Walker.variant_to_string walker)
          in
          let x =
            Run_spec.run ~mode { spec with backend; overlap; walker } ~plan
              ~kernel:r.Tiles_apps.Registry.kernel
          in
          (match !first with
          | None -> first := Some (counts x)
          | Some c ->
            Alcotest.(check (list int)) (name ^ " counters") c (counts x));
          let moved_data = backend = Run_spec.Shm || mode = Run_spec.Full in
          Alcotest.(check (option (float 0.)))
            (name ^ " max_abs_err")
            (if moved_data then Some 0. else None)
            x.max_abs_err;
          Alcotest.(check bool)
            (name ^ " fallback")
            (moved_data && walker = Tiles_runtime.Walker.Native)
            (x.walker_fallback <> None);
          Alcotest.(check int) (name ^ " stats messages") x.messages
            (Lazy.force x.stats).Tiles_obs.Stats.messages)
        (List.concat_map
           (fun backend ->
             List.concat_map
               (fun overlap ->
                 List.concat_map
                   (fun mode ->
                     List.map (fun w -> (backend, overlap, mode, w)) walkers)
                   [ Run_spec.Full; Run_spec.Timing ])
               [ false; true ])
           [ Run_spec.Sim; Run_spec.Shm ]))
    configs

(* a traced run keeps its spans and edges but does not walk the critical
   path: the stats are built, and the path walked, only when asked for *)
let test_run_spec_stats_lazy () =
  let spec =
    { (Run_spec.default "sor") with size1 = 12; size2 = 16; backend = Shm }
  in
  let r = Result.get_ok (Run_spec.resolve spec) in
  let plan =
    Plan.make ~m:r.Tiles_apps.Registry.m r.Tiles_apps.Registry.nest
      r.Tiles_apps.Registry.tiling
  in
  let x =
    Run_spec.run ~keep:Run_spec.Timeline spec ~plan
      ~kernel:r.Tiles_apps.Registry.kernel
  in
  Alcotest.(check bool) "edges kept" true (x.edges <> []);
  Alcotest.(check bool) "stats not built by the run" false
    (Lazy.is_val x.stats);
  Alcotest.(check bool) "critical path on demand" true
    ((Lazy.force x.stats).Tiles_obs.Stats.critical_path > 0.)

(* one shm run reports one completion: the result's and its stats' are
   the same reading, whatever the recorder keeps *)
let test_run_spec_shm_one_completion () =
  let spec =
    { (Run_spec.default "sor") with size1 = 12; size2 = 16; backend = Shm }
  in
  let r = Result.get_ok (Run_spec.resolve spec) in
  let plan =
    Plan.make ~m:r.Tiles_apps.Registry.m r.Tiles_apps.Registry.nest
      r.Tiles_apps.Registry.tiling
  in
  let kernel = r.Tiles_apps.Registry.kernel in
  let check name (x : Run_spec.result) =
    Alcotest.(check bool) (name ^ ": completion positive") true
      (x.completion > 0.);
    Alcotest.(check bool) (name ^ ": stats completion is the run's") true
      (x.completion = (Lazy.force x.stats).Tiles_obs.Stats.completion)
  in
  let run keep = Run_spec.run ~keep spec ~plan ~kernel in
  check "timeline" (run Run_spec.Timeline);
  check "totals" (run Run_spec.Totals);
  check "counters" (run Run_spec.Counters)

(* what a run keeps: Totals and Timeline see the same longest waits (the
   sim is deterministic), Counters none; only Timeline keeps spans *)
let test_run_spec_keep () =
  let spec = { (Run_spec.default "sor") with size1 = 12; size2 = 16 } in
  let r = Result.get_ok (Run_spec.resolve spec) in
  let plan =
    Plan.make ~m:r.Tiles_apps.Registry.m r.Tiles_apps.Registry.nest
      r.Tiles_apps.Registry.tiling
  in
  let run keep =
    Run_spec.run ~mode:Run_spec.Timing ~keep spec ~plan
      ~kernel:r.Tiles_apps.Registry.kernel
  in
  let timeline = run Run_spec.Timeline
  and totals = run Run_spec.Totals
  and counters = run Run_spec.Counters in
  let waits (x : Run_spec.result) =
    List.map
      (fun (w : Tiles_obs.Span.t) -> (w.rank, w.t0, w.t1))
      x.longest_waits
  in
  Alcotest.(check bool) "waits kept" true (timeline.longest_waits <> []);
  Alcotest.(check bool) "totals keep the same waits" true
    (waits totals = waits timeline);
  Alcotest.(check int) "counters keep no waits" 0
    (List.length counters.longest_waits);
  Alcotest.(check bool) "only timeline keeps spans" true
    (timeline.spans <> [] && totals.spans = [] && counters.spans = []);
  Alcotest.(check bool) "only timeline keeps edges" true
    (timeline.edges <> [] && totals.edges = [] && counters.edges = [])

(* the run-failure texts the CLI and serve print: a message-carrying
   exception gives its message, the structured ones their printers *)
let test_run_spec_error_message () =
  Alcotest.(check string) "failure" "boom"
    (Run_spec.error_message (Failure "boom"));
  Alcotest.(check string) "zero factor" "singular tiling (zero tile factor)"
    (Run_spec.error_message Division_by_zero);
  Alcotest.(check string) "deadlock"
    "deadlock: rank 3 waiting on (src=2, tag=0)"
    (Run_spec.error_message
       (Sim.Deadlock "rank 3 waiting on (src=2, tag=0)"));
  let m =
    {
      Tiles_runtime.Protocol.mm_rank = 1;
      mm_stage = `Pack;
      mm_dm = [| 1; 0 |];
      mm_ts = 2;
      mm_expected = 4;
      mm_actual = 3;
    }
  in
  Alcotest.(check string) "slab mismatch"
    (Tiles_runtime.Protocol.slab_mismatch_to_string m)
    (Run_spec.error_message (Tiles_runtime.Protocol.Slab_mismatch m))

(* ---------- verify by digest ---------- *)

(* a test-only IR kernel: the skewed SOR kernel under an IR of its own
   name (so no other run shares its oracle memo entry), whose row body
   counts its calls. Only the fast sequential oracle calls row bodies
   here: the runs below use the [Reference] walker, and their expected
   grids come from the [Reference] oracle. *)
let counting_kernel ?(ir = true) name =
  let k = Sor.kernel (Sor.make ~m_steps:2 ~size:2) in
  let calls = Atomic.make 0 in
  let row ~la ~dst ~taps ~len ~j ~jstep ~coefs =
    Atomic.incr calls;
    k.Kernel.row ~la ~dst ~taps ~len ~j ~jstep ~coefs
  in
  let base = Option.get k.Kernel.ckernel in
  let ckernel =
    if ir then
      Some
        (Kir.make ~name ~dim:base.Kir.dim ~lets:base.Kir.lets ~out:base.Kir.out
           ~boundary:base.Kir.boundary ())
    else None
  in
  ({ k with Kernel.row; ckernel }, fun () -> Atomic.get calls)

let sor_space ~size1 ~size2 =
  (Sor.nest (Sor.make ~m_steps:size1 ~size:size2)).Nest.space

(* rows of one fast oracle run: the counter's step per oracle run *)
let oracle_runs ~rows_per_run calls = calls () / rows_per_run

(* the expected grid, from the oracle walk that calls no row body *)
let reference_grid ~space ~kernel =
  Seq_exec.run ~variant:Tiles_runtime.Walker.Reference ~space ~kernel ()

let check_exact name ~space ~kernel g =
  Alcotest.(check (float 0.)) name 0. (Seq_exec.max_abs_err ~space ~kernel g)

(* the SOR 8/12 plan of the run-spec memo tests, on [backend] *)
let memo_spec backend =
  let spec =
    {
      (Run_spec.default "sor") with
      size1 = 8;
      size2 = 12;
      tile = (3, 4, 4);
      walker = Tiles_runtime.Walker.Reference;
      backend;
    }
  in
  let r = Result.get_ok (Run_spec.resolve spec) in
  ( spec,
    Plan.make ~m:r.Tiles_apps.Registry.m r.Tiles_apps.Registry.nest
      r.Tiles_apps.Registry.tiling )

(* 5 runs of one problem on [backend] run the oracle once, and each
   reports a finite positive speedup *)
let once_per_problem backend name () =
  let kernel, calls = counting_kernel name in
  let spec, plan = memo_spec backend in
  let run () =
    let res = Run_spec.run spec ~plan ~kernel in
    Alcotest.(check bool)
      (Printf.sprintf "speedup %g finite and positive" res.speedup)
      true
      (Float.is_finite res.speedup && res.speedup > 0.);
    res.max_abs_err
  in
  Alcotest.(check (option (float 0.))) "first run exact" (Some 0.) (run ());
  let rows_per_run = calls () in
  Alcotest.(check bool) "the first run ran the oracle" true (rows_per_run > 0);
  for i = 2 to 5 do
    Alcotest.(check (option (float 0.)))
      (Printf.sprintf "run %d exact" i)
      (Some 0.) (run ())
  done;
  Alcotest.(check int) "5 runs, 1 oracle run" 1
    (oracle_runs ~rows_per_run calls)

let test_memo_once_per_problem = once_per_problem Run_spec.Sim "digest-once"
let test_shm_once_per_problem = once_per_problem Run_spec.Shm "shm-digest-once"

(* a shm run whose kernel perturbs its last point on the kernel's second
   run: the memo knows the problem, the digest differs, so the oracle
   reruns and the run reports its exact error. No point reads the last
   one, so the runs differ from the oracle there alone. *)
let test_shm_wrong_run_on_hit () =
  let kernel, calls = counting_kernel "shm-digest-wrong" in
  let spec, plan = memo_spec Run_spec.Shm in
  let space = plan.Plan.nest.Nest.space in
  let last = ref [||] in
  Polyhedron.iter_points space (fun p -> last := Array.copy p);
  (* the [Reference] walker computes through [compute], once per point
     per run; the fast oracle through the row body *)
  let seen = ref 0 in
  let compute ~read ~j ~out =
    kernel.Kernel.compute ~read ~j ~out;
    if j = !last then begin
      incr seen;
      if !seen = 2 then out.(0) <- out.(0) +. 0.375
    end
  in
  let wrong = { kernel with Kernel.compute } in
  let expected = reference_grid ~space ~kernel in
  let run () =
    Shm_executor.run ~walker:spec.Run_spec.walker ~plan ~kernel:wrong ()
  in
  let r1 = run () in
  Alcotest.(check (float 0.)) "first run exact" 0. r1.Shm_executor.max_abs_err;
  let rows_per_run = calls () in
  let r2 = run () in
  let err = Grid.max_abs_diff r2.Shm_executor.grid expected space in
  Alcotest.(check bool) "the second run is wrong" true (err > 0.);
  Alcotest.(check int64) "the oracle's exact error" (Int64.bits_of_float err)
    (Int64.bits_of_float r2.Shm_executor.max_abs_err);
  Alcotest.(check int) "a mismatch reruns the oracle" 2
    (oracle_runs ~rows_per_run calls);
  Alcotest.(check bool) "each run timed an oracle" true
    (r1.Shm_executor.seq_wall_seconds > 0.
    && r2.Shm_executor.seq_wall_seconds > 0.);
  let r3 = run () in
  Alcotest.(check (float 0.)) "third run exact" 0. r3.Shm_executor.max_abs_err;
  Alcotest.(check int) "and a hit again" 2 (oracle_runs ~rows_per_run calls)

(* a memo hit whose grid differs in one in-space cell reruns the oracle
   and reports its exact difference *)
let test_memo_tampered_cell () =
  let kernel, calls = counting_kernel "digest-tamper" in
  let space = sor_space ~size1:4 ~size2:6 in
  let g = reference_grid ~space ~kernel in
  check_exact "primed" ~space ~kernel g;
  let rows_per_run = calls () in
  check_exact "hit" ~space ~kernel g;
  Alcotest.(check int) "a hit runs no oracle" 1
    (oracle_runs ~rows_per_run calls);
  let j = ref [||] in
  Polyhedron.iter_points space (fun p -> if !j = [||] then j := Array.copy p);
  let v = Grid.get g !j 0 in
  Grid.set g !j 0 (v +. 0.375);
  let expected = Float.abs (v +. 0.375 -. v) in
  let err = Seq_exec.max_abs_err ~space ~kernel g in
  Alcotest.(check bool) "nonzero" true (err > 0.);
  Alcotest.(check int64) "the oracle's exact error"
    (Int64.bits_of_float expected) (Int64.bits_of_float err);
  Alcotest.(check int) "a mismatch reruns the oracle" 2
    (oracle_runs ~rows_per_run calls)

(* a kernel without IR has no memo key *)
let test_memo_no_ir () =
  let kernel, calls = counting_kernel ~ir:false "digest-no-ir" in
  let space = sor_space ~size1:4 ~size2:6 in
  let g = reference_grid ~space ~kernel in
  check_exact "first" ~space ~kernel g;
  let rows_per_run = calls () in
  for _ = 1 to 3 do
    check_exact "again" ~space ~kernel g
  done;
  Alcotest.(check int) "every check runs the oracle" 4
    (oracle_runs ~rows_per_run calls)

(* the memo key is the problem's content: the same IR under another
   skew, or over another space, is another problem *)
let test_memo_key () =
  let kernel, calls = counting_kernel "digest-key" in
  let space = sor_space ~size1:4 ~size2:6 in
  let g = reference_grid ~space ~kernel in
  let oracle_ran ~kernel ~space g =
    let before = calls () in
    check_exact "exact" ~space ~kernel g;
    calls () > before
  in
  Alcotest.(check bool) "primed" true (oracle_ran ~kernel ~space g);
  Alcotest.(check bool) "hit" false (oracle_ran ~kernel ~space g);
  let unskewed = { kernel with Kernel.skew = Intmat.identity 3 } in
  Alcotest.(check bool) "another skew" true
    (oracle_ran ~kernel:unskewed ~space g);
  let cut =
    Polyhedron.add space
      (Tiles_poly.Constr.make ~coeffs:[| 1; 0; 0 |] ~const:(-2))
  in
  Alcotest.(check bool) "another space" true
    (oracle_ran ~kernel ~space:cut (reference_grid ~space:cut ~kernel))

(* one more problem than the memo holds evicts the least recently used;
   it is then checked by the oracle again, and still exactly *)
let test_memo_eviction () =
  let kernel, calls = counting_kernel "digest-evict" in
  let problems =
    List.init (Seq_exec.memo_capacity + 1) (fun i ->
        let space = sor_space ~size1:2 ~size2:(3 + i) in
        (space, reference_grid ~space ~kernel))
  in
  (* each check's oracle rows, or 0 when the oracle did not run *)
  let rows (space, g) =
    let before = calls () in
    check_exact "exact" ~space ~kernel g;
    calls () - before
  in
  List.iter
    (fun p -> Alcotest.(check bool) "miss" true (rows p > 0))
    problems;
  let last = List.nth problems Seq_exec.memo_capacity in
  Alcotest.(check int) "the newest is a hit" 0 (rows last);
  Alcotest.(check bool) "the oldest was evicted" true
    (rows (List.hd problems) > 0);
  Alcotest.(check int) "and is remembered again" 0 (rows (List.hd problems))

(* two worker domains race sim execute jobs of one problem (distinct
   walkers and schedules, so none coalesces): every reply is exact *)
let test_memo_server_domains () =
  let module Json = Tiles_util.Json in
  let module Server = Tiles_serve.Server in
  let module Job = Tiles_serve.Job in
  let lock = Mutex.create () and replies = ref [] in
  let respond j = Mutex.protect lock (fun () -> replies := j :: !replies) in
  let t =
    Server.create
      ~config:{ Server.default_config with Server.capacity = 16; workers = 2 }
      ()
  in
  let job id walker overlap =
    match
      Job.of_json
        (Json.Obj
           [
             ("id", Json.Str id); ("op", Json.Str "execute");
             ("app", Json.Str "jacobi"); ("size1", Json.Int 10);
             ("size2", Json.Int 14); ("backend", Json.Str "sim");
             ("walker", Json.Str walker); ("overlap", Json.Bool overlap);
           ])
    with
    | Ok j -> j
    | Error e -> Alcotest.failf "job: %s" e
  in
  for round = 1 to 3 do
    List.iter
      (fun (walker, overlap) ->
        Server.submit t ~respond
          (job (Printf.sprintf "%d-%s-%b" round walker overlap) walker overlap))
      [
        ("fast", false); ("fast", true); ("reference", false);
        ("reference", true);
      ];
    Server.drain t
  done;
  Server.shutdown t;
  Alcotest.(check int) "all answered" 12 (List.length !replies);
  List.iter
    (fun r ->
      Alcotest.(check (option string)) "ok" (Some "ok")
        (Option.bind (Json.member "status" r) Json.to_str_opt);
      Alcotest.(check bool) "max_abs_err 0" true
        (Json.member "max_abs_err" r = Some (Json.Float 0.)))
    !replies

let () =
  Alcotest.run "tiles_apps"
    [
      ( "kernels",
        Alcotest.test_case "derived facts" `Quick test_derived_facts
        :: List.map
             (fun app -> QCheck_alcotest.to_alcotest (row_matches_compute app))
             [
               ("sor", Sor.kernel (Sor.make ~m_steps:2 ~size:2));
               ("jacobi", Jacobi.kernel (Jacobi.make ~t_steps:2 ~size:2));
               ("adi", Adi.kernel (Adi.make ~t_steps:2 ~size:2));
               ("triband", Triband.kernel (Triband.make ~size:2));
               ( "adi-skewed",
                 Kernel.skewed (Adi.kernel (Adi.make ~t_steps:2 ~size:2))
                   adi_skew );
               ( "triband-skewed",
                 Kernel.skewed (Triband.kernel (Triband.make ~size:2))
                   triband_skew );
               ("derived-skewed", Kernel.skewed derived_kernel adi_skew);
             ] );
      ( "structure",
        [
          Alcotest.test_case "sor skewed deps" `Quick test_sor_skewed_deps;
          Alcotest.test_case "jacobi skewed deps" `Quick test_jacobi_skewed_deps;
          Alcotest.test_case "rows on tiling cone" `Quick test_tilings_match_tiling_cone;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "sor" `Quick test_sor_equivalence;
          Alcotest.test_case "jacobi" `Quick test_jacobi_equivalence;
          Alcotest.test_case "adi" `Quick test_adi_equivalence;
          Alcotest.test_case "adi well-conditioned" `Quick test_adi_values_finite;
          Alcotest.test_case "triband space" `Quick test_triband_space_shape;
          Alcotest.test_case "triband (triangular space)" `Quick test_triband_equivalence;
          Alcotest.test_case "triband clipped tiles" `Quick test_triband_boundary_tiles_partial;
        ] );
      ( "run spec",
        [
          Alcotest.test_case "backend x overlap x mode" `Quick
            test_run_spec_table;
          Alcotest.test_case "traced shm stats stay lazy" `Quick
            test_run_spec_stats_lazy;
          Alcotest.test_case "one shm completion" `Quick
            test_run_spec_shm_one_completion;
          Alcotest.test_case "what each keep keeps" `Quick test_run_spec_keep;
          Alcotest.test_case "run-failure text" `Quick
            test_run_spec_error_message;
          Alcotest.test_case "oracle once per problem" `Quick
            test_memo_once_per_problem;
          Alcotest.test_case "tampered cell on a memo hit" `Quick
            test_memo_tampered_cell;
          Alcotest.test_case "no IR, no memo" `Quick test_memo_no_ir;
          Alcotest.test_case "memo key" `Quick test_memo_key;
          Alcotest.test_case "memo eviction" `Quick test_memo_eviction;
          Alcotest.test_case "memo across domains" `Quick
            test_memo_server_domains;
          Alcotest.test_case "shm: oracle once per problem" `Quick
            test_shm_once_per_problem;
          Alcotest.test_case "shm: wrong run on a memo hit" `Quick
            test_shm_wrong_run_on_hit;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "sor grid" `Quick test_sor_spec_grid;
          Alcotest.test_case "jacobi grid" `Quick test_jacobi_spec_grid;
          Alcotest.test_case "adi grid" `Quick test_adi_spec_grid;
          Alcotest.test_case "nonrect wins" `Quick test_sweep_nonrect_wins;
          Alcotest.test_case "controlled comm volume" `Quick test_sweep_same_comm_volume;
          Alcotest.test_case "analytic comm stats" `Quick test_comm_stats_match_executor;
          Alcotest.test_case "best by variant" `Quick test_best_by_variant;
          Alcotest.test_case "improvement pct" `Quick test_improvement_pct_positive;
          Alcotest.test_case "schedule gap formula" `Quick test_schedule_gap_formula;
        ] );
    ]
