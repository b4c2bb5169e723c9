(* The [compile] workload: cold compilation, one op at a time.

   A build op plans a configuration, generates its MPI C program,
   compiles its native row kernel into an emptied cache (so [cc] really
   runs) and simulates it in Timing mode; a tune op runs a small
   autotuning search. Planning, emission, the C compiler, the
   discrete-event simulator and the tuner do the work; no walker runs. *)

open Common
module Plan = Tiles_core.Plan
module Executor = Tiles_runtime.Executor
module Native_kernel = Tiles_runtime.Native_kernel
module Sim = Tiles_mpisim.Sim
module Tune = Tiles_tune.Tune
module Experiment = Tiles_apps.Experiment

type build = { label : string; app : app; tiling : Tiling.t }

type tune = { tlabel : string; tapp : app; procs : int; factors : int list }

type state = { seed : int; builds : build list; tunes : tune list }

(* one of the paper's 16-rank configurations: the spec's grid search
   fixes the processor grid *)
let paper_build (spec : Experiment.spec) ~variant ~size1 ~size2 ~factor =
  {
    label =
      Printf.sprintf "%s %d/%d %s f=%d" spec.Experiment.name size1 size2
        variant factor;
    app = app spec.Experiment.name ~size1 ~size2;
    tiling = (List.assoc variant spec.Experiment.variants) factor;
  }

(* a wide tile: 1-2 ranks and 0.5-2 M points per tile, where planning
   dominates the op *)
let wide_build name ~variant ~size1 ~size2 tile =
  let a = app name ~size1 ~size2 in
  let x, y, z = tile in
  {
    label = Printf.sprintf "%s %d/%d %s %dx%dx%d" name size1 size2 variant x y z;
    app = a;
    tiling = tiling a ~variant tile;
  }

(* The first [cc] of a process pays for loading the compiler; set-up
   pays it once with a small kernel, so every build op is equally cold. *)
let warm_cc () =
  let a = app "sor" ~size1:4 ~size2:8 in
  let plan = Plan.make ~m:a.m a.nest (tiling a ~variant:"rect" (4, 4, 4)) in
  ignore (Native_kernel.build ~plan ~kernel:a.kernel ());
  empty_native_cache ()

let setup ~seed =
  empty_native_cache ();
  warm_cc ();
  let builds =
    [
      paper_build
        (Experiment.sor ~m_steps:100 ~size:200 ())
        ~variant:"nonrect" ~size1:100 ~size2:200 ~factor:16;
      paper_build
        (Experiment.jacobi ~t_steps:50 ~size:100 ())
        ~variant:"nonrect" ~size1:50 ~size2:100 ~factor:10;
      paper_build
        (Experiment.adi ~t_steps:100 ~size:128 ())
        ~variant:"nr1" ~size1:100 ~size2:128 ~factor:6;
      wide_build "sor" ~variant:"nonrect" ~size1:8 ~size2:512 (8, 512, 512);
      wide_build "sor" ~variant:"rect" ~size1:16 ~size2:256 (16, 256, 256);
      wide_build "adi" ~variant:"nr3" ~size1:32 ~size2:128 (32, 128, 128);
    ]
  in
  let tune name ~size1 ~size2 ~procs ~factors =
    {
      tlabel = Printf.sprintf "tune %s %d/%d procs=%d" name size1 size2 procs;
      tapp = app name ~size1 ~size2;
      procs;
      factors;
    }
  in
  let tunes =
    [
      tune "sor" ~size1:10 ~size2:12 ~procs:4 ~factors:[ 2; 3 ];
      tune "adi" ~size1:10 ~size2:12 ~procs:4 ~factors:[ 2; 3 ];
      tune "jacobi" ~size1:4 ~size2:6 ~procs:2 ~factors:[ 2 ];
    ]
  in
  { seed; builds; tunes }

let build_op b () =
  let a = b.app in
  let plan = Span.with_ "plan" (fun () -> Plan.make ~m:a.m a.nest b.tiling) in
  let src =
    Span.with_ "emit"
      ~attrs:(fun s -> [ ("bytes", float_of_int (String.length s)) ])
      (fun () ->
        Tiles_codegen.Mpigen.generate ~plan ~kernel:a.ckernel ~reads:a.creads
          ?skew:a.skew ())
  in
  Span.with_ "bench" empty_native_cache;
  let native =
    Span.with_ "native"
      ~attrs:(fun r -> [ ("fallback", if Result.is_ok r then 0. else 1.) ])
      (fun () -> Native_kernel.build ~plan ~kernel:a.kernel ())
  in
  let r =
    Span.with_ "sim"
      ~attrs:(fun r ->
        [
          ("tiles", float_of_int r.Executor.tiles_executed);
          ("messages", float_of_int r.Executor.stats.Sim.messages);
        ])
      (fun () ->
        Executor.run ~mode:Executor.Timing ~plan ~kernel:a.kernel ~net ())
  in
  Span.with_ "verify" (fun () ->
      let messages, cells = Plan.comm_stats plan in
      let native_ok =
        match native with
        | Ok _ -> true
        | Error reason ->
          warn "%s: native fallback: %s" b.label reason;
          not (Native_kernel.available ())
      in
      let comm_ok =
        messages = r.Executor.stats.Sim.messages
        && cells * 8 * a.kernel.Kernel.width = r.Executor.stats.Sim.bytes
      in
      if not comm_ok then warn "%s: DES traffic differs from comm_stats" b.label;
      (native_ok && comm_ok && String.length src > 0, r.Executor.points_computed))

let tune_op t () =
  let options =
    {
      Tune.default_options with
      Tune.procs = t.procs;
      factors = t.factors;
      top_k = 3;
      workers = 1;
      cache_dir = None;
    }
  in
  let r =
    Span.with_ "tune"
      ~attrs:(fun r ->
        [
          ("generated", float_of_int r.Tune.generated);
          ("feasible", float_of_int r.Tune.feasible);
          ("simulated", float_of_int (List.length r.Tune.simulated));
        ])
      (fun () ->
        Tune.search ~options ~nest:t.tapp.nest ~kernel:t.tapp.kernel ~net ())
  in
  Span.with_ "verify" (fun () ->
      let ok = r.Tune.best.Tune.score <> None && r.Tune.feasible >= 1 in
      if not ok then warn "%s: no scored best candidate" t.tlabel;
      (ok, 0))

let deck st round =
  shuffle (rng st.seed (100 + round))
    (List.map (fun b -> ("build", build_op b)) st.builds
    @ List.map (fun t -> ("tune", tune_op t)) st.tunes)

let window st ~seconds = run_decks ~seconds (deck st)
