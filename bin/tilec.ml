(* tilec — the command-line face of the tiling compiler.

   Subcommands:
     plan       derive and print the parallelisation plan for an algorithm
     cone       print the algorithm's tiling cone (extreme rays)
     emit-mpi   generate the data-parallel MPI C program
     emit-seq   generate the sequential tiled C program
     emit-pseq  generate the parametric sequential program (sizes at runtime)
     simulate   run the plan on the simulated cluster and report speedup
                (--full verifies, --overlap uses non-blocking sends,
                 --utilisation prints the traced busy/wait breakdown,
                 --trace FILE writes a Chrome trace-event JSON)
     trace      run traced (simulator or shared memory), export the Chrome
                trace-event JSON / SVG timeline, print aggregate stats
     analyze    causal critical-path analysis of a traced run (fresh or
                --from a Chrome artifact): breakdown table, laggards and
                slack, --svg timeline with the path highlighted, --out
                Chrome JSON with message flow events; --stream swaps the
                exact trace for O(ranks) streaming aggregation
     tune       search tile shape, size and mapping for the best plan
     perf       repeated timed runs with distribution statistics;
                --record writes a baseline, --check gates against it
     serve      persistent multi-tenant compile service over line-delimited
                JSON (stdin/stdout or --socket), with admission control,
                plan caching and request coalescing

   Exit codes (documented in README "Exit codes"):
     0    success
     1    runtime failure (illegal/singular tiling, unknown app or
          variant, I/O error, …)
     2    perf --check found a regression, counter drift or metadata
          mismatch
     3    slab protocol mismatch between communicating ranks
          (Protocol.Slab_mismatch — a compiler bug, not a user error)
     4    deadlock on either backend (Sim.Deadlock — a schedule that can
          never complete; every blocked (rank, src, tag) is named; a rank
          that raises ends the run with its own error instead)
     124  command-line usage error (Cmdliner's cli_error default) *)

open Cmdliner

module Plan = Tiles_core.Plan
module Schedule = Tiles_core.Schedule
module Shm_executor = Tiles_runtime.Shm_executor
module Protocol = Tiles_runtime.Protocol
module Walker = Tiles_runtime.Walker
module Kernel = Tiles_runtime.Kernel
module Chrome = Tiles_obs.Chrome
module Stats = Tiles_obs.Stats
module Span = Tiles_obs.Span
module Critpath = Tiles_obs.Critpath
module Netmodel = Tiles_mpisim.Netmodel
module Nest = Tiles_loop.Nest

module Registry = Tiles_apps.Registry
module Run_spec = Tiles_apps.Run_spec

(* Exit codes: each failure class gets its own code (see the header
   comment) so scripts and CI can react without parsing stderr.
   Distinct from Cmdliner's own codes (124 usage, 125 internal). *)
let exit_runtime = 1
let exit_regression = 2
let exit_slab_mismatch = 3
let exit_deadlock = 4

(* User errors (illegal or singular tiling matrices, infeasible factors,
   unknown variants…) surface as raised exceptions from the libraries;
   report them as a one-line message with the class's exit code, never a
   backtrace. *)
let guard f =
  let fail code e =
    Printf.eprintf "tilec: error: %s\n" (Run_spec.error_message e);
    exit code
  in
  try f () with
  | ( Invalid_argument _ | Failure _ | Sys_error _ | Division_by_zero
    | Tiles_runtime.Lds_pool.Not_poisoned _ ) as e ->
    fail exit_runtime e
  | Tiles_mpisim.Sim.Deadlock _ as e -> fail exit_deadlock e
  | Protocol.Slab_mismatch _ as e -> fail exit_slab_mismatch e

(* ---------------- common options ---------------- *)

let app_arg =
  Arg.(required & opt (some string) None & info [ "app" ] ~docv:"NAME"
         ~doc:"Algorithm: sor, jacobi or adi.")

(* which network model the simulator charges communication under; parsed
   once by Cmdliner so a bad spec is a usage error, not a runtime one *)
let net_conv =
  let parse s =
    match Netmodel.of_spec s with Ok n -> Ok n | Error e -> Error (`Msg e)
  in
  let print ppf n = Format.pp_print_string ppf (Netmodel.model_id n) in
  Arg.conv ~docv:"MODEL" (parse, print)

let net_arg =
  Arg.(value
       & opt net_conv Netmodel.fast_ethernet_cluster
       & info [ "net" ] ~docv:"MODEL"
           ~doc:"Simulator network model: $(b,alpha-beta) (every concurrent \
                 transfer gets full bandwidth; the default) or \
                 $(b,contended[:key=value,…]) with per-rank NIC lanes and \
                 FIFO serialisation. Keys: $(b,snd)/$(b,rcv) (lane counts, \
                 default 1), $(b,lanes) (sets both), $(b,uplink) (shared \
                 egress cap, bytes/s), $(b,bw) (wire bytes/s), $(b,lat) \
                 (seconds). Sim backend only; queueing is charged \
                 explicitly and shows up as nic-queue time in \
                 $(b,analyze).")

(* The run spec's knobs a subcommand exposes as flags; the others keep
   their {!Run_spec.default}. *)
type knob = Sizes | Tiling | Backend | Overlap | Net | Walker

(* the one Cmdliner term for a {!Run_spec.t}: a new spec knob is a field
   there plus one flag here *)
let spec_term ?app:(app_t = app_arg) knobs =
  let d = Run_spec.default "" in
  let knob k default arg =
    if List.mem k knobs then arg else Term.const default
  in
  let size1 =
    Arg.(value & opt int d.size1 & info [ "t"; "M" ] ~docv:"N"
           ~doc:"Time-like extent (M for SOR, T for Jacobi/ADI).")
  in
  let size2 =
    Arg.(value & opt int d.size2 & info [ "n"; "N" ] ~docv:"N"
           ~doc:"Spatial extent (N, or I=J).")
  in
  let variant =
    Arg.(value & opt string d.variant & info [ "variant" ] ~docv:"V"
           ~doc:"Tiling variant (rect, nonrect; for ADI: rect, nr1, nr2, \
                 nr3).")
  in
  let tile =
    let x0, y0, z0 = d.tile in
    let x = Arg.(value & opt int x0 & info [ "x" ] ~doc:"Tile factor x.") in
    let y = Arg.(value & opt int y0 & info [ "y" ] ~doc:"Tile factor y.") in
    let z = Arg.(value & opt int z0 & info [ "z" ] ~doc:"Tile factor z.") in
    Term.(const (fun x y z -> (x, y, z)) $ x $ y $ z)
  in
  (* an unknown --backend must be a Cmdliner usage error listing sim|shm,
     not a raw exception from deep inside the run *)
  let backend =
    Arg.(value
         & opt (enum [ ("sim", Run_spec.Sim); ("shm", Run_spec.Shm) ]) d.backend
         & info [ "backend" ] ~docv:"B"
             ~doc:"Execution backend: $(b,sim) (discrete-event simulator, \
                   virtual time) or $(b,shm) (real shared memory: rank \
                   fibers on OCaml domains, wall time).")
  in
  let overlap =
    Arg.(value & flag & info [ "overlap" ]
           ~doc:"Use the §5 overlapped schedule (the paper's future work): \
                 pre-posted receives on both backends, non-blocking \
                 sends on the sim backend (a shm send never blocks). \
                 Perf baselines get an $(b,-overlap) file-name suffix.")
  in
  (* which tile-execution engine runs the data movement and arithmetic;
     only meaningful where real data flows (simulate --full, trace, shm) *)
  let walker =
    Arg.(value
         & opt
             (enum
                (List.map
                   (fun w -> (Walker.variant_to_string w, w))
                   Walker.all_variants))
             d.walker
         & info [ "walker" ] ~docv:"W"
             ~doc:"Tile-execution engine: $(b,reference) (per-point oracle), \
                   $(b,fast) (strength-reduced rows with contiguous-row \
                   blits and unrolled row bodies; the default) or \
                   $(b,native) (row bodies compiled to machine code through \
                   the system C compiler at plan time; falls back to \
                   $(b,fast) with a notice when no compiler is available). \
                   All three produce bit-identical results.")
  in
  let spec app size1 size2 (variant, tile) backend overlap net walker =
    { Run_spec.app; variant; size1; size2; tile; backend; overlap; net; walker }
  in
  Term.(const spec $ app_t
        $ knob Sizes d.size1 size1 $ knob Sizes d.size2 size2
        $ knob Tiling (d.variant, d.tile)
            (const (fun v t -> (v, t)) $ variant $ tile)
        $ knob Backend d.backend backend $ knob Overlap d.overlap overlap
        $ knob Net d.net net_arg $ knob Walker d.walker walker)

(* resolution failures (unknown app or variant, bad sizes, an illegal or
   singular tiling) reach [guard] as one-line errors *)
let resolve spec =
  Result.fold ~ok:Fun.id ~error:failwith (Run_spec.resolve spec)

let build_plan spec =
  let r = resolve spec in
  (r, Plan.make ~m:r.Registry.m r.Registry.nest r.Registry.tiling)

(* the app's nest and kernel alone, for subcommands that name no tiling *)
let instance (spec : Run_spec.t) =
  let app = Result.fold ~ok:Fun.id ~error:failwith (Registry.find spec.app) in
  app.Registry.instance ~size1:spec.size1 ~size2:spec.size2

(* when the native walker could not run natively, say so once on stderr
   (the reason is also recorded in exported metadata) instead of
   silently timing the fast path *)
let warn_fallback =
  Option.iter
    (Printf.eprintf
       "tilec: warning: native walker unavailable (%s); using the fast \
        walker\n%!")

(* every Full run reports its check against the sequential oracle *)
let print_err oc (r : Run_spec.result) =
  Option.iter
    (Printf.fprintf oc "max |parallel - sequential| = %g\n")
    r.max_abs_err

let check_reads_arg =
  Arg.(value & flag & info [ "check-reads" ]
         ~doc:"Validate every LDS read against NaN poisoning even in the \
               fast walkers (the reference walker always validates).")

(* ---------------- subcommands ---------------- *)

let plan_cmd =
  let run spec =
    guard @@ fun () ->
    let _, plan = build_plan spec in
    print_string (Plan.summary plan);
    Printf.printf "  wavefront steps   : %d\n" (Schedule.steps plan);
    Printf.printf "  t(j_max)          : %d\n" (Schedule.last_point_step plan)
  in
  Cmd.v (Cmd.info "plan" ~doc:"Derive and print the parallelisation plan.")
    Term.(const run $ spec_term [ Sizes; Tiling ])

let cone_cmd =
  let run spec =
    guard @@ fun () ->
    let nest, _ = instance spec in
    let cone = Nest.tiling_cone nest in
    Printf.printf "dependence columns: %s\n"
      (Format.asprintf "%a" Tiles_loop.Dependence.pp nest.Nest.deps);
    Printf.printf "tiling cone extreme rays:\n";
    List.iter
      (fun r -> Printf.printf "  %s\n" (Tiles_util.Vec.to_string r))
      (Tiles_poly.Cone.extreme_rays cone)
  in
  Cmd.v (Cmd.info "cone" ~doc:"Print the algorithm's tiling cone.")
    Term.(const run $ spec_term [ Sizes ])

let output_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Output file (stdout if absent).")

let write_source output src =
  match output with
  | None -> print_string src
  | Some path ->
    let oc = open_out path in
    output_string oc src;
    close_out oc;
    Printf.eprintf "wrote %s\n" path

(* apply a C generator to the resolved kernel's IR, reads and skew *)
let with_c_kernel (r : Registry.resolved) gen =
  let k = r.kernel in
  match k.Kernel.ckernel with
  | None -> failwith (k.Kernel.name ^ " has no C body")
  | Some ck -> gen ~kernel:ck ~reads:k.Kernel.reads ?skew:(Some k.Kernel.skew) ()

let emit_cmd name ~doc gen =
  let run spec output =
    guard @@ fun () ->
    let r, plan = build_plan spec in
    write_source output (with_c_kernel r (gen ~plan))
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(const run $ spec_term [ Sizes; Tiling ] $ output_arg)

let emit_mpi_cmd =
  emit_cmd "emit-mpi" ~doc:"Generate the data-parallel MPI C program."
    Tiles_codegen.Mpigen.generate

(* the fixed-size program is the parametric one over zero parameters *)
let emit_seq_cmd =
  emit_cmd "emit-seq" ~doc:"Generate the sequential tiled C program."
    (fun ~plan ->
      Tiles_codegen.Pseqgen.generate ~tiling:plan.Plan.tiling
        ~pspace:(Tiles_poly.Pspace.of_polyhedron plan.Plan.nest.Nest.space))

let emit_pseq_cmd =
  let run spec output =
    guard @@ fun () ->
    (* sizes are irrelevant for the parametric generator; resolve at small
       placeholders *)
    let r = resolve { spec with Run_spec.size1 = 8; size2 = 8 } in
    write_source output
      (with_c_kernel r
         (Tiles_codegen.Pseqgen.generate
            ~pspace:(r.Registry.app.Registry.pspace ())
            ~tiling:r.Registry.tiling))
  in
  Cmd.v
    (Cmd.info "emit-pseq"
       ~doc:"Generate the parametric sequential tiled C program (problem \
             sizes become command-line arguments of the emitted binary).")
    Term.(const run $ spec_term [ Tiling ] $ output_arg)

let simulate_cmd =
  let full_arg =
    Arg.(value & flag & info [ "full" ]
           ~doc:"Run the real arithmetic and verify against sequential \
                 execution (slower).")
  in
  let trace_arg =
    Arg.(value & flag & info [ "utilisation" ]
           ~doc:"Trace the run and print the per-rank busy/wait breakdown.")
  in
  let trace_out_arg =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write the traced run as Chrome trace-event JSON to $(docv) \
                 (open in chrome://tracing or Perfetto).")
  in
  let run (spec : Run_spec.t) full trace trace_out check_reads =
    guard @@ fun () ->
    let res, plan = build_plan spec in
    let trace = trace || trace_out <> None in
    let r =
      Run_spec.run
        ~mode:(if full then Run_spec.Full else Run_spec.Timing)
        ~check:check_reads
        ~keep:(if trace then Run_spec.Timeline else Run_spec.Counters)
        spec ~plan ~kernel:res.Registry.kernel
    in
    warn_fallback r.walker_fallback;
    Printf.printf "app %s (%s), %d processes, %d tiles, %d points\n"
      spec.app spec.variant (Plan.nprocs plan) r.tiles r.points;
    Printf.printf "simulated time %.6f s, modelled sequential %.6f s, \
                   speedup %.2f\n"
      r.completion (r.completion *. r.speedup) r.speedup;
    Printf.printf "%d messages, %d bytes\n" r.messages r.bytes;
    let st = Lazy.force r.stats in
    if st.Stats.queue_seconds > 0. then
      Printf.printf "nic/uplink queueing %.6f s total across ranks\n"
        st.Stats.queue_seconds;
    print_err stdout r;
    if trace then begin
      let completion = st.Stats.completion in
      Printf.printf "machine efficiency %.0f%%\n"
        (100. *. st.Stats.total_compute
        /. (float_of_int st.Stats.nprocs *. completion));
      Array.iter
        (fun (x : Stats.rank) ->
          Printf.printf
            "  rank %-3d compute %6.2fms  send %6.2fms  wait %6.2fms  idle \
             %6.2fms\n"
            x.Stats.rank (1e3 *. x.Stats.compute) (1e3 *. x.Stats.send)
            (1e3 *. x.Stats.wait)
            (1e3 *. Float.max 0. (completion -. x.Stats.busy -. x.Stats.wait)))
        st.Stats.ranks
    end;
    match trace_out with
    | None -> ()
    | Some path ->
      Chrome.write
        ~process_name:(Printf.sprintf "tilec %s (sim)" spec.app)
        ~meta:(Run_spec.runmeta ?walker_fallback:r.walker_fallback
                 ~nprocs:(Plan.nprocs plan) spec)
        ~nprocs:(Plan.nprocs plan) ~path r.spans;
      Printf.eprintf "wrote %s\n" path
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Execute the plan on the simulated cluster.")
    Term.(const run $ spec_term [ Sizes; Tiling; Overlap; Net; Walker ]
          $ full_arg $ trace_arg $ trace_out_arg $ check_reads_arg)

let trace_cmd =
  let out_arg =
    Arg.(value & opt string "trace.json" & info [ "out" ] ~docv:"FILE"
           ~doc:"Chrome trace-event JSON output path.")
  in
  let svg_arg =
    Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"FILE"
           ~doc:"Also render the per-rank timeline as SVG to $(docv).")
  in
  let run (spec : Run_spec.t) out svg check_reads =
    guard @@ fun () ->
    let res, plan = build_plan spec in
    let nprocs = Plan.nprocs plan in
    let r =
      Run_spec.run ~check:check_reads ~keep:Run_spec.Timeline spec ~plan
        ~kernel:res.Registry.kernel
    in
    warn_fallback r.walker_fallback;
    print_err stdout r;
    let spans = r.spans and stats = Lazy.force r.stats in
    let backend_str = Run_spec.backend_to_string spec.backend in
    Chrome.write
      ~process_name:(Printf.sprintf "tilec %s (%s)" spec.app backend_str)
      ~meta:(Run_spec.runmeta ?walker_fallback:r.walker_fallback ~nprocs spec)
      ~nprocs ~path:out spans;
    Printf.eprintf "wrote %s\n" out;
    (match svg with
    | None -> ()
    | Some path ->
      Tiles_viz.Svg.save
        (Tiles_viz.Figures.timeline
           ~title:(Printf.sprintf "%s on %s" spec.app backend_str)
           ~nprocs ~completion:stats.Stats.completion spans)
        path;
      Printf.eprintf "wrote %s\n" path);
    print_string (Stats.summary stats)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run the plan traced and export Chrome trace-event JSON (plus \
             an optional SVG timeline) with aggregate statistics.")
    Term.(const run $ spec_term [ Sizes; Tiling; Backend; Overlap; Net; Walker ]
          $ out_arg $ svg_arg $ check_reads_arg)

let analyze_cmd =
  let app_opt_arg =
    Arg.(value & opt (some string) None & info [ "app" ] ~docv:"NAME"
           ~doc:"Algorithm to run and analyze: sor, jacobi or adi \
                 (alternative to $(b,--from)).")
  in
  let from_arg =
    Arg.(value & opt (some string) None & info [ "from" ] ~docv:"FILE"
           ~doc:"Analyze a previously written Chrome trace-event artifact \
                 (as produced by $(b,tilec trace) or $(b,tilec analyze \
                 --out)) instead of running; message edges are recovered \
                 from its flow events.")
  in
  let stream_arg =
    Arg.(value & flag & info [ "stream" ]
           ~doc:"Trace with the bounded-memory streaming recorder: exact \
                 per-kind totals plus the longest waits, O(ranks) memory \
                 at any rank count — but no retained spans, so no exact \
                 critical path.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Print the analysis as JSON instead of text.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"Write the trace as Chrome trace-event JSON including a \
                 flow-event pair for every message edge (viewers draw the \
                 send→recv arrows; $(b,--from) reads it back).")
  in
  let svg_arg =
    Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"FILE"
           ~doc:"Render the per-rank timeline as SVG with the critical \
                 path highlighted.")
  in
  let top_arg =
    Arg.(value & opt int 5 & info [ "top" ] ~docv:"K"
           ~doc:"Laggard ranks listed in the breakdown.")
  in
  let span_json (s : Span.t) =
    Tiles_util.Json.Obj
      [
        ("rank", Tiles_util.Json.Int s.Span.rank);
        ("t0_s", Tiles_util.Json.Float s.Span.t0);
        ("t1_s", Tiles_util.Json.Float s.Span.t1);
        ("seconds", Tiles_util.Json.Float (Span.duration s));
      ]
  in
  (* streaming analysis: exact totals + the bounded wait reservoir *)
  let report_streaming ~json stats waits =
    if json then
      print_endline
        (Tiles_util.Json.to_string
           (Tiles_util.Json.Obj
              [
                ("stats", Stats.to_json stats);
                ("longest_waits", Tiles_util.Json.List (List.map span_json waits));
              ]))
    else begin
      print_string (Stats.summary stats);
      if waits <> [] then begin
        print_string "longest waits:\n";
        List.iter
          (fun (s : Span.t) ->
            Printf.printf "  rank %4d  [%10.6f, %10.6f]  %.6f s\n" s.Span.rank
              s.Span.t0 s.Span.t1 (Span.duration s))
          waits
      end
    end
  in
  (* exact analysis: replay the event DAG and walk the critical path *)
  let report_exact ~json ~top ~title ~nprocs ~completion ?meta ~out ~svg
      ~edges spans =
    if spans = [] then
      failwith "analyze: the run retained no spans (nothing to analyze)";
    let report = Critpath.analyze ~nprocs ~edges ?completion spans in
    if json then
      print_endline (Tiles_util.Json.to_string (Critpath.to_json report))
    else print_string (Critpath.summary ~top report);
    (match out with
    | None -> ()
    | Some path ->
      Chrome.write ~process_name:("tilec analyze " ^ title) ?meta ~edges
        ~nprocs ~path spans;
      Printf.eprintf "wrote %s\n" path);
    match svg with
    | None -> ()
    | Some path ->
      Tiles_viz.Svg.save
        (Tiles_viz.Figures.timeline ~title ~path:report.Critpath.segments
           ~nprocs ~completion:report.Critpath.completion spans)
        path;
      Printf.eprintf "wrote %s\n" path
  in
  let run (spec : Run_spec.t) from stream json out svg top =
    guard @@ fun () ->
    if stream && (out <> None || svg <> None || from <> None) then
      failwith
        "analyze: --stream retains no spans; --out/--svg/--from need the \
         exact (retained) trace";
    match from with
    | Some path -> (
      match Chrome.read ~path with
      | Error e -> failwith e
      | Ok a ->
        report_exact ~json ~top ~title:(Filename.basename path)
          ~nprocs:a.Chrome.nprocs ~completion:None ~out ~svg
          ~edges:a.Chrome.edges a.Chrome.spans)
    | None -> (
      if spec.app = "" then
        failwith "analyze: pass --app NAME or --from FILE";
      let res, plan = build_plan spec in
      let nprocs = Plan.nprocs plan in
      let title =
        Printf.sprintf "%s on %s" spec.app
          (Run_spec.backend_to_string spec.backend)
      in
      let r =
        Run_spec.run ~mode:Run_spec.Timing
          ~keep:(if stream then Run_spec.Totals else Run_spec.Timeline)
          spec ~plan ~kernel:res.Registry.kernel
      in
      (* stdout may carry --json *)
      print_err stderr r;
      if stream then report_streaming ~json (Lazy.force r.stats) r.longest_waits
      else
        report_exact ~json ~top ~title ~nprocs ~completion:(Some r.completion)
          ~meta:(Run_spec.runmeta ~nprocs spec) ~out ~svg ~edges:r.edges
          r.spans)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Causal critical-path analysis of a traced run: the true \
             path through compute/pack/send/flight/wait/unpack with \
             per-kind and per-phase attribution, laggard ranks and CPM \
             slack. Reads a Chrome artifact with $(b,--from) or runs an \
             app fresh; $(b,--stream) trades the exact path for \
             O(ranks)-memory aggregation at thousand-rank scale.")
    Term.(const run
          $ spec_term
              ~app:Term.(const (Option.value ~default:"") $ app_opt_arg)
              [ Sizes; Tiling; Backend; Overlap; Net ]
          $ from_arg $ stream_arg $ json_arg $ out_arg $ svg_arg $ top_arg)

let tune_cmd =
  let module Tune = Tiles_tune.Tune in
  let module Predictor = Tiles_tune.Predictor in
  let module Cache = Tiles_tune.Cache in
  let procs_arg =
    Arg.(value & opt int 16 & info [ "procs" ] ~docv:"P"
           ~doc:"Processor budget (candidate plans use at most P processes).")
  in
  let factors_arg =
    Arg.(value & opt (list int) [ 2; 4; 6; 8; 10; 16; 25 ]
         & info [ "factors" ] ~docv:"F,F,…"
             ~doc:"Tile factors swept along the mapping dimension.")
  in
  let top_arg =
    Arg.(value & opt int 12 & info [ "top" ] ~docv:"K"
           ~doc:"The predictor's 3×$(docv) best candidates are simulated \
                 exactly; with $(b,--backend) shm the simulator's $(docv) \
                 best are then measured.")
  in
  let workers_arg =
    Arg.(value & opt int Tune.default_options.Tune.workers
         & info [ "workers" ] ~docv:"W"
             ~doc:"Domains used for parallel candidate evaluation.")
  in
  let cache_arg =
    Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR"
           ~doc:"Memoize exact scores in $(docv) so repeated tunes are \
                 incremental.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the result as JSON.")
  in
  let m_arg =
    Arg.(value & opt (some int) None & info [ "m" ] ~docv:"DIM"
           ~doc:"Restrict the mapping dimension (default: search all).")
  in
  let run (spec : Run_spec.t) procs factors top workers cache json m =
    guard @@ fun () ->
    let nest, kernel = instance spec in
    let options =
      {
        Tune.procs;
        factors;
        top_k = top;
        workers;
        cache_dir = cache;
        overlap = spec.overlap;
        backend = spec.backend;
        mapping_dims = Option.map (fun m -> [ m ]) m;
      }
    in
    let r = Tune.search ~options ~nest ~kernel ~net:spec.net () in
    if json then
      print_endline (Tiles_util.Json.to_string (Tune.result_json r))
    else begin
      Printf.printf
        "tune %s (%s%s): %d candidates generated, %d feasible, %d measured \
         (%d cache hit%s)\n"
        spec.app (Run_spec.backend_to_string spec.backend)
        (if spec.overlap then ", overlapped" else "")
        r.Tune.generated r.Tune.feasible
        (List.length r.Tune.simulated) r.Tune.cache_hits
        (if r.Tune.cache_hits = 1 then "" else "s");
      let t =
        Tiles_util.Table.create
          ~header:
            [ "candidate"; "procs"; "tile"; "steps"; "predicted ms";
              "measured ms"; "speedup"; "cache" ]
      in
      List.iter
        (fun (s : Tune.scored) ->
          let sim, spd =
            match s.Tune.score with
            | Some sc ->
              ( Printf.sprintf "%.3f" (1e3 *. sc.Cache.completion),
                Printf.sprintf "%.2f" sc.Cache.speedup )
            | None -> ("-", "-")
          in
          Tiles_util.Table.add_row t
            [
              Tiles_tune.Candidate.label s.Tune.cand;
              string_of_int s.Tune.nprocs;
              string_of_int s.Tune.tile_size;
              string_of_int s.Tune.predicted.Predictor.steps;
              Printf.sprintf "%.3f" (1e3 *. s.Tune.predicted.Predictor.total);
              sim;
              spd;
              (if s.Tune.from_cache then "hit" else "");
            ])
        r.Tune.simulated;
      Tiles_util.Table.print t;
      let best = r.Tune.best in
      Printf.printf "\nbest: %s\n" (Tiles_tune.Candidate.label best.Tune.cand);
      let plan = Tune.plan_of ~nest best.Tune.cand in
      print_string (Plan.summary plan)
    end
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:"Search tile shape, tile size and mapping dimension for the \
             fastest plan under a processor budget.")
    Term.(const run $ spec_term [ Sizes; Backend; Overlap; Net ] $ procs_arg
          $ factors_arg $ top_arg $ workers_arg $ cache_arg $ json_arg $ m_arg)

let perf_cmd =
  let module Baseline = Tiles_obs.Baseline in
  let module Residual = Tiles_obs.Residual in
  let module Runmeta = Tiles_obs.Runmeta in
  let repeats_arg =
    Arg.(value & opt int 5 & info [ "repeats" ] ~docv:"N"
           ~doc:"Measured runs folded into each field's distribution.")
  in
  let warmup_arg =
    Arg.(value & opt int 1 & info [ "warmup" ] ~docv:"W"
           ~doc:"Runs executed and discarded before measuring.")
  in
  let record_arg =
    Arg.(value & flag & info [ "record" ]
           ~doc:"Write the measured distributions as the committed baseline \
                 for this configuration.")
  in
  let check_arg =
    Arg.(value & flag & info [ "check" ]
           ~doc:"Compare against the recorded baseline and exit non-zero on \
                 a regression, counter drift or metadata mismatch.")
  in
  let dir_arg =
    Arg.(value & opt string "perf/baselines" & info [ "dir" ] ~docv:"DIR"
           ~doc:"Baseline directory.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the result as JSON.")
  in
  let counters_arg =
    Arg.(value & flag & info [ "counters-only" ]
           ~doc:"Check only the deterministic message/byte counters, not \
                 timings — for the wall-clock shm backend whose times \
                 depend on the host.")
  in
  let inflate_arg =
    Arg.(value & opt float 1.0 & info [ "inflate" ] ~docv:"F"
           ~doc:"Scale the sim network model's latency and per-point \
                 compute cost by $(docv) — a synthetic slowdown for \
                 exercising the regression gate. Sim backend only.")
  in
  let run (spec : Run_spec.t) repeats warmup record check dir json
      counters_only inflate =
    (* --inflate scales the simulator's network model; the shm backend has
       no model to scale, so the combination is a usage error, not a
       silently ignored flag *)
    if spec.backend = Run_spec.Shm && inflate <> 1.0 then
      `Error
        ( true,
          "--inflate scales the sim network model and does not apply to the \
           shm backend" )
    else
      `Ok
        ( guard @@ fun () ->
    if repeats < 1 then failwith "perf: --repeats must be >= 1";
    if warmup < 0 then failwith "perf: --warmup must be >= 0";
    if record && check then failwith "perf: --record and --check conflict";
    let res, plan = build_plan spec in
    let kernel = res.Registry.kernel in
    let nprocs = Plan.nprocs plan in
    let spec =
      if inflate = 1.0 then spec
      else
        { spec with
          net =
            { spec.net with
              Netmodel.latency = spec.net.Netmodel.latency *. inflate;
              flop_time = spec.net.Netmodel.flop_time *. inflate } }
    in
    (* the sim backend measures in Timing mode (virtual time, no data
       movement), so [walker] only matters on shm *)
    let runs =
      List.init (warmup + repeats) (fun _ ->
          let r =
            Run_spec.run ~mode:Run_spec.Timing ~keep:Run_spec.Timeline spec
              ~plan ~kernel
          in
          (Lazy.force r.stats, r.speedup, r.walker_fallback))
    in
    let stats, speedup, walker_fallback =
      List.nth runs (List.length runs - 1)
    in
    warn_fallback walker_fallback;
    let dist =
      Stats.distributions ~warmup (List.map (fun (st, _, _) -> st) runs)
    in
    let meta = Run_spec.runmeta ?walker_fallback ~nprocs spec in
    let current = Baseline.make ~meta ~stats ~timings:dist in
    let path = Baseline.default_path ~dir ~meta in
    (* the analytic models' drift from this observation (sim only: the
       models predict virtual time, not the host's wall clock) *)
    let residuals () =
      match spec.backend with
      | Run_spec.Shm -> []
      | Run_spec.Sim ->
        Tiles_tune.Predictor.residuals
          ~label:(Printf.sprintf "%s/%s" spec.app spec.variant)
          ~width:kernel.Kernel.width plan ~net:spec.net
          ~observed:
            [ ("completion_s", stats.Stats.completion); ("speedup", speedup) ]
    in
    if record then begin
      (if not (Sys.file_exists dir) then
         (* mkdir -p: create each missing prefix *)
         let rec mk d =
           if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
             mk (Filename.dirname d);
             Sys.mkdir d 0o755
           end
         in
         mk dir);
      Baseline.save current ~path;
      if json then
        print_endline (Tiles_util.Json.to_string (Baseline.to_json current))
      else Printf.printf "recorded %s (%d measured runs, %d warmup)\n" path
          repeats warmup
    end
    else if check then begin
      match Baseline.load ~path with
      | Error e -> failwith ("perf --check: " ^ e)
      | Ok baseline ->
        let verdict =
          if counters_only then
            Baseline.compare ~rel_threshold:infinity
              ~exact:[ "messages"; "bytes" ] ~baseline current
          else
            Baseline.compare
              ?exact:(match spec.backend with
                | Run_spec.Shm ->
                  (* the in-flight high-water mark depends on thread
                     interleaving, so it is not exact on shm *)
                  Some [ "messages"; "bytes" ]
                | Run_spec.Sim -> None)
              ~baseline current
        in
        if json then
          print_endline
            (Tiles_util.Json.to_string (Baseline.verdict_to_json verdict))
        else begin
          Printf.printf "checking %s against %s\n"
            (Printf.sprintf "%s/%s (%s)" spec.app spec.variant
               (Run_spec.backend_to_string spec.backend))
            path;
          print_string (Baseline.report verdict)
        end;
        if not verdict.Baseline.ok then exit exit_regression
    end
    else begin
      let res = residuals () in
      if json then
        print_endline
          (Tiles_util.Json.to_string
             (Tiles_util.Json.Obj
                [
                  ("metadata", Runmeta.to_json meta);
                  ("baseline", Baseline.to_json current);
                  ("residuals", Residual.to_json res);
                ]))
      else begin
        Printf.printf "perf %s/%s (%s): %d measured run%s, %d warmup\n"
          spec.app spec.variant (Run_spec.backend_to_string spec.backend)
          repeats
          (if repeats = 1 then "" else "s")
          warmup;
        print_string (Stats.summary ~dist stats);
        if res <> [] then print_string (Residual.report res)
      end
    end )
  in
  Cmd.v
    (Cmd.info "perf"
       ~doc:"Run a configuration repeatedly, report distribution statistics \
             (mean, stddev, percentiles) of every timed field, and record or \
             check a persistent performance baseline.")
    Term.(ret
            (const run
             $ spec_term [ Sizes; Tiling; Backend; Overlap; Net; Walker ]
             $ repeats_arg $ warmup_arg $ record_arg $ check_arg $ dir_arg
             $ json_arg $ counters_arg $ inflate_arg))

let serve_cmd =
  let module Server = Tiles_serve.Server in
  let capacity_arg =
    Arg.(value & opt int Server.default_config.Server.capacity
         & info [ "capacity" ] ~docv:"K"
             ~doc:"Admission queue slots; request K+1 (with every worker \
                   busy) is rejected with a structured reason, never \
                   queued unboundedly.")
  in
  let workers_arg =
    Arg.(value & opt int Server.default_config.Server.workers
         & info [ "workers" ] ~docv:"W"
             ~doc:"Worker pool shards (domains). The pool is the only \
                   source of job parallelism; must be >= 1.")
  in
  let cache_capacity_arg =
    Arg.(value & opt int Server.default_config.Server.plan_cache_capacity
         & info [ "cache-capacity" ] ~docv:"N"
             ~doc:"Compiled plans retained in the content-addressed LRU \
                   cache.")
  in
  let tune_cache_arg =
    Arg.(value & opt (some string) None & info [ "tune-cache" ] ~docv:"DIR"
           ~doc:"Share an on-disk tune score memo between tune jobs (same \
                 format as $(b,tilec tune --cache)).")
  in
  let socket_arg =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Listen on a Unix domain socket at $(docv) instead of \
                 stdin/stdout; each connection is a tenant sharing the one \
                 queue, pool and cache.")
  in
  let metrics_out_arg =
    Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"On shutdown, also write the final metrics snapshot, \
                 indented, to $(docv).")
  in
  let run capacity workers cache_capacity tune_cache socket metrics_out net =
    guard @@ fun () ->
    if capacity < 1 then failwith "serve: --capacity must be >= 1";
    if workers < 1 then failwith "serve: --workers must be >= 1";
    if cache_capacity < 1 then failwith "serve: --cache-capacity must be >= 1";
    let config =
      {
        Server.capacity;
        workers;
        plan_cache_capacity = cache_capacity;
        tune_cache_dir = tune_cache;
        net;
      }
    in
    match socket with
    | Some path -> Server.serve_socket ~config ?metrics_out ~path ()
    | None -> Server.serve_channels ~config ?metrics_out stdin stdout
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the persistent multi-tenant compile service: line-delimited \
             JSON requests on stdin (or $(b,--socket)), one JSON response \
             per job, with admission control, request coalescing, a shared \
             compiled-plan cache and aggregate metrics ($(b,{\"op\":\
             \"metrics\"}) snapshots, $(b,{\"op\":\"shutdown\"}) stops).")
    Term.(const run $ capacity_arg $ workers_arg $ cache_capacity_arg
          $ tune_cache_arg $ socket_arg $ metrics_out_arg $ net_arg)

let () =
  let doc = "compiler for tiled iteration spaces on clusters" in
  let info = Cmd.info "tilec" ~version:Tiles_obs.Runmeta.version ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ plan_cmd; cone_cmd; emit_mpi_cmd; emit_seq_cmd; emit_pseq_cmd;
            simulate_cmd; trace_cmd; analyze_cmd; tune_cmd; perf_cmd;
            serve_cmd ]))
