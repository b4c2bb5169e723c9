(* tilebench: one benchmark for tilec.

     main.exe --workload compile|solve|serve|all --seed N --seconds S --trace 0|1

   With --trace 0 the run sets the workload up three times (reporting
   the median as setup_s), then runs whole decks of ops for S seconds
   and reports the end-to-end metrics. With --trace 1 it runs the same
   ops untraced for S/2 seconds and traced for S/2 seconds, and reports
   the per-layer metrics from the traced half's spans, the tracing
   overhead and the share of op time the spans cover. Each workload's
   report ends with its result as one JSON line, so with one workload
   that is the last line of standard output; "all" runs the three in
   turn in this process. *)

module Json = Tiles_util.Json
open Common

type 's workload = {
  setup : seed:int -> 's;
  teardown : 's -> unit;
  window : 's -> seconds:float -> op list * float;
  counters : 's -> (string * float) list;
}

type any = W : 's workload -> any

let workloads =
  [
    ( "compile",
      W
        {
          setup = Compile.setup;
          teardown = ignore;
          window = Compile.window;
          counters = (fun _ -> []);
        } );
    ( "solve",
      W
        {
          setup = Solve.setup;
          teardown = ignore;
          window = Solve.window;
          counters = (fun _ -> []);
        } );
    ( "serve",
      W
        {
          setup = Serve.setup;
          teardown = Serve.teardown;
          window = Serve.window;
          counters = (fun st -> st.Serve.counters);
        } );
  ]

(* ---------------- statistics ---------------- *)

let sorted l = List.sort compare l

let median l =
  match sorted l with
  | [] -> 0.
  | s ->
    let a = Array.of_list s and n = List.length s in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* the value at the highest percentile with at least ten ops beyond it,
   and that percentile *)
let tail l =
  let a = Array.of_list (sorted l) and n = List.length l in
  if n = 0 then (0., 0.)
  else
    let i = max 0 (n - 11) in
    (a.(i), 100. *. float_of_int (i + 1) /. float_of_int n)

let sum l = List.fold_left ( +. ) 0. l
let ratio a b = if b > 0. then a /. b else 0.

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status ->
    List.find_map
      (fun line ->
        Scanf.sscanf_opt line "VmHWM: %f kB" (fun kb -> kb /. 1024.))
      (String.split_on_char '\n' status)
    |> Option.value ~default:0.
  | exception Sys_error _ -> 0.

(* ---------------- end-to-end (untraced) ---------------- *)

let setups = 3

let end_to_end (W w) ~seed ~seconds =
  let times, st =
    List.fold_left
      (fun (times, prev) _ ->
        Option.iter w.teardown prev;
        (* each set-up starts from a collected heap, so peak memory does
           not depend on when the previous set-up's garbage went *)
        Gc.full_major ();
        let t0 = Span.now () in
        let st = w.setup ~seed in
        (Span.now () -. t0 :: times, Some st))
      ([], None)
      (List.init setups Fun.id)
  in
  let st = Option.get st in
  let ops, elapsed = w.window st ~seconds in
  w.teardown st;
  let walls = List.map (fun o -> o.wall) ops in
  let tail_v, tail_p = tail walls in
  let n = List.length ops in
  let points = float_of_int (List.fold_left (fun a o -> a + o.points) 0 ops) in
  let metrics =
    [
      ("op_ms", 1e3 *. median walls, "ms");
      ("op_tail_ms", 1e3 *. tail_v, "ms");
      ("ops_per_s", float_of_int n /. elapsed, "1/s");
      ("mpts", ratio points (sum walls) /. 1e6, "Mpt/s");
      ("setup_s", median times, "s");
      ("peak_rss_mb", peak_rss_mb (), "MB");
    ]
  in
  let notes =
    [
      Printf.sprintf "op_tail_ms is p%.1f of %d ops in %.2f s" tail_p n elapsed;
      Printf.sprintf "setup_s runs: %s"
        (String.concat " " (List.rev_map (Printf.sprintf "%.4f") times));
    ]
  in
  (ops, metrics, notes)

(* ---------------- per-layer (traced) ---------------- *)

let layer_metrics ~spans ~ops ~untraced ~counters ~gc0 ~gc1 =
  let named name = List.filter (fun ((s : Span.t), _) -> s.name = name) spans in
  let self_ms names =
    median
      (List.concat_map
         (fun n -> List.map (fun (_, self) -> 1e3 *. self) (named n))
         names)
  in
  let attr_median name k = median (List.map (fun (s, _) -> Span.attr s k) (named name)) in
  let attr_sum name k = sum (List.map (fun (s, _) -> Span.attr s k) (named name)) in
  let self_sum name = sum (List.map snd (named name)) in
  let mpts name = ratio (attr_sum name "points") (self_sum name) /. 1e6 in
  let per_tile =
    List.filter_map
      (fun ((s : Span.t), self) ->
        let tiles = Span.attr s "tiles" in
        if tiles > 0. then Some (1e6 *. self /. tiles) else None)
      (named "sim")
  in
  let n = float_of_int (max 1 (List.length ops)) in
  (* tracing overhead: the same op sequence, traced vs untraced, over
     the prefix both halves reached *)
  let k = min (List.length ops) (List.length untraced) in
  let prefix l = List.filteri (fun i _ -> i < k) (List.map (fun o -> o.wall) l) in
  let roots = named "op" in
  let covered =
    sum (List.map (fun ((s : Span.t), self) -> s.t1 -. s.t0 -. self) roots)
  in
  let op_time = sum (List.map (fun ((s : Span.t), _) -> s.t1 -. s.t0) roots) in
  let count = float_of_int in
  [
    ("plan.ms", self_ms [ "plan" ], "ms");
    ("plan.calls", count (List.length (named "plan")), "count");
    ("sim.ms", self_ms [ "sim" ], "ms");
    ("sim.tiles", attr_median "sim" "tiles", "count");
    ("sim.messages", attr_median "sim" "messages", "count");
    ("sim.us_per_tile", median per_tile, "us");
    ("emit.ms", self_ms [ "emit" ], "ms");
    ("emit.bytes", attr_median "emit" "bytes", "bytes");
    ("native.cold_ms", self_ms [ "native" ], "ms");
    ("native.fallbacks", attr_sum "native" "fallback", "count");
    ("tune.ms", self_ms [ "tune" ], "ms");
    ("tune.generated", attr_median "tune" "generated", "count");
    ( "tune.feasible_ratio",
      ratio (attr_sum "tune" "feasible") (attr_sum "tune" "generated"),
      "1" );
    ("tune.simulated", attr_median "tune" "simulated", "count");
    ("exec.fast_mpts", mpts "exec.fast", "Mpt/s");
    ("exec.native_mpts", mpts "exec.native", "Mpt/s");
    ("exec.ms", self_ms [ "exec.fast"; "exec.native" ], "ms");
    ( "exec.bytes",
      median
        (List.map
           (fun (s, _) -> Span.attr s "bytes")
           (named "exec.fast" @ named "exec.native")),
      "bytes" );
    ("shm.ms", self_ms [ "shm" ], "ms");
    ("shm.parallel_ms", attr_median "shm" "parallel_ms", "ms");
    ("shm.oracle_ms", attr_median "shm" "oracle_ms", "ms");
    ("seq.mpts", mpts "seq", "Mpt/s");
    ("verify.ms", self_ms [ "verify" ], "ms");
    ("serve.queued_ms", self_ms [ "serve.queued" ], "ms");
    ("serve.plan_ms", self_ms [ "serve.plan" ], "ms");
    ("serve.simulate_ms", self_ms [ "serve.simulate" ], "ms");
    ("serve.execute_ms", self_ms [ "serve.execute" ], "ms");
    ("serve.tune_ms", self_ms [ "serve.tune" ], "ms");
  ]
  @ List.map
      (fun name ->
        ( name,
          Option.value ~default:0. (List.assoc_opt name counters),
          if name = "serve.reuse_ratio" then "1" else "count" ))
      [
        "serve.compiles"; "serve.cache_hits"; "serve.coalesced";
        "serve.reuse_ratio"; "serve.rejected";
      ]
  @ [
      ( "gc.minor_mwords",
        (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6 /. n,
        "Mwords" );
      ( "gc.major",
        count (gc1.Gc.major_collections - gc0.Gc.major_collections) /. n,
        "count" );
      ("trace.overhead", ratio (median (prefix ops)) (median (prefix untraced)), "1");
      ("trace.coverage", ratio covered op_time, "1");
    ]

let traced (W w) ~seed ~seconds =
  let half = seconds /. 2. in
  let st = w.setup ~seed in
  let untraced, _ = w.window st ~seconds:half in
  w.teardown st;
  Gc.full_major ();
  Span.reset ();
  Span.enabled := true;
  let st = w.setup ~seed in
  let gc0 = Gc.quick_stat () in
  let ops, _ = w.window st ~seconds:half in
  let counters = w.counters st in
  w.teardown st;
  let gc1 = Gc.quick_stat () in
  Span.enabled := false;
  let spans = Span.with_self_times () in
  let metrics =
    layer_metrics ~spans ~ops ~untraced ~counters ~gc0 ~gc1
  in
  let notes =
    [
      Printf.sprintf "traced %d ops, %d spans; untraced %d ops"
        (List.length ops) (List.length spans) (List.length untraced);
    ]
  in
  (untraced @ ops, metrics, notes)

(* ---------------- report ---------------- *)

let report ~workload ~ops ~metrics ~notes =
  let n = List.length ops in
  let failed = List.length (List.filter (fun o -> not o.ok) ops) in
  let kinds = List.sort_uniq compare (List.map (fun o -> o.kind) ops) in
  Printf.printf "tilebench %s: %d ops (%s)\n" workload n
    (String.concat ", "
       (List.map
          (fun k ->
            Printf.sprintf "%d %s" (List.length (List.filter (fun o -> o.kind = k) ops)) k)
          kinds));
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-20s %14.4f %s\n" name v unit)
    metrics;
  Printf.printf "  %-20s %14.4f 1\n" "fail_ratio"
    (ratio (float_of_int failed) (float_of_int n));
  List.iter (Printf.printf "  (%s)\n") notes;
  List.iter
    (fun k ->
      let w = List.filter_map (fun o -> if o.kind = k then Some o.wall else None) ops in
      Printf.printf "  (%s: median %.2f ms, max %.2f ms)\n" k (1e3 *. median w)
        (1e3 *. List.fold_left Float.max 0. w))
    kinds;
  print_endline
    (Json.to_line
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Int n);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v, unit) ->
                     (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]))
                   metrics) );
          ]))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " compile | solve | serve | all");
      ("--seed", Arg.Set_int seed, " seed of the workload's inputs");
      ("--seconds", Arg.Set_float seconds, " how long to run ops");
      ("--trace", Arg.Set_int trace, " 1: report per-layer metrics from a traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let chosen =
    if !workload = "all" then workloads
    else List.filter (fun (name, _) -> name = !workload) workloads
  in
  if chosen = [] then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  init_work_dir ();
  let run = if !trace = 1 then traced else end_to_end in
  List.iter
    (fun (name, w) ->
      let ops, metrics, notes = run w ~seed:!seed ~seconds:!seconds in
      report ~workload:name ~ops ~metrics ~notes)
    chosen
