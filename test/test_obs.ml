module Span = Tiles_obs.Span
module Recorder = Tiles_obs.Recorder
module Stats = Tiles_obs.Stats
module Chrome = Tiles_obs.Chrome
module Json = Tiles_util.Json
module Sim = Tiles_mpisim.Sim
module Netmodel = Tiles_mpisim.Netmodel
module Plan = Tiles_core.Plan
module Executor = Tiles_runtime.Executor
module Shm_executor = Tiles_runtime.Shm_executor

let net = Netmodel.fast_ethernet_cluster

let sor_plan () =
  let p = Tiles_apps.Sor.make ~m_steps:12 ~size:16 in
  ( Plan.make ~m:2 (Tiles_apps.Sor.nest p) (Tiles_apps.Sor.nonrect ~x:3 ~y:4 ~z:4),
    Tiles_apps.Sor.kernel p )

(* traced runs return the recorder they wrote to beside their result; the
   simulator stamps virtual time itself, so its recorder's clock reads 0 *)
let sim_run () =
  let plan, kernel = sor_plan () in
  let rc =
    Recorder.create ~keep:Recorder.Timeline ~clock:(fun () -> 0.)
      ~nprocs:(Plan.nprocs plan) ()
  in
  (Executor.run ~mode:Executor.Full ~recorder:rc ~plan ~kernel ~net (), rc)

let shm_run () =
  let plan, kernel = sor_plan () in
  let rc = Recorder.create ~keep:Recorder.Timeline ~nprocs:(Plan.nprocs plan) () in
  (Shm_executor.run ~recorder:rc ~plan ~kernel (), rc)

(* a recorder holding exactly [spans] *)
let recorder_of_spans ~nprocs spans =
  let rc = Recorder.create ~keep:Recorder.Timeline ~clock:(fun () -> 0.) ~nprocs () in
  List.iter
    (fun (s : Span.t) ->
      Recorder.span (Recorder.log rc ~rank:s.Span.rank) ~t0:s.Span.t0
        ~t1:s.Span.t1 s.Span.kind)
    spans;
  rc

(* ---------------- recorder unit tests ---------------- *)

let test_recorder_counters () =
  let t = Recorder.create ~nprocs:2 () in
  let l0 = Recorder.log t ~rank:0 and l1 = Recorder.log t ~rank:1 in
  Recorder.message_sent l0 ~dst:1 ~tag:0 ~bytes:100 ();
  Recorder.message_sent l0 ~dst:1 ~tag:1 ~bytes:50 ();
  Recorder.message_received l1 ~src:0 ~tag:0 ~bytes:100 ();
  Recorder.message_sent l1 ~dst:0 ~tag:0 ~bytes:25 ();
  Alcotest.(check int) "messages" 3 (Recorder.messages t);
  Alcotest.(check int) "bytes" 175 (Recorder.bytes t);
  Alcotest.(check (list int)) "rank messages" [ 2; 1 ]
    (Array.to_list (Recorder.rank_messages t));
  Alcotest.(check (list int)) "rank bytes" [ 150; 25 ]
    (Array.to_list (Recorder.rank_bytes t));
  (* in-flight peaked at 150 before rank 1 drained 100 *)
  Alcotest.(check int) "high water" 150 (Recorder.max_inflight_bytes t)

(* a recorder made before a run's set-up counts from the run's start once
   restarted: the shm backend restarts it as its ranks begin *)
let test_recorder_restart () =
  let now = ref 5. in
  let t = Recorder.create ~clock:(fun () -> !now) ~nprocs:1 () in
  now := 7.;
  Alcotest.(check (float 0.)) "counts from creation" 2. (Recorder.now t);
  Recorder.restart t;
  Alcotest.(check (float 0.)) "restart is time 0" 0. (Recorder.now t);
  now := 8.;
  Recorder.finish (Recorder.log t ~rank:0);
  Alcotest.(check (list (float 0.))) "finish stamps count from the restart"
    [ 1. ] (Array.to_list (Recorder.rank_finish t))

let test_recorder_untraced_drops_spans () =
  let t = Recorder.create ~nprocs:1 () in
  let l = Recorder.log t ~rank:0 in
  Recorder.span l ~t0:0. ~t1:1. Span.Compute;
  Recorder.close l Span.Send;
  Alcotest.(check (list (float 0.))) "no spans" []
    (List.map Span.duration (Recorder.spans t))

let test_recorder_virtual_clock () =
  let now = ref 0. in
  let t = Recorder.create ~keep:Recorder.Timeline ~clock:(fun () -> !now) ~nprocs:1 () in
  let l = Recorder.log t ~rank:0 in
  Recorder.mark l;
  now := 2.;
  Recorder.close l Span.Compute;
  now := 3.5;
  Recorder.close l Span.Send;
  Recorder.span l ~t0:5. ~t1:4. Span.Wait (* reversed: dropped *);
  match Recorder.spans t with
  | [ a; b ] ->
    Alcotest.(check (float 1e-12)) "first closes [0,2]" 2. (Span.duration a);
    Alcotest.(check bool) "first is compute" true (a.Span.kind = Span.Compute);
    Alcotest.(check (float 1e-12)) "second closes [2,3.5]" 1.5 (Span.duration b);
    Alcotest.(check bool) "second is send" true (b.Span.kind = Span.Send)
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

(* ---------------- span invariants on real traces ---------------- *)

let check_rank_spans_disjoint name spans ~nprocs =
  Array.iteri
    (fun rank spans ->
      let rec go = function
        | a :: (b :: _ as rest) ->
          if a.Span.t1 > b.Span.t0 +. 1e-9 then
            Alcotest.failf "%s: rank %d spans overlap: [%g,%g] then [%g,%g]"
              name rank a.Span.t0 a.Span.t1 b.Span.t0 b.Span.t1;
          go rest
        | _ -> ()
      in
      go spans)
    (Span.by_rank ~nprocs spans)

let test_sim_span_invariants () =
  let r, rc = sim_run () in
  let stats = r.Executor.stats in
  let nprocs = Array.length stats.Sim.rank_clocks in
  let trace = Recorder.spans rc in
  Alcotest.(check bool) "trace nonempty" true (trace <> []);
  check_rank_spans_disjoint "sim" trace ~nprocs;
  (* every rank's span durations sum to at most its final clock *)
  Array.iteri
    (fun rank spans ->
      let total = List.fold_left (fun a s -> a +. Span.duration s) 0. spans in
      if total > stats.Sim.rank_clocks.(rank) +. 1e-9 then
        Alcotest.failf "rank %d: %g traced > %g clock" rank total
          stats.Sim.rank_clocks.(rank))
    (Span.by_rank ~nprocs trace);
  (* the merged list is globally time-ordered *)
  let rec ordered = function
    | a :: (b :: _ as rest) -> a.Span.t0 <= b.Span.t0 && ordered rest
    | _ -> true
  in
  Alcotest.(check bool) "merged trace time-ordered" true (ordered trace)

let test_shm_span_invariants () =
  let r, rc = shm_run () in
  let trace = Recorder.spans rc in
  Alcotest.(check bool) "trace nonempty" true (trace <> []);
  check_rank_spans_disjoint "shm" trace ~nprocs:r.Shm_executor.nprocs;
  List.iter
    (fun s ->
      if Span.duration s < 0. then
        Alcotest.failf "negative span duration %g" (Span.duration s))
    trace

(* the shm timeline law, in both schedules: a Wait span is a receive,
   so it ends exactly where the message it waited for became ready, and
   a Send span is a send, so a rank has no more of them than messages *)
let test_shm_timeline_law () =
  let plan, kernel = sor_plan () in
  let nprocs = Plan.nprocs plan in
  List.iter
    (fun overlap ->
      let name = if overlap then "overlapped" else "blocking" in
      let rc = Recorder.create ~keep:Recorder.Timeline ~nprocs () in
      ignore (Shm_executor.run ~recorder:rc ~overlap ~plan ~kernel ());
      let edges = Recorder.edges rc in
      let sent = Recorder.rank_messages rc in
      Array.iteri
        (fun rank spans ->
          let sends =
            List.filter (fun s -> s.Span.kind = Span.Send) spans
          in
          if List.length sends > sent.(rank) then
            Alcotest.failf "%s: rank %d has %d Send spans for %d messages"
              name rank (List.length sends) sent.(rank);
          List.iter
            (fun (s : Span.t) ->
              if
                s.Span.kind = Span.Wait
                && not
                     (List.exists
                        (fun (e : Recorder.edge) ->
                          e.Recorder.e_dst = rank
                          && e.Recorder.e_ready = s.Span.t1)
                        edges)
              then
                Alcotest.failf "%s: rank %d Wait ending at %g has no edge"
                  name rank s.Span.t1)
            spans)
        (Span.by_rank ~nprocs (Recorder.spans rc)))
    [ false; true ]

(* an untraced shm run keeps counters only: it reads the recorder's
   clock to start and to stamp each rank's finish, never per message *)
let test_shm_untraced_clock_reads () =
  let plan, kernel = sor_plan () in
  let nprocs = Plan.nprocs plan in
  let reads = Atomic.make 0 in
  let clock () =
    Atomic.incr reads;
    Tiles_obs.Clock.monotonic ()
  in
  let rc = Recorder.create ~clock ~nprocs () in
  let r = Shm_executor.run ~recorder:rc ~plan ~kernel () in
  Alcotest.(check bool) "messages moved" true (r.Shm_executor.messages > 0);
  let n = Atomic.get reads in
  if n > (2 * nprocs) + 2 then
    Alcotest.failf "%d clock reads for %d ranks" n nprocs

(* both backends execute the same protocol, so their message and byte
   counts must agree exactly — globally and per rank *)
let test_sim_shm_counters_agree () =
  let sim, sim_rc = sim_run () and shm, shm_rc = shm_run () in
  let agg =
    Stats.of_recorder ~completion:sim.Executor.stats.Sim.completion sim_rc
  in
  let shm_stats =
    Stats.of_recorder ~completion:shm.Shm_executor.wall_seconds shm_rc
  in
  Alcotest.(check int) "messages" agg.Stats.messages shm_stats.Stats.messages;
  Alcotest.(check int) "bytes" agg.Stats.bytes shm_stats.Stats.bytes;
  (* the in-flight high-water mark depends on the interleaving, so the
     wall-clock backend's is only bounded, not equal *)
  let shm_hw = shm_stats.Stats.max_inflight_bytes in
  Alcotest.(check bool) "max in-flight positive and bounded" true
    (shm_hw > 0 && shm_hw <= agg.Stats.bytes);
  Array.iteri
    (fun i (a : Stats.rank) ->
      let b = shm_stats.Stats.ranks.(i) in
      Alcotest.(check int)
        (Printf.sprintf "rank %d messages" i)
        a.Stats.messages b.Stats.messages;
      Alcotest.(check int)
        (Printf.sprintf "rank %d bytes" i)
        a.Stats.bytes b.Stats.bytes)
    agg.Stats.ranks;
  (* and the shm run really computed the right answer: bit for bit the
     boxed reference walk's *)
  let plan, kernel = sor_plan () in
  let space = plan.Plan.nest.Tiles_loop.Nest.space in
  Alcotest.(check (float 0.)) "shm correct" 0.
    (Tiles_runtime.Grid.max_abs_diff shm.Shm_executor.grid
       (Tiles_runtime.Seq_exec.run ~variant:Tiles_runtime.Walker.Reference
          ~space ~kernel ())
       space)

(* ---------------- aggregate stats ---------------- *)

let test_stats_make () =
  let spans =
    [
      { Span.rank = 0; t0 = 0.; t1 = 2.; kind = Span.Compute };
      { Span.rank = 0; t0 = 2.; t1 = 3.; kind = Span.Send };
      { Span.rank = 1; t0 = 0.; t1 = 1.; kind = Span.Wait };
      { Span.rank = 1; t0 = 1.; t1 = 2.; kind = Span.Unpack };
      { Span.rank = 1; t0 = 2.; t1 = 2.5; kind = Span.Pack };
    ]
  in
  let s = Stats.of_recorder ~completion:4. (recorder_of_spans ~nprocs:2 spans) in
  Alcotest.(check (float 1e-12)) "rank0 busy" 3. s.Stats.ranks.(0).Stats.busy;
  Alcotest.(check (float 1e-12)) "rank0 busy fraction" 0.75
    s.Stats.ranks.(0).Stats.busy_fraction;
  Alcotest.(check (float 1e-12)) "rank1 wait not busy" 1.5
    s.Stats.ranks.(1).Stats.busy;
  Alcotest.(check (float 1e-12)) "total compute" 2. s.Stats.total_compute;
  Alcotest.(check (float 1e-12)) "total comm" 3.5 s.Stats.total_comm;
  Alcotest.(check (float 1e-12)) "ratio" 1.75 s.Stats.comm_compute_ratio;
  Alcotest.(check (float 1e-12)) "max rank busy" 3. s.Stats.max_rank_busy;
  Alcotest.(check (float 0.)) "no causal path without edges" 0.
    s.Stats.critical_path;
  (* json embeds per-rank busy fractions *)
  match Stats.to_json s with
  | Json.Obj kvs ->
    Alcotest.(check bool) "has ranks" true (List.mem_assoc "ranks" kvs);
    Alcotest.(check bool) "has mean_busy_fraction" true
      (List.mem_assoc "mean_busy_fraction" kvs)
  | _ -> Alcotest.fail "stats json not an object"

let test_stats_untraced () =
  let rc = Recorder.create ~nprocs:2 () in
  for _ = 1 to 5 do
    Recorder.message_sent (Recorder.log rc ~rank:0) ~dst:1 ~tag:0 ~bytes:8 ()
  done;
  let s = Stats.of_recorder ~completion:1. rc in
  Alcotest.(check int) "messages survive" 5 s.Stats.messages;
  Alcotest.(check (float 0.)) "no busy" 0. s.Stats.mean_busy_fraction

(* ---------------- chrome exporter ---------------- *)

let test_chrome_json_shape () =
  let spans =
    [
      { Span.rank = 0; t0 = 0.; t1 = 1e-3; kind = Span.Compute };
      { Span.rank = 1; t0 = 1e-3; t1 = 2e-3; kind = Span.Wait };
    ]
  in
  match Chrome.to_json ~process_name:"test" ~nprocs:2 spans with
  | Json.Obj kvs ->
    (match List.assoc_opt "traceEvents" kvs with
    | Some (Json.List events) ->
      (* 1 process_name + 2 thread_name metadata + 2 "X" events *)
      Alcotest.(check int) "event count" 5 (List.length events);
      let phases =
        List.filter_map
          (fun e ->
            match e with
            | Json.Obj fields ->
              (match List.assoc_opt "ph" fields with
              | Some (Json.Str p) -> Some p
              | _ -> None)
            | _ -> None)
          events
      in
      Alcotest.(check int) "metadata events" 3
        (List.length (List.filter (( = ) "M") phases));
      Alcotest.(check int) "complete events" 2
        (List.length (List.filter (( = ) "X") phases));
      (* an "X" event carries microsecond ts/dur *)
      let x =
        List.find
          (fun e ->
            match e with
            | Json.Obj f -> List.assoc_opt "ph" f = Some (Json.Str "X")
            | _ -> false)
          events
      in
      (match x with
      | Json.Obj f ->
        (match (List.assoc_opt "ts" f, List.assoc_opt "dur" f) with
        | Some (Json.Float ts), Some (Json.Float dur) ->
          Alcotest.(check (float 1e-9)) "ts scaled" 0. ts;
          Alcotest.(check (float 1e-9)) "dur scaled" 1000. dur
        | _ -> Alcotest.fail "X event lacks ts/dur floats")
      | _ -> assert false)
    | _ -> Alcotest.fail "no traceEvents list")
  | _ -> Alcotest.fail "chrome json not an object"

let test_chrome_write () =
  let path = Filename.temp_file "tiles_trace" ".json" in
  Chrome.write ~nprocs:1 ~path
    [ { Span.rank = 0; t0 = 0.; t1 = 1.; kind = Span.Send } ];
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "mentions traceEvents" true
    (Astring.String.is_infix ~affix:"traceEvents" s);
  Alcotest.(check bool) "displayTimeUnit" true
    (Astring.String.is_infix ~affix:"displayTimeUnit" s)

(* ---------------- metric distributions ---------------- *)

module Metric = Tiles_obs.Metric
module Baseline = Tiles_obs.Baseline
module Residual = Tiles_obs.Residual
module Runmeta = Tiles_obs.Runmeta

let test_metric_summary () =
  let s = Metric.of_values [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check int) "count" 4 s.Metric.count;
  Alcotest.(check (float 1e-12)) "mean" 2.5 s.Metric.mean;
  (* sample stddev of 1..4 is sqrt(5/3) *)
  Alcotest.(check (float 1e-9)) "stddev" (sqrt (5. /. 3.)) s.Metric.stddev;
  Alcotest.(check (float 0.)) "min" 1.0 s.Metric.min;
  Alcotest.(check (float 0.)) "max" 4.0 s.Metric.max;
  (* the geometric histogram estimates percentiles within ±2.5% *)
  Alcotest.(check bool) "p50 near 2" true
    (Float.abs (s.Metric.p50 -. 2.0) <= 0.05 *. 2.0);
  Alcotest.(check bool) "p99 near max" true
    (Float.abs (s.Metric.p99 -. 4.0) <= 0.1 *. 4.0);
  Alcotest.(check bool) "ordered" true
    (s.Metric.p50 <= s.Metric.p90 && s.Metric.p90 <= s.Metric.p99)

let test_metric_constant_samples () =
  (* a deterministic quantity must summarize exactly: percentiles are
     clamped into [min, max] so bucket midpoints cannot leak noise *)
  let s = Metric.of_values [ 0.125; 0.125; 0.125 ] in
  Alcotest.(check (float 0.)) "stddev" 0. s.Metric.stddev;
  Alcotest.(check (float 0.)) "p50 exact" 0.125 s.Metric.p50;
  Alcotest.(check (float 0.)) "p99 exact" 0.125 s.Metric.p99

let test_metric_empty () =
  let s = Metric.summarize (Metric.create ()) in
  Alcotest.(check int) "count" 0 s.Metric.count;
  Alcotest.(check (float 0.)) "mean" 0. s.Metric.mean;
  (* percentiles of an empty metric are 0, not the min/max sentinels
     (the clamp used to leak neg_infinity) *)
  Alcotest.(check (float 0.)) "p50" 0. s.Metric.p50;
  Alcotest.(check (float 0.)) "p99" 0. s.Metric.p99;
  Alcotest.(check (float 0.)) "min" 0. s.Metric.min;
  Alcotest.(check (float 0.)) "max" 0. s.Metric.max

let test_metric_rejects_nan () =
  let m = Metric.create () in
  Metric.add m 1.0;
  Metric.add m Float.nan;
  Metric.add m 3.0;
  Alcotest.(check int) "nan not counted" 2 (Metric.count m);
  Alcotest.(check int) "nan tallied" 1 (Metric.nans m);
  let s = Metric.summarize m in
  Alcotest.(check (float 1e-12)) "mean unpoisoned" 2.0 s.Metric.mean;
  Alcotest.(check (float 0.)) "min unpoisoned" 1.0 s.Metric.min;
  Alcotest.(check (float 0.)) "max unpoisoned" 3.0 s.Metric.max;
  (* a metric fed only NaN summarises like an empty one *)
  let n = Metric.create () in
  Metric.add n Float.nan;
  let s = Metric.summarize n in
  Alcotest.(check int) "count" 0 s.Metric.count;
  Alcotest.(check (float 0.)) "p99" 0. s.Metric.p99

let prop_finite_in_finite_out =
  QCheck.Test.make ~name:"finite samples in => finite summary out"
    ~count:200
    QCheck.(
      make
        ~print:Print.(list float)
        Gen.(list_size (int_range 0 40) (float_bound_exclusive 1e9)))
    (fun vs ->
      let s = Metric.of_values vs in
      List.for_all Float.is_finite
        [ s.Metric.mean; s.Metric.stddev; s.Metric.min; s.Metric.max;
          s.Metric.p50; s.Metric.p90; s.Metric.p99 ])

let test_metric_json_roundtrip () =
  let s = Metric.of_values [ 0.5; 0.75; 1.5 ] in
  match Metric.summary_of_json (Metric.summary_to_json s) with
  | Ok s' -> Alcotest.(check bool) "roundtrip" true (s = s')
  | Error e -> Alcotest.failf "summary json did not round-trip: %s" e

let mk_stats ~completion ?(messages = 10) ?(bytes = 100) () =
  { (Stats.of_recorder ~completion (Recorder.create ~nprocs:1 ())) with
    Stats.messages; bytes; max_inflight_bytes = 50 }

let test_stats_distributions () =
  let runs =
    [ mk_stats ~completion:9.9 (); mk_stats ~completion:1.0 ();
      mk_stats ~completion:1.2 () ]
  in
  let dist = Stats.distributions ~warmup:1 runs in
  let c = List.assoc "completion_s" dist in
  (* the warmup run (9.9) is dropped *)
  Alcotest.(check int) "count" 2 c.Metric.count;
  Alcotest.(check (float 1e-12)) "mean" 1.1 c.Metric.mean;
  Alcotest.(check bool) "all timed fields present" true
    (List.for_all
       (fun (k, _) -> List.mem_assoc k dist)
       (Stats.timed_fields (List.hd runs)));
  (* summary grows a distribution table only when dist is passed *)
  let plain = Stats.summary (List.hd runs) in
  let with_dist = Stats.summary ~dist (List.hd runs) in
  Alcotest.(check bool) "plain has no dist table" false
    (Astring.String.is_infix ~affix:"distributions" plain);
  Alcotest.(check bool) "dist table present" true
    (Astring.String.is_infix ~affix:"distributions" with_dist);
  Alcotest.(check bool) "p99 column" true
    (Astring.String.is_infix ~affix:"p99" with_dist);
  Alcotest.check_raises "empty after warmup"
    (Invalid_argument "Stats.distributions: warmup leaves no measured runs")
    (fun () -> ignore (Stats.distributions ~warmup:3 runs))

let test_dist_json_roundtrip () =
  let dist =
    Stats.distributions [ mk_stats ~completion:1.0 (); mk_stats ~completion:1.5 () ]
  in
  match Stats.dist_of_json (Stats.dist_to_json dist) with
  | Ok d -> Alcotest.(check bool) "roundtrip" true (d = dist)
  | Error e -> Alcotest.failf "dist json did not round-trip: %s" e

(* ---------------- baselines and the regression gate ---------------- *)

let meta ?(app = "sor") () =
  Runmeta.make ~app ~variant:"nonrect" ~size1:12 ~size2:16 ~tile:(3, 4, 4)
    ~nprocs:4 ~backend:"sim" ~netmodel:"fast_ethernet_cluster" ()

let baseline_of ~completions ?messages ?bytes () =
  let runs = List.map (fun c -> mk_stats ~completion:c ?messages ?bytes ()) completions in
  Baseline.make ~meta:(meta ())
    ~stats:(List.hd (List.rev runs))
    ~timings:(Stats.distributions runs)

let test_runmeta_roundtrip () =
  let m = meta () in
  match Runmeta.of_json (Runmeta.to_json m) with
  | Ok m' -> Alcotest.(check bool) "roundtrip" true (m = m')
  | Error e -> Alcotest.failf "runmeta did not round-trip: %s" e

(* the serve fields follow the overlap bit's absent-default discipline:
   present values round-trip, defaults are omitted from the JSON so
   pre-serve artifacts stay byte-identical and still parse *)
let test_runmeta_serve_fields () =
  let m =
    Runmeta.make ~app:"sor" ~variant:"nonrect" ~size1:12 ~size2:16
      ~tile:(3, 4, 4) ~nprocs:4 ~backend:"sim"
      ~netmodel:"fast_ethernet_cluster" ~job_id:"job-17" ~queued_s:0.25 ()
  in
  Alcotest.(check bool) "job_id stored" true
    (m.Runmeta.job_id = Some "job-17");
  (match Runmeta.of_json (Runmeta.to_json m) with
  | Ok m' -> Alcotest.(check bool) "roundtrip with serve fields" true (m = m')
  | Error e -> Alcotest.failf "did not round-trip: %s" e);
  (* defaults are omitted: the rendering without them equals the
     rendering of a meta that never had them *)
  let plain = meta () in
  Alcotest.(check bool) "no job_id by default" true
    (plain.Runmeta.job_id = None);
  (match Runmeta.to_json plain with
  | Tiles_util.Json.Obj fields ->
    Alcotest.(check bool) "job_id omitted at default" true
      (not (List.mem_assoc "job_id" fields));
    Alcotest.(check bool) "queued_s omitted at default" true
      (not (List.mem_assoc "queued_s" fields))
  | _ -> Alcotest.fail "runmeta json is not an object");
  (* old artifacts (no serve fields) parse with the defaults *)
  match Runmeta.of_json (Runmeta.to_json plain) with
  | Ok m' ->
    Alcotest.(check bool) "absent parses as None" true
      (m'.Runmeta.job_id = None && m'.Runmeta.queued_s = 0.0)
  | Error e -> Alcotest.failf "plain meta did not parse: %s" e

let test_baseline_roundtrip_and_load () =
  let b = baseline_of ~completions:[ 1.0; 1.1 ] () in
  (match Baseline.of_json (Baseline.to_json b) with
  | Ok b' -> Alcotest.(check bool) "json roundtrip" true (b = b')
  | Error e -> Alcotest.failf "baseline json did not round-trip: %s" e);
  let path = Filename.temp_file "tiles_baseline" ".json" in
  Baseline.save b ~path;
  (match Baseline.load ~path with
  | Ok b' -> Alcotest.(check bool) "save/load" true (b = b')
  | Error e -> Alcotest.failf "baseline save/load failed: %s" e);
  (* a corrupt file reports the parse position, prefixed by the path *)
  let oc = open_out path in
  output_string oc "{\n  \"schema\": oops\n}";
  close_out oc;
  (match Baseline.load ~path with
  | Ok _ -> Alcotest.fail "corrupt baseline unexpectedly loaded"
  | Error e ->
    Alcotest.(check bool) "error carries position" true
      (Astring.String.is_infix ~affix:"line 2" e));
  Sys.remove path

(* Files written while two-level tiling and the strength walker existed
   must keep loading: schema 1.4 metadata may carry "inner" (now an
   ignored unknown field) and name the retired "strength" walker (kept
   as read). *)
let read_fixture name =
  let ic = open_in_bin (Filename.concat "fixtures" name) in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: %s" name e

let test_retired_fields_still_load () =
  (match Runmeta.of_json (read_fixture "runmeta-1.4-inner-strength.json") with
  | Ok m ->
    Alcotest.(check string) "walker kept as read" "strength" m.Runmeta.walker;
    Alcotest.(check string) "app" "jacobi" m.Runmeta.app
  | Error e -> Alcotest.failf "runmeta fixture rejected: %s" e);
  let inner_baseline = "sor-nonrect-sim-inner-3x4x4.json" in
  (match Json.member "metadata" (read_fixture inner_baseline) with
  | Some meta -> (
    match Runmeta.of_json meta with
    | Ok m -> Alcotest.(check int) "nprocs" 22 m.Runmeta.nprocs
    | Error e -> Alcotest.failf "baseline metadata rejected: %s" e)
  | None -> Alcotest.fail "baseline fixture has no metadata");
  match Baseline.load ~path:(Filename.concat "fixtures" inner_baseline) with
  | Ok b ->
    Alcotest.(check string) "baseline app" "sor" b.Baseline.meta.Runmeta.app
  | Error e -> Alcotest.failf "inner baseline rejected: %s" e

(* Runmeta files from before the overlap flag (schema 1.1) and before
   the walker field (1.2) load with the documented defaults — blocking,
   fast walker, no fallback, no job — and name the same baseline file a
   current run of that configuration would. *)
let test_old_runmeta_defaults () =
  let load name =
    match Runmeta.of_json (read_fixture name) with
    | Ok m -> m
    | Error e -> Alcotest.failf "%s rejected: %s" name e
  in
  let check_defaults name (m : Runmeta.t) =
    Alcotest.(check string) (name ^ " walker") "fast" m.Runmeta.walker;
    Alcotest.(check (option string))
      (name ^ " fallback") None m.Runmeta.walker_fallback;
    Alcotest.(check (option string)) (name ^ " job") None m.Runmeta.job_id;
    Alcotest.(check (float 0.)) (name ^ " queued") 0. m.Runmeta.queued_s
  in
  let pre_overlap = load "runmeta-1.1-pre-overlap.json" in
  check_defaults "1.1" pre_overlap;
  Alcotest.(check bool) "1.1 blocking" false pre_overlap.Runmeta.overlap;
  Alcotest.(check string) "1.1 path" "perf/baselines/sor-nonrect-sim.json"
    (Baseline.default_path ~dir:"perf/baselines" ~meta:pre_overlap);
  let pre_walker = load "runmeta-1.2-overlap.json" in
  check_defaults "1.2" pre_walker;
  Alcotest.(check bool) "1.2 overlap kept" true pre_walker.Runmeta.overlap;
  Alcotest.(check int) "1.2 nprocs" 43 pre_walker.Runmeta.nprocs;
  Alcotest.(check string) "1.2 path"
    "perf/baselines/jacobi-rect-shm-overlap.json"
    (Baseline.default_path ~dir:"perf/baselines" ~meta:pre_walker)

let test_baseline_refuses_newer_schema () =
  let b = baseline_of ~completions:[ 1.0 ] () in
  let bumped =
    match Baseline.to_json b with
    | Json.Obj kvs ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             if k = "schema_version" then
               (k, Json.Int (Baseline.schema_version + 1))
             else (k, v))
           kvs)
    | _ -> Alcotest.fail "baseline json not an object"
  in
  match Baseline.of_json bumped with
  | Ok _ -> Alcotest.fail "newer schema unexpectedly accepted"
  | Error e ->
    Alcotest.(check bool) "names the schema" true
      (Astring.String.is_infix ~affix:"schema" e)

let test_compare_noise_tolerated () =
  (* base is noisy (stddev 0.2); current is 8% slower — beyond the 5%
     relative threshold but well inside 3σ, so the gate stays green *)
  let base = baseline_of ~completions:[ 1.0; 1.2; 0.8 ] () in
  let cur = baseline_of ~completions:[ 1.08; 1.08; 1.08 ] () in
  let v = Baseline.compare ~baseline:base cur in
  Alcotest.(check bool) "ok" true v.Baseline.ok;
  Alcotest.(check int) "no regressions" 0 (List.length v.Baseline.regressions);
  Alcotest.(check bool) "fields were checked" true (v.Baseline.checked > 0);
  Alcotest.(check bool) "report says PASS" true
    (Astring.String.is_infix ~affix:"PASS" (Baseline.report v))

let test_compare_regression_fails () =
  (* deterministic base (stddev 0): a 30% slowdown gates on the
     relative threshold alone *)
  let base = baseline_of ~completions:[ 1.0; 1.0 ] () in
  let cur = baseline_of ~completions:[ 1.3; 1.3 ] () in
  let v = Baseline.compare ~baseline:base cur in
  Alcotest.(check bool) "not ok" false v.Baseline.ok;
  Alcotest.(check bool) "has regression" true (v.Baseline.regressions <> []);
  let d =
    List.find
      (fun (d : Baseline.delta) -> d.Baseline.field = "completion_s")
      v.Baseline.regressions
  in
  Alcotest.(check (float 1e-9)) "rel" 0.3 d.Baseline.rel;
  Alcotest.(check bool) "report says REGRESSION" true
    (Astring.String.is_infix ~affix:"REGRESSION" (Baseline.report v));
  (* the same delta in the other direction is an improvement, not a
     failure *)
  let v' = Baseline.compare ~baseline:cur base in
  Alcotest.(check bool) "improvement ok" true v'.Baseline.ok;
  Alcotest.(check bool) "has improvement" true (v'.Baseline.improvements <> [])

let test_compare_counter_mismatch () =
  let base = baseline_of ~completions:[ 1.0 ] ~messages:10 ~bytes:100 () in
  let cur = baseline_of ~completions:[ 1.0 ] ~messages:11 ~bytes:100 () in
  let v = Baseline.compare ~baseline:base cur in
  Alcotest.(check bool) "not ok" false v.Baseline.ok;
  (match v.Baseline.counter_mismatch with
  | [ (field, b, c) ] ->
    Alcotest.(check string) "field" "messages" field;
    Alcotest.(check int) "base" 10 b;
    Alcotest.(check int) "cur" 11 c
  | l -> Alcotest.failf "expected 1 counter mismatch, got %d" (List.length l));
  (* excluding the counter from the exact list (the shm high-water case)
     lets the comparison pass *)
  let v' = Baseline.compare ~exact:[ "bytes" ] ~baseline:base cur in
  Alcotest.(check bool) "excluded counter tolerated" true v'.Baseline.ok

let test_compare_meta_mismatch () =
  let base = baseline_of ~completions:[ 1.0 ] () in
  let cur = { base with Baseline.meta = meta ~app:"jacobi" () } in
  let v = Baseline.compare ~baseline:base cur in
  Alcotest.(check bool) "not ok" false v.Baseline.ok;
  Alcotest.(check bool) "names app" true
    (List.mem "app" v.Baseline.meta_mismatch)

(* ---------------- model residuals ---------------- *)

let test_residual_calibrate () =
  let e label source predicted observed =
    { Residual.label; source; field = "completion_s"; predicted; observed }
  in
  let entries =
    [
      e "a" "model" 1.5 1.0; (* +50% *)
      e "b" "model" 0.75 1.0; (* -25% *)
      e "a" "refine" 1.0 1.0; (* exact *)
    ]
  in
  Alcotest.(check (float 1e-12)) "rel_error" 0.5
    (Residual.rel_error (e "a" "model" 1.5 1.0));
  Alcotest.(check (float 0.)) "0/0" 0. (Residual.rel_error (e "z" "m" 0. 0.));
  Alcotest.(check bool) "x/0 infinite" true
    (Float.is_infinite (Residual.rel_error (e "z" "m" 2. 0.)));
  (match Residual.calibrate entries with
  | [ m; r ] ->
    Alcotest.(check string) "first source" "model" m.Residual.source;
    Alcotest.(check int) "count" 2 m.Residual.count;
    Alcotest.(check (float 1e-12)) "mean |err|" 0.375 m.Residual.mean_abs_rel;
    Alcotest.(check (float 1e-12)) "bias" 0.125 m.Residual.mean_rel;
    Alcotest.(check (float 1e-12)) "max |err|" 0.5 m.Residual.max_abs_rel;
    Alcotest.(check (float 0.)) "exact source" 0. r.Residual.mean_abs_rel
  | l -> Alcotest.failf "expected 2 calibration rows, got %d" (List.length l));
  let rendered = Residual.report entries in
  Alcotest.(check bool) "report has calibration" true
    (Astring.String.is_infix ~affix:"calibration" rendered);
  match Residual.to_json entries with
  | Json.Obj kvs ->
    Alcotest.(check bool) "json has entries" true (List.mem_assoc "entries" kvs);
    Alcotest.(check bool) "json has calibration" true
      (List.mem_assoc "calibration" kvs)
  | _ -> Alcotest.fail "residual json not an object"

(* ---------------- chrome metadata ---------------- *)

let test_chrome_metadata () =
  let spans = [ { Span.rank = 0; t0 = 0.; t1 = 1e-3; kind = Span.Compute } ] in
  (match Chrome.to_json ~meta:(meta ()) ~nprocs:1 spans with
  | Json.Obj kvs ->
    (match List.assoc_opt "metadata" kvs with
    | Some (Json.Obj m) ->
      Alcotest.(check bool) "has app" true (List.mem_assoc "app" m);
      Alcotest.(check bool) "has tilec_version" true
        (List.mem_assoc "tilec_version" m);
      Alcotest.(check bool) "has backend" true (List.mem_assoc "backend" m)
    | _ -> Alcotest.fail "metadata key missing or not an object")
  | _ -> Alcotest.fail "chrome json not an object");
  (* without meta the key is absent — old consumers see the old shape *)
  match Chrome.to_json ~nprocs:1 spans with
  | Json.Obj kvs ->
    Alcotest.(check bool) "no metadata by default" false
      (List.mem_assoc "metadata" kvs)
  | _ -> Alcotest.fail "chrome json not an object"

let () =
  Alcotest.run "tiles_obs"
    [
      ( "recorder",
        [
          Alcotest.test_case "counters" `Quick test_recorder_counters;
          Alcotest.test_case "untraced drops spans" `Quick
            test_recorder_untraced_drops_spans;
          Alcotest.test_case "restart moves time 0" `Quick
            test_recorder_restart;
          Alcotest.test_case "virtual clock close" `Quick
            test_recorder_virtual_clock;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "sim spans" `Quick test_sim_span_invariants;
          Alcotest.test_case "shm spans" `Quick test_shm_span_invariants;
          Alcotest.test_case "shm timeline law" `Quick test_shm_timeline_law;
          Alcotest.test_case "untraced shm clock reads" `Quick
            test_shm_untraced_clock_reads;
          Alcotest.test_case "sim vs shm counters" `Quick
            test_sim_shm_counters_agree;
        ] );
      ( "stats",
        [
          Alcotest.test_case "make" `Quick test_stats_make;
          Alcotest.test_case "untraced" `Quick test_stats_untraced;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "json shape" `Quick test_chrome_json_shape;
          Alcotest.test_case "write" `Quick test_chrome_write;
          Alcotest.test_case "run metadata" `Quick test_chrome_metadata;
        ] );
      ( "metric",
        [
          Alcotest.test_case "summary" `Quick test_metric_summary;
          Alcotest.test_case "constant samples" `Quick
            test_metric_constant_samples;
          Alcotest.test_case "empty" `Quick test_metric_empty;
          Alcotest.test_case "rejects nan" `Quick test_metric_rejects_nan;
          QCheck_alcotest.to_alcotest prop_finite_in_finite_out;
          Alcotest.test_case "json roundtrip" `Quick test_metric_json_roundtrip;
          Alcotest.test_case "stats distributions" `Quick
            test_stats_distributions;
          Alcotest.test_case "dist json roundtrip" `Quick
            test_dist_json_roundtrip;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "runmeta roundtrip" `Quick test_runmeta_roundtrip;
          Alcotest.test_case "runmeta serve fields" `Quick
            test_runmeta_serve_fields;
          Alcotest.test_case "save/load" `Quick test_baseline_roundtrip_and_load;
          Alcotest.test_case "retired fields still load" `Quick
            test_retired_fields_still_load;
          Alcotest.test_case "pre-1.3 runmeta defaults" `Quick
            test_old_runmeta_defaults;
          Alcotest.test_case "newer schema refused" `Quick
            test_baseline_refuses_newer_schema;
          Alcotest.test_case "noise tolerated" `Quick
            test_compare_noise_tolerated;
          Alcotest.test_case "regression fails" `Quick
            test_compare_regression_fails;
          Alcotest.test_case "counter mismatch" `Quick
            test_compare_counter_mismatch;
          Alcotest.test_case "meta mismatch" `Quick test_compare_meta_mismatch;
        ] );
      ( "residual",
        [ Alcotest.test_case "calibrate" `Quick test_residual_calibrate ] );
    ]
