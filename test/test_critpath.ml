(* The causal analysis layer: seq-id edge joining, the critical-path
   walk, streaming-vs-exact aggregation equivalence, and the cross-layer
   properties tying the causal path to completion on both backends. *)

module Span = Tiles_obs.Span
module Recorder = Tiles_obs.Recorder
module Critpath = Tiles_obs.Critpath
module Stats = Tiles_obs.Stats
module Chrome = Tiles_obs.Chrome
module Json = Tiles_util.Json
module Sim = Tiles_mpisim.Sim
module Plan = Tiles_core.Plan
module Executor = Tiles_runtime.Executor
module Shm_executor = Tiles_runtime.Shm_executor
module Netmodel = Tiles_mpisim.Netmodel

let net = Netmodel.fast_ethernet_cluster
let eps = 1e-9

let sor_plan () =
  let p = Tiles_apps.Sor.make ~m_steps:12 ~size:16 in
  ( Plan.make ~m:2 (Tiles_apps.Sor.nest p) (Tiles_apps.Sor.nonrect ~x:3 ~y:4 ~z:4),
    Tiles_apps.Sor.kernel p )

(* ---------------- edge joining ---------------- *)

let test_edge_seq_numbers () =
  let t = Recorder.create ~keep:Recorder.Timeline ~clock:(fun () -> 0.) ~nprocs:2 () in
  let l0 = Recorder.log t ~rank:0 and l1 = Recorder.log t ~rank:1 in
  (* two messages on the same (0,1,tag 5) channel, one on tag 9: the
     same-channel pair gets seq 0 then 1, the other channel restarts *)
  Recorder.message_sent l0 ~t:1.0 ~dst:1 ~tag:5 ~bytes:8 ();
  Recorder.message_sent l0 ~t:2.0 ~dst:1 ~tag:5 ~bytes:8 ();
  Recorder.message_sent l0 ~t:3.0 ~dst:1 ~tag:9 ~bytes:8 ();
  Recorder.message_received l1 ~t:1.5 ~posted:0.5 ~src:0 ~tag:5 ~bytes:8 ();
  Recorder.message_received l1 ~t:2.5 ~posted:1.5 ~src:0 ~tag:5 ~bytes:8 ();
  Recorder.message_received l1 ~t:3.5 ~posted:2.5 ~src:0 ~tag:9 ~bytes:8 ();
  match Recorder.edges t with
  | [ a; b; c ] ->
    Alcotest.(check int) "seq 0" 0 a.Recorder.e_seq;
    Alcotest.(check (float 0.)) "sent stamp joined" 1.0 a.Recorder.e_sent;
    Alcotest.(check int) "seq 1" 1 b.Recorder.e_seq;
    Alcotest.(check (float 0.)) "second sent" 2.0 b.Recorder.e_sent;
    Alcotest.(check int) "new channel restarts" 0 c.Recorder.e_seq;
    Alcotest.(check int) "tag carried" 9 c.Recorder.e_tag;
    Alcotest.(check (float 0.)) "posted" 2.5 c.Recorder.e_posted;
    Alcotest.(check (float 0.)) "ready" 3.5 c.Recorder.e_ready
  | l -> Alcotest.failf "expected 3 edges, got %d" (List.length l)

let test_streaming_retains_no_edges () =
  let t =
    Recorder.create ~keep:Recorder.Totals
      ~clock:(fun () -> 0.)
      ~nprocs:2 ()
  in
  let l0 = Recorder.log t ~rank:0 and l1 = Recorder.log t ~rank:1 in
  Recorder.message_sent l0 ~t:1.0 ~dst:1 ~tag:0 ~bytes:8 ();
  Recorder.message_received l1 ~t:2.0 ~src:0 ~tag:0 ~bytes:8 ();
  Recorder.span l0 ~t0:0. ~t1:1. Span.Compute;
  Alcotest.(check int) "no edges" 0 (List.length (Recorder.edges t));
  Alcotest.(check int) "no spans" 0 (List.length (Recorder.spans t));
  (* but the counters and totals are still exact *)
  Alcotest.(check int) "messages" 1 (Recorder.messages t);
  Alcotest.(check (float 0.)) "compute total" 1.
    (Recorder.kind_seconds t).(0).(0)

(* ---------------- the walk on a hand-built trace ---------------- *)

(* rank 0: Compute [0,2], Send [2,3] — message leaves at 3
   rank 1: Wait [0,3] (bound by the edge), Unpack [3,4]
   The causal path must be Compute, Send, a zero-length flight, Unpack:
   4 seconds exactly, with the wait absorbed by the edge crossing. *)
let hand_trace () =
  let t = Recorder.create ~keep:Recorder.Timeline ~clock:(fun () -> 0.) ~nprocs:2 () in
  let l0 = Recorder.log t ~rank:0 and l1 = Recorder.log t ~rank:1 in
  Recorder.span l0 ~t0:0. ~t1:2. Span.Compute;
  Recorder.span l0 ~t0:2. ~t1:3. Span.Send;
  Recorder.message_sent l0 ~t:3. ~dst:1 ~tag:7 ~bytes:64 ();
  Recorder.span l1 ~t0:0. ~t1:3. Span.Wait;
  Recorder.message_received l1 ~t:3. ~posted:0. ~src:0 ~tag:7 ~bytes:64 ();
  Recorder.span l1 ~t0:3. ~t1:4. Span.Unpack;
  t

let test_walk_hand_trace () =
  let t = hand_trace () in
  let r =
    Critpath.analyze ~nprocs:2 ~edges:(Recorder.edges t) (Recorder.spans t)
  in
  Alcotest.(check (float eps)) "completion" 4. r.Critpath.completion;
  Alcotest.(check (float eps)) "path = completion" 4. r.Critpath.path_length;
  Alcotest.(check (float eps)) "coverage" 1. r.Critpath.coverage;
  Alcotest.(check int) "one edge crossed" 1 r.Critpath.edges_crossed;
  let kind k = List.assoc k r.Critpath.kind_seconds in
  Alcotest.(check (float eps)) "compute" 2. (kind "compute");
  Alcotest.(check (float eps)) "send" 1. (kind "send");
  Alcotest.(check (float eps)) "unpack" 1. (kind "unpack");
  Alcotest.(check (float eps)) "wait absorbed" 0. (kind "wait");
  Alcotest.(check (float eps)) "flight zero-length" 0. (kind "flight");
  Alcotest.(check (float eps)) "no idle" 0. (kind "idle");
  (* max_rank_busy is the old proxy: rank 0 is busy 3 s, rank 1 only 1 s
     (the wait doesn't count) — strictly below the causal value *)
  Alcotest.(check (float eps)) "max rank busy" 3. r.Critpath.max_rank_busy;
  Alcotest.(check bool) "causal > busy proxy" true
    (r.Critpath.path_length > r.Critpath.max_rank_busy +. 0.5);
  (* phase attribution: everything at or before the edge carries tag 7,
     the receiver's unpack after the crossing has no phase yet *)
  let phase p =
    match List.assoc_opt p r.Critpath.phase_seconds with
    | Some s -> s
    | None -> 0.
  in
  Alcotest.(check (float eps)) "tag-7 phase" 3. (phase (Some 7));
  Alcotest.(check (float eps)) "pre-edge phase" 1. (phase None);
  (* both ranks are tight: no slack anywhere on this trace *)
  Array.iteri
    (fun i s ->
      Alcotest.(check (float eps)) (Printf.sprintf "rank %d slack" i) 0. s)
    r.Critpath.slack;
  (* laggards: rank 0 carries 3 s of the path, rank 1 carries 1 s *)
  (match Critpath.laggards r with
  | [ (0, a); (1, b) ] ->
    Alcotest.(check (float eps)) "rank0 on path" 3. a;
    Alcotest.(check (float eps)) "rank1 on path" 1. b
  | l -> Alcotest.failf "expected 2 laggards, got %d" (List.length l));
  (* segments are chronological and contiguous from 0 to completion *)
  let rec contiguous t0 = function
    | [] -> Alcotest.(check (float eps)) "ends at completion" 4. t0
    | (sg : Critpath.segment) :: rest ->
      Alcotest.(check (float eps)) "contiguous" t0 sg.Critpath.sg_t0;
      contiguous sg.Critpath.sg_t1 rest
  in
  contiguous 0. r.Critpath.segments;
  match Critpath.to_json r with
  | Json.Obj kvs ->
    Alcotest.(check bool) "json has coverage" true
      (List.mem_assoc "coverage" kvs);
    Alcotest.(check bool) "json has segments" true
      (List.mem_assoc "segments" kvs)
  | _ -> Alcotest.fail "report json not an object"

let test_no_edges_degrades () =
  (* without edges the walk cannot hop ranks: it stays on the rank that
     finishes last and fills holes with idle — still a full partition *)
  let spans =
    [
      { Span.rank = 0; t0 = 0.; t1 = 1.; kind = Span.Compute };
      { Span.rank = 1; t0 = 2.; t1 = 3.; kind = Span.Compute };
    ]
  in
  let r = Critpath.analyze ~nprocs:2 ~edges:[] spans in
  Alcotest.(check (float eps)) "path still spans completion" 3.
    r.Critpath.path_length;
  Alcotest.(check (float eps)) "idle fills the hole" 2.
    (List.assoc "idle" r.Critpath.kind_seconds);
  Alcotest.(check int) "no edges crossed" 0 r.Critpath.edges_crossed

(* ---------------- streaming vs exact (QCheck) ---------------- *)

let kind_of_int i = List.nth Span.all_kinds i

let arb_trace nprocs =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 300)
        (let* rank = int_range 0 (nprocs - 1) in
         let* t0i = int_range 0 10_000 in
         let* duri = int_range 0 500 in
         let* k = int_range 0 4 in
         return (rank, float_of_int t0i /. 1000., float_of_int duri /. 1000., k)))
  in
  QCheck.make
    ~print:(fun l ->
      String.concat ";"
        (List.map
           (fun (r, t0, d, k) -> Printf.sprintf "(%d,%g,%g,%d)" r t0 d k)
           l))
    gen

let feed recorder spans =
  List.iter
    (fun (rank, t0, d, k) ->
      Recorder.span (Recorder.log recorder ~rank) ~t0 ~t1:(t0 +. d)
        (kind_of_int k))
    spans

let close_enough a b = Float.abs (a -. b) <= 1e-9 +. (1e-12 *. Float.abs a)

(* every field of a Stats record, floats as their bits, critical_path
   aside (only a Timeline recorder keeps the edges it is walked over) *)
let stats_bits (s : Stats.t) =
  let b = Int64.bits_of_float in
  ( (s.Stats.nprocs, s.Stats.messages, s.Stats.bytes, s.Stats.max_inflight_bytes),
    List.map b
      [ s.Stats.completion; s.Stats.total_compute; s.Stats.total_comm;
        s.Stats.comm_compute_ratio; s.Stats.mean_busy_fraction;
        s.Stats.max_rank_busy; s.Stats.queue_seconds ],
    Array.map
      (fun (r : Stats.rank) ->
        ( (r.Stats.rank, r.Stats.messages, r.Stats.bytes),
          List.map b
            [ r.Stats.compute; r.Stats.pack; r.Stats.send; r.Stats.wait;
              r.Stats.unpack; r.Stats.busy; r.Stats.busy_fraction ] ))
      s.Stats.ranks )

let prop_streaming_matches_exact =
  QCheck.Test.make ~name:"streaming per-rank per-kind totals = exact"
    ~count:100 (arb_trace 4) (fun spans ->
      let exact = Recorder.create ~keep:Recorder.Timeline ~clock:(fun () -> 0.) ~nprocs:4 () in
      let stream =
        Recorder.create ~keep:Recorder.Totals
          ~clock:(fun () -> 0.)
          ~nprocs:4 ()
      in
      feed exact spans;
      feed stream spans;
      (* fold the retained spans the slow way and compare every cell *)
      let want = Array.make_matrix 4 5 0. in
      List.iter
        (fun (s : Span.t) ->
          let k =
            match
              List.find_index (fun x -> x = s.Span.kind) Span.all_kinds
            with
            | Some i -> i
            | None -> assert false
          in
          want.(s.Span.rank).(k) <- want.(s.Span.rank).(k) +. Span.duration s)
        (Recorder.spans exact);
      let got = Recorder.kind_seconds stream in
      let cells_ok = ref true in
      Array.iteri
        (fun r row ->
          Array.iteri
            (fun k w -> if not (close_enough w got.(r).(k)) then cells_ok := false)
            row)
        want;
      (* the wait reservoir holds exactly the longest waits *)
      let exact_waits =
        Recorder.spans exact
        |> List.filter (fun (s : Span.t) -> s.Span.kind = Span.Wait)
        |> List.map Span.duration
        |> List.sort (fun a b -> compare b a)
      in
      let keep = min 8 (List.length exact_waits) in
      let want_waits = List.filteri (fun i _ -> i < keep) exact_waits in
      let got_waits =
        List.map Span.duration (Recorder.longest_waits stream)
      in
      let waits_ok =
        List.length want_waits = List.length got_waits
        && List.for_all2 close_enough want_waits got_waits
      in
      (* the Stats of the two recorders agree bit for bit *)
      let completion =
        List.fold_left (fun a (_, t0, d, _) -> Float.max a (t0 +. d)) 1. spans
      in
      let stats_ok =
        stats_bits (Stats.of_recorder ~completion exact)
        = stats_bits (Stats.of_recorder ~completion stream)
      in
      !cells_ok && waits_ok && stats_ok)

(* a random simulated plan: app and variant, small sizes, blocking or
   overlapped sends, the alpha-beta or a contended network *)
let arb_sim_plan =
  let module Run_spec = Tiles_apps.Run_spec in
  let gen =
    QCheck.Gen.(
      let* app, variant, tile =
        oneofl
          [
            ("sor", "rect", (3, 4, 4)); ("sor", "nonrect", (3, 4, 4));
            ("jacobi", "rect", (3, 4, 4)); ("jacobi", "nonrect", (3, 4, 4));
            ("adi", "rect", (3, 4, 4)); ("adi", "nr3", (3, 4, 4));
          ]
      in
      let* size1 = int_range 6 14 and* size2 = int_range 8 18 in
      let* overlap = bool in
      let* lanes = int_range 0 2 in
      let net =
        if lanes = 0 then net
        else Netmodel.contended ~snd_lanes:lanes ~rcv_lanes:lanes net
      in
      return
        { (Run_spec.default app) with variant; size1; size2; tile; overlap; net })
  in
  QCheck.make
    ~print:(fun (t : Run_spec.t) ->
      let x, y, z = t.Run_spec.tile in
      Printf.sprintf "%s %s %d/%d tile %d,%d,%d overlap=%b net=%s"
        t.Run_spec.app t.Run_spec.variant t.Run_spec.size1 t.Run_spec.size2 x
        y z t.Run_spec.overlap
        (Netmodel.model_id t.Run_spec.net))
    gen

let prop_retain_streaming_stats =
  let module Run_spec = Tiles_apps.Run_spec in
  QCheck.Test.make ~name:"retain and streaming recorders give the same stats"
    ~count:30 arb_sim_plan (fun spec ->
      match Run_spec.resolve spec with
      | Error _ -> QCheck.assume_fail ()
      | Ok r ->
        let plan =
          Plan.make ~m:r.Tiles_apps.Registry.m r.Tiles_apps.Registry.nest
            r.Tiles_apps.Registry.tiling
        in
        let stats keep =
          Lazy.force
            (Run_spec.run ~mode:Run_spec.Timing ~keep spec ~plan
               ~kernel:r.Tiles_apps.Registry.kernel)
              .Run_spec.stats
        in
        stats_bits (stats Run_spec.Timeline)
        = stats_bits (stats Run_spec.Totals))

(* ---------------- backend properties ---------------- *)

(* a traced Full sim run of the SOR plan and the recorder it wrote to *)
let sim_stats () =
  let plan, kernel = sor_plan () in
  let rc =
    Recorder.create ~keep:Recorder.Timeline ~clock:(fun () -> 0.)
      ~nprocs:(Plan.nprocs plan) ()
  in
  ( (Executor.run ~mode:Executor.Full ~recorder:rc ~plan ~kernel ~net ())
      .Executor.stats,
    rc )

let shm_traced () =
  let plan, kernel = sor_plan () in
  let rc = Recorder.create ~keep:Recorder.Timeline ~nprocs:(Plan.nprocs plan) () in
  (Shm_executor.run ~recorder:rc ~plan ~kernel (), rc)

(* the same plan through Run_spec, whose lazy stats walk the path *)
let run_spec_stats backend =
  let module Run_spec = Tiles_apps.Run_spec in
  let plan, kernel = sor_plan () in
  Lazy.force
    (Run_spec.run ~keep:Run_spec.Timeline
       { (Run_spec.default "sor") with backend }
       ~plan ~kernel)
      .Run_spec.stats

let test_sim_path_equals_completion () =
  let stats, rc = sim_stats () in
  let nprocs = Array.length stats.Sim.rank_clocks in
  let edges = Recorder.edges rc in
  Alcotest.(check bool) "edges recorded" true (edges <> []);
  let r =
    Critpath.analyze ~completion:stats.Sim.completion ~nprocs ~edges
      (Recorder.spans rc)
  in
  (* the acceptance bound: segment times sum to completion within 1e-9
     virtual seconds, and the causal value dominates the busy proxy *)
  Alcotest.(check (float eps)) "path = completion" stats.Sim.completion
    r.Critpath.path_length;
  Alcotest.(check bool) "path >= max busy" true
    (r.Critpath.path_length +. eps >= r.Critpath.max_rank_busy);
  Alcotest.(check bool) "path <= completion" true
    (r.Critpath.path_length <= stats.Sim.completion +. eps);
  (* and the run's Stats carry the same causal value *)
  let agg = run_spec_stats Tiles_apps.Run_spec.Sim in
  Alcotest.(check (float eps)) "stats.critical_path is causal"
    r.Critpath.path_length agg.Stats.critical_path

let test_sim_shm_edges_agree () =
  let sim, sim_rc = sim_stats () in
  let _, shm_rc = shm_traced () in
  let sim_edges = Recorder.edges sim_rc and shm_edges = Recorder.edges shm_rc in
  Alcotest.(check int) "edge counts agree" (List.length sim_edges)
    (List.length shm_edges);
  Alcotest.(check int) "every message became an edge" sim.Sim.messages
    (List.length sim_edges);
  (* the causal identities agree exactly: same (src, dst, tag, seq)
     multiset on both backends, only the stamps differ *)
  let key (e : Recorder.edge) =
    (e.Recorder.e_src, e.Recorder.e_dst, e.Recorder.e_tag, e.Recorder.e_seq)
  in
  let ids l = List.sort compare (List.map key l) in
  Alcotest.(check bool) "identical edge identities" true
    (ids sim_edges = ids shm_edges);
  (* the shm stats carry a causal critical path too, bounded by the
     wall-clock trace extent *)
  Alcotest.(check bool) "shm causal path positive" true
    ((run_spec_stats Tiles_apps.Run_spec.Shm).Stats.critical_path > 0.)

let test_shm_path_covers_trace () =
  let shm, rc = shm_traced () in
  let r =
    Critpath.analyze ~nprocs:shm.Shm_executor.nprocs ~edges:(Recorder.edges rc)
      (Recorder.spans rc)
  in
  (* wall-clock traces also partition: the walk never loses time *)
  Alcotest.(check bool) "coverage ~ 1" true (r.Critpath.coverage > 0.999);
  Alcotest.(check bool) "some edges crossed" true (r.Critpath.edges_crossed >= 0)

(* ---------------- chrome flow-event roundtrip ---------------- *)

let test_chrome_edge_roundtrip () =
  let t = hand_trace () in
  let spans = Recorder.spans t and edges = Recorder.edges t in
  let j = Chrome.to_json ~nprocs:2 ~edges spans in
  match Chrome.of_json j with
  | Error e -> Alcotest.failf "reader rejected its own writer: %s" e
  | Ok a ->
    Alcotest.(check int) "nprocs" 2 a.Chrome.nprocs;
    Alcotest.(check int) "span count" (List.length spans)
      (List.length a.Chrome.spans);
    Alcotest.(check int) "edge count" (List.length edges)
      (List.length a.Chrome.edges);
    let e = List.hd a.Chrome.edges and e0 = List.hd edges in
    Alcotest.(check int) "src" e0.Recorder.e_src e.Recorder.e_src;
    Alcotest.(check int) "dst" e0.Recorder.e_dst e.Recorder.e_dst;
    Alcotest.(check int) "tag" e0.Recorder.e_tag e.Recorder.e_tag;
    Alcotest.(check int) "seq" e0.Recorder.e_seq e.Recorder.e_seq;
    Alcotest.(check int) "bytes" e0.Recorder.e_bytes e.Recorder.e_bytes;
    Alcotest.(check (float 1e-12)) "sent" e0.Recorder.e_sent e.Recorder.e_sent;
    Alcotest.(check (float 1e-12)) "ready" e0.Recorder.e_ready
      e.Recorder.e_ready;
    (* and the analysis of the roundtripped archive is unchanged *)
    let r0 = Critpath.analyze ~nprocs:2 ~edges spans in
    let r1 =
      Critpath.analyze ~nprocs:a.Chrome.nprocs ~edges:a.Chrome.edges
        a.Chrome.spans
    in
    Alcotest.(check (float 1e-12)) "same path" r0.Critpath.path_length
      r1.Critpath.path_length

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "tiles_critpath"
    [
      ( "edges",
        [
          Alcotest.test_case "seq numbers join" `Quick test_edge_seq_numbers;
          Alcotest.test_case "streaming drops edges" `Quick
            test_streaming_retains_no_edges;
        ] );
      ( "walk",
        [
          Alcotest.test_case "hand-built trace" `Quick test_walk_hand_trace;
          Alcotest.test_case "no edges degrades to idle-filled" `Quick
            test_no_edges_degrades;
        ] );
      ( "streaming",
        [ q prop_streaming_matches_exact; q prop_retain_streaming_stats ] );
      ( "backends",
        [
          Alcotest.test_case "sim path = completion" `Quick
            test_sim_path_equals_completion;
          Alcotest.test_case "sim vs shm edge identities" `Quick
            test_sim_shm_edges_agree;
          Alcotest.test_case "shm path covers trace" `Quick
            test_shm_path_covers_trace;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "flow-event roundtrip" `Quick
            test_chrome_edge_roundtrip;
        ] );
    ]
