module Fbuf = Tiles_util.Fbuf
module Sim = Tiles_mpisim.Sim
module Netmodel = Tiles_mpisim.Netmodel
module Stats = Tiles_obs.Stats
module Recorder = Tiles_obs.Recorder

let net = Netmodel.fast_ethernet_cluster

(* a recorder on the simulator's clock, which reads 0: the simulator
   stamps every span and edge in virtual time itself *)
let sim_recorder ?(keep = Recorder.Timeline) ~nprocs () =
  Recorder.create ~keep ~clock:(fun () -> 0.) ~nprocs ()

(* a traced run: the simulator's outcome and the recorder holding its
   spans, edges and counters *)
let traced_run ?overlap ?(net = net) ~nprocs program =
  let rc = sim_recorder ~nprocs () in
  let stats = Sim.run ~recorder:rc ?overlap ~nprocs ~net program in
  (stats, rc)

let eps = 1e-12
let close a b = Float.abs (a -. b) < eps

let data = function
  | Sim.Data d -> d
  | Sim.Length _ -> Alcotest.fail "length-only message"

let test_single_rank_compute () =
  let stats = Sim.run ~nprocs:1 ~net (fun c _ -> c.Sim.compute 1.5) in
  Alcotest.(check bool) "completion" true (close stats.Sim.completion 1.5);
  Alcotest.(check int) "no messages" 0 stats.Sim.messages

let test_ping () =
  (* rank 0 sends 100 floats to rank 1 *)
  let payload_bytes = 8 * 100 in
  let stats =
    Sim.run ~nprocs:2 ~net (fun c r ->
        if r = 0 then c.Sim.send ~dst:1 ~tag:0 (Sim.Data (Fbuf.make 100 3.14))
        else begin
          let buf = data (c.recv ~src:0 ~tag:0) in
          Alcotest.(check int) "length" 100 (Fbuf.length buf);
          Alcotest.(check (float 0.)) "value" 3.14 buf.{0}
        end)
  in
  let send_done =
    net.Netmodel.send_overhead +. Netmodel.transfer_time net ~bytes:payload_bytes
  in
  let expect = send_done +. net.Netmodel.latency +. net.Netmodel.recv_overhead in
  Alcotest.(check bool) "timing" true (close stats.Sim.completion expect);
  Alcotest.(check int) "one message" 1 stats.Sim.messages;
  Alcotest.(check int) "bytes" payload_bytes stats.Sim.bytes

let test_recv_before_send () =
  (* receiver arrives first and must park *)
  let stats =
    Sim.run ~nprocs:2 ~net (fun c r ->
        if r = 1 then ignore (c.Sim.recv ~src:0 ~tag:7)
        else begin
          c.compute 1.0;
          c.send ~dst:1 ~tag:7 (Sim.Data (Fbuf.of_array [| 42. |]))
        end)
  in
  Alcotest.(check bool) "receiver waited" true (stats.Sim.completion > 1.0)

(* FIFO per channel, on both backends *)
let test_fifo_per_channel () =
  Backends.iter (fun name run ->
      let got = ref [] in
      let rc =
        run ~nprocs:2 (fun c r ->
            if r = 0 then
              for i = 1 to 5 do
                c.Sim.send ~dst:1 ~tag:0
                  (Sim.Data (Fbuf.of_array [| float_of_int i |]))
              done
            else
              for _ = 1 to 5 do
                let b = data (c.recv ~src:0 ~tag:0) in
                got := b.{0} :: !got
              done)
      in
      Alcotest.(check (list (float 0.))) (name ^ ": fifo order")
        [ 1.; 2.; 3.; 4.; 5. ] (List.rev !got);
      Alcotest.(check int) (name ^ ": messages") 5 (Recorder.messages rc);
      Alcotest.(check int) (name ^ ": bytes") 40 (Recorder.bytes rc))

let test_tag_matching () =
  (* out-of-order tags are matched by tag, not arrival order *)
  Backends.iter (fun name run ->
      let got = ref [] in
      ignore
        (run ~nprocs:2 (fun c r ->
             if r = 0 then begin
               c.Sim.send ~dst:1 ~tag:2 (Sim.Data (Fbuf.of_array [| 2. |]));
               c.send ~dst:1 ~tag:1 (Sim.Data (Fbuf.of_array [| 1. |]))
             end
             else begin
               got := (data (c.recv ~src:0 ~tag:1)).{0} :: !got;
               got := (data (c.recv ~src:0 ~tag:2)).{0} :: !got
             end));
      Alcotest.(check (list (float 0.))) (name ^ ": by tag") [ 1.; 2. ]
        (List.rev !got))

let test_isend_overlap () =
  (* the sender pays only the overhead; a following compute overlaps the
     wire time, so sender finishes earlier than with a blocking send *)
  let payload = Sim.Data (Fbuf.make 10000 1.0) in
  let run overlap =
    Sim.run ~overlap ~nprocs:2 ~net (fun c r ->
        if r = 0 then begin
          c.Sim.send ~dst:1 ~tag:0 payload;
          c.compute 0.001
        end
        else ignore (c.recv ~src:0 ~tag:0))
  in
  let blocking = run false in
  let overlapped = run true in
  Alcotest.(check bool) "sender rank finishes earlier" true
    (overlapped.Sim.rank_clocks.(0) < blocking.Sim.rank_clocks.(0));
  (* receiver still gets the data after the wire time *)
  Alcotest.(check bool) "receiver waits for the wire" true
    (overlapped.Sim.rank_clocks.(1)
    >= Netmodel.transfer_time net ~bytes:80000)

(* a length-only message moves no data but costs what [n] floats cost:
   the same counters on both backends, and the same virtual clocks in
   both send modes and under both network models *)
let test_length_payload () =
  let program payload c r =
    if r = 0 then c.Sim.send ~dst:1 ~tag:0 payload
    else
      Alcotest.(check int) "length" 1000
        (Sim.payload_length (c.recv ~src:0 ~tag:0))
  in
  let full = Sim.Data (Fbuf.make 1000 1.0) and length = Sim.Length 1000 in
  Backends.iter (fun name run ->
      let d = run ~nprocs:2 (program full) in
      let l = run ~nprocs:2 (program length) in
      Alcotest.(check int) (name ^ ": same bytes") (Recorder.bytes d)
        (Recorder.bytes l);
      Alcotest.(check int) (name ^ ": 8 bytes per float") 8000
        (Recorder.bytes l));
  List.iter
    (fun net ->
      List.iter
        (fun overlap ->
          let d = Sim.run ~overlap ~nprocs:2 ~net (program full) in
          let l = Sim.run ~overlap ~nprocs:2 ~net (program length) in
          Alcotest.(check bool) "same clocks" true
            (d.Sim.rank_clocks = l.Sim.rank_clocks);
          Alcotest.(check int) "same bytes" d.Sim.bytes l.Sim.bytes;
          Alcotest.(check int) "8 bytes per float" 8000 l.Sim.bytes)
        [ false; true ])
    [ net; Netmodel.contended ~snd_lanes:1 ~rcv_lanes:1 net ]

(* two ranks each receiving first: both backends name both receives *)
let test_deadlock () =
  List.iter
    (fun (name, text) ->
      Alcotest.(check string) (name ^ ": deadlock text")
        "deadlock: rank 0 waiting on (src=1, tag=0); rank 1 waiting on \
         (src=0, tag=0)"
        text)
    (Backends.raised ~nprocs:2 (fun c r ->
         ignore (c.Sim.recv ~src:(1 - r) ~tag:0)))

let test_pipeline_timing () =
  (* 1 -> 2 -> 3: completion accumulates compute along the chain *)
  let stats =
    Sim.run ~nprocs:3 ~net (fun c r ->
        if r > 0 then ignore (c.Sim.recv ~src:(r - 1) ~tag:0);
        c.compute 1.0;
        if r < 2 then
          c.send ~dst:(r + 1) ~tag:0 (Sim.Data (Fbuf.of_array [| 1. |])))
  in
  Alcotest.(check bool) "at least 3s" true (stats.Sim.completion >= 3.0);
  Alcotest.(check bool) "plus comm" true (stats.Sim.completion < 3.01)

let test_determinism () =
  let run () =
    Sim.run ~nprocs:4 ~net (fun c r ->
        (* a little all-to-neighbour exchange *)
        let next = (r + 1) mod 4 and prev = (r + 3) mod 4 in
        c.Sim.compute (0.1 *. float_of_int (r + 1));
        c.send ~dst:next ~tag:0 (Sim.Data (Fbuf.of_array [| float_of_int r |]));
        let b = data (c.recv ~src:prev ~tag:0) in
        c.compute (0.01 *. b.{0}))
  in
  let a = run () and b = run () in
  Alcotest.(check (float 0.)) "same completion" a.Sim.completion b.Sim.completion;
  Alcotest.(check int) "same messages" a.Sim.messages b.Sim.messages

let test_exception_propagates () =
  List.iter
    (fun (name, text) ->
      Alcotest.(check string) (name ^ ": escapes") "Failure(\"boom\")" text)
    (Backends.raised ~nprocs:2 (fun _ r -> if r = 1 then failwith "boom"))

(* A stopped run unwinds every rank it leaves unfinished, so each one's
   finaliser runs: after a deadlock (the odd ranks receive what no rank
   sends, the even ones finish) and after one rank's exception (rank 0
   fails once every other rank has reached its receive). *)
let test_stopped_run_unwinds () =
  let nprocs = Domain.recommended_domain_count () + 3 in
  let unfinished = Atomic.make 0 in
  let guard body c r =
    let finished = ref false in
    Fun.protect
      ~finally:(fun () -> if not !finished then Atomic.incr unfinished)
      (fun () ->
        body c r;
        finished := true)
  in
  let deadlocked c r = if r mod 2 = 1 then ignore (c.Sim.recv ~src:0 ~tag:1) in
  let failing c r =
    if r = 0 then begin
      for src = 1 to nprocs - 1 do
        ignore (c.Sim.recv ~src ~tag:0)
      done;
      failwith "boom"
    end
    else begin
      c.send ~dst:0 ~tag:0 (Sim.Length 1);
      ignore (c.recv ~src:0 ~tag:0)
    end
  in
  Backends.iter (fun name run ->
      List.iter
        (fun (case, program, stopped, expect) ->
          Atomic.set unfinished 0;
          (match run ~nprocs (guard program) with
          | _ -> Alcotest.failf "%s: the %s run completed" name case
          | exception e when stopped e -> ());
          Alcotest.(check int)
            (Printf.sprintf "%s: %s run's finalisers" name case)
            expect (Atomic.get unfinished))
        [
          ( "deadlocked",
            deadlocked,
            (function Sim.Deadlock _ -> true | _ -> false),
            nprocs / 2 );
          ("failing", failing, (fun e -> e = Failure "boom"), nprocs);
        ])

let test_send_copies () =
  (* mutating the buffer after send must not affect the message *)
  ignore
    (Sim.run ~nprocs:2 ~net (fun c r ->
         if r = 0 then begin
           let buf = Fbuf.of_array [| 1.0 |] in
           c.Sim.send ~dst:1 ~tag:0 (Sim.Data buf);
           buf.{0} <- 99.
         end
         else
           Alcotest.(check (float 0.)) "copied" 1.0
             (data (c.recv ~src:0 ~tag:0)).{0}))

let test_zero_nprocs () =
  Alcotest.check_raises "invalid" (Invalid_argument "Sim.run: nprocs")
    (fun () -> ignore (Sim.run ~nprocs:0 ~net (fun _ _ -> ())))

(* per-rank time accounting from the aggregate Stats record: every
   rank's components plus its idle time (completion - busy - wait) cover
   the whole schedule, none is negative, and the machine efficiency
   total_compute / (nprocs * completion) lies in (0, 1] *)
let check_stats_accounting (st : Stats.t) =
  Array.iter
    (fun (c : Stats.rank) ->
      let idle = st.Stats.completion -. c.Stats.busy -. c.Stats.wait in
      let sum =
        c.Stats.compute +. c.Stats.pack +. c.Stats.send +. c.Stats.wait
        +. c.Stats.unpack +. idle
      in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "rank %d components sum to completion" c.Stats.rank)
        st.Stats.completion sum;
      List.iter
        (fun (part, v) ->
          if v < -.1e-12 then
            Alcotest.failf "rank %d: negative %s time %.3e" c.Stats.rank part
              v)
        [
          ("compute", c.Stats.compute);
          ("pack", c.Stats.pack);
          ("send", c.Stats.send);
          ("wait", c.Stats.wait);
          ("unpack", c.Stats.unpack);
          ("idle", idle);
        ])
    st.Stats.ranks;
  let e =
    st.Stats.total_compute
    /. (float_of_int st.Stats.nprocs *. st.Stats.completion)
  in
  Alcotest.(check bool) "efficiency in (0,1]" true (e > 0. && e <= 1.)

let test_trace_and_utilisation () =
  let stats, rc =
    traced_run ~nprocs:2 (fun c r ->
        if r = 0 then begin
          c.Sim.compute 1.0;
          c.Sim.send ~dst:1 ~tag:0 (Sim.Data (Fbuf.of_array [| 1. |]))
        end
        else begin
          ignore (c.Sim.recv ~src:0 ~tag:0);
          c.Sim.compute 0.5
        end)
  in
  Alcotest.(check bool) "trace recorded" true (Recorder.spans rc <> []);
  let st = Stats.of_recorder ~completion:stats.Sim.completion rc in
  Alcotest.(check (float 1e-9)) "rank0 compute" 1.0
    st.Stats.ranks.(0).Stats.compute;
  Alcotest.(check (float 1e-9)) "rank1 compute" 0.5
    st.Stats.ranks.(1).Stats.compute;
  Alcotest.(check bool) "rank1 waited" true
    (st.Stats.ranks.(1).Stats.wait > 0.9);
  check_stats_accounting st

(* on a real traced run (SOR through the executor), every rank's
   utilisation components must account for the whole schedule *)
let test_traced_sor_utilisation () =
  let module Plan = Tiles_core.Plan in
  let module Executor = Tiles_runtime.Executor in
  let p = Tiles_apps.Sor.make ~m_steps:12 ~size:16 in
  let plan =
    Plan.make ~m:2 (Tiles_apps.Sor.nest p)
      (Tiles_apps.Sor.nonrect ~x:6 ~y:7 ~z:4)
  in
  let rc = sim_recorder ~nprocs:(Plan.nprocs plan) () in
  let r =
    Executor.run ~mode:Executor.Timing ~recorder:rc ~plan
      ~kernel:(Tiles_apps.Sor.kernel p) ~net ()
  in
  let st =
    Stats.of_recorder ~completion:r.Executor.stats.Sim.completion rc
  in
  Alcotest.(check bool) "several ranks" true (st.Stats.nprocs > 1);
  check_stats_accounting st

let test_trace_off_by_default () =
  let rc = sim_recorder ~keep:Recorder.Counters ~nprocs:1 () in
  ignore (Sim.run ~recorder:rc ~nprocs:1 ~net (fun c _ -> c.Sim.compute 1.0));
  Alcotest.(check bool) "no trace" true (Recorder.spans rc = [])

let spans_of rc rank kind =
  List.filter
    (fun s -> s.Sim.rank = rank && s.Sim.kind = kind)
    (Recorder.spans rc)

let span_total spans = List.fold_left (fun a s -> a +. (s.Sim.t1 -. s.Sim.t0)) 0. spans

(* receiver arrives long after the message: no Wait span may be recorded
   (the old recorder logged the [t0, t0 + overhead] interval as Wait even
   when nothing was waited for) *)
let test_recv_no_wait_when_ready () =
  let module Span = Tiles_obs.Span in
  let stats, rc =
    traced_run ~nprocs:2 (fun c r ->
        if r = 0 then
          c.Sim.send ~dst:1 ~tag:0 (Sim.Data (Fbuf.of_array [| 1. |]))
        else begin
          c.Sim.compute 10.0;
          ignore (c.Sim.recv ~src:0 ~tag:0)
        end)
  in
  Alcotest.(check (list (float 0.))) "no wait spans" []
    (List.map (fun s -> s.Sim.t1 -. s.Sim.t0) (spans_of rc 1 Span.Wait));
  Alcotest.(check bool) "unpack = recv overhead" true
    (close (span_total (spans_of rc 1 Span.Unpack))
       net.Netmodel.recv_overhead);
  Alcotest.(check bool) "clock = compute + overhead" true
    (close stats.Sim.rank_clocks.(1) (10.0 +. net.Netmodel.recv_overhead))

(* parked receiver: the Wait span covers exactly the blocked interval
   (from the park time to the arrival), and the per-message receive
   overhead is a separate Unpack span *)
let test_recv_wait_covers_blocked_interval () =
  let module Span = Tiles_obs.Span in
  let stats, rc =
    traced_run ~nprocs:2 (fun c r ->
        if r = 0 then begin
          c.Sim.compute 1.0;
          c.Sim.send ~dst:1 ~tag:0 (Sim.Data (Fbuf.of_array [| 1. |]))
        end
        else begin
          c.Sim.compute 0.25;
          ignore (c.Sim.recv ~src:0 ~tag:0)
        end)
  in
  match spans_of rc 1 Span.Wait with
  | [ w ] ->
    Alcotest.(check bool) "wait starts at park time" true (close w.Sim.t0 0.25);
    Alcotest.(check bool) "wait ends at arrival" true
      (close w.Sim.t1
         (stats.Sim.rank_clocks.(1) -. net.Netmodel.recv_overhead));
    Alcotest.(check bool) "arrival after sender compute" true (w.Sim.t1 > 1.0);
    Alcotest.(check bool) "unpack = recv overhead" true
      (close (span_total (spans_of rc 1 Span.Unpack))
         net.Netmodel.recv_overhead)
  | spans -> Alcotest.failf "expected one wait span, got %d" (List.length spans)

(* pack/unpack charges appear as their own span kinds *)
let test_pack_unpack_spans () =
  let module Span = Tiles_obs.Span in
  let stats, rc =
    traced_run ~nprocs:1 (fun c _ ->
        c.Sim.pack 0.25;
        c.Sim.compute 1.0;
        c.Sim.unpack 0.5)
  in
  Alcotest.(check bool) "pack total" true
    (close (span_total (spans_of rc 0 Span.Pack)) 0.25);
  Alcotest.(check bool) "unpack total" true
    (close (span_total (spans_of rc 0 Span.Unpack)) 0.5);
  Alcotest.(check bool) "completion" true (close stats.Sim.completion 1.75)

(* per-rank counters split the totals by sender *)
let test_per_rank_counters () =
  let rc = sim_recorder ~keep:Recorder.Counters ~nprocs:3 () in
  let stats =
    Sim.run ~recorder:rc ~nprocs:3 ~net (fun c r ->
        if r = 0 then begin
          c.Sim.send ~dst:1 ~tag:0 (Sim.Data (Fbuf.of_array [| 1.; 2. |]));
          c.Sim.send ~dst:2 ~tag:0 (Sim.Data (Fbuf.of_array [| 3. |]))
        end
        else ignore (c.Sim.recv ~src:0 ~tag:0))
  in
  Alcotest.(check (list int)) "rank messages" [ 2; 0; 0 ]
    (Array.to_list (Recorder.rank_messages rc));
  Alcotest.(check (list int)) "rank bytes" [ 24; 0; 0 ]
    (Array.to_list (Recorder.rank_bytes rc));
  Alcotest.(check int) "total messages" 2 stats.Sim.messages;
  Alcotest.(check int) "total bytes" 24 stats.Sim.bytes

let test_netmodel () =
  Alcotest.(check (float 1e-9)) "transfer" 8e-5
    (Netmodel.transfer_time { net with Netmodel.bandwidth = 1e6 } ~bytes:80);
  let scaled = Netmodel.with_ratio net 2.0 in
  Alcotest.(check (float 1e-12)) "ratio"
    (2.0 *. net.Netmodel.flop_time)
    scaled.Netmodel.flop_time

(* ---------------- contended network model ---------------- *)

let test_net_spec () =
  (match Netmodel.of_spec "alpha-beta" with
  | Ok n -> Alcotest.(check string) "ab id" "fast_ethernet_cluster"
              (Netmodel.model_id n)
  | Error e -> Alcotest.fail e);
  (match Netmodel.of_spec "contended:snd=2,rcv=3,uplink=1e9" with
  | Ok n ->
    (match n.Netmodel.model with
    | Netmodel.Contended c ->
      Alcotest.(check int) "snd" 2 c.Netmodel.snd_lanes;
      Alcotest.(check int) "rcv" 3 c.Netmodel.rcv_lanes;
      Alcotest.(check (option (float 0.))) "uplink" (Some 1e9)
        c.Netmodel.uplink
    | Netmodel.Alpha_beta -> Alcotest.fail "expected contended")
  | Error e -> Alcotest.fail e);
  (* distinct parameters must never alias in metadata or cache keys *)
  let id s =
    match Netmodel.of_spec s with
    | Ok n -> Netmodel.model_id n
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "ids distinct" true
    (id "contended" <> id "contended:lanes=2"
    && id "contended" <> id "contended:uplink=1e9");
  match Netmodel.of_spec "contended:snd=0" with
  | Ok _ -> Alcotest.fail "snd=0 must be rejected"
  | Error _ -> ()

(* a random timing-independent program: every rank sends [degree]
   messages to its right neighbours then receives the mirror image, so
   control flow never depends on the cost parameters — the precondition
   for the monotonicity guarantees the contended model makes *)
let random_program ~nprocs ~degree ~sizes c r =
  for k = 1 to degree do
    let dst = (r + k) mod nprocs in
    let n = sizes.((r * degree + k - 1) mod Array.length sizes) in
    let buf = Sim.Data (Fbuf.make n 1.0) in
    c.Sim.send ~dst ~tag:k buf
  done;
  c.compute 1e-4;
  for k = 1 to degree do
    let src = (r - k + nprocs) mod nprocs in
    ignore (c.recv ~src ~tag:k)
  done

let gen_case =
  QCheck.Gen.(
    int_range 2 8 >>= fun nprocs ->
    int_range 1 (min 3 (nprocs - 1)) >>= fun degree ->
    bool >>= fun isend ->
    array_size (return (nprocs * degree)) (int_range 1 4096) >>= fun sizes ->
    return (nprocs, degree, isend, sizes))

let arb_case =
  QCheck.make
    ~print:(fun (nprocs, degree, isend, sizes) ->
      Printf.sprintf "nprocs=%d degree=%d isend=%b sizes=[%s]" nprocs degree
        isend
        (String.concat ";" (Array.to_list (Array.map string_of_int sizes))))
    gen_case

let run_case ?recorder ~net' (nprocs, degree, isend, sizes) =
  Sim.run ?recorder ~overlap:isend ~nprocs ~net:net'
    (random_program ~nprocs ~degree ~sizes)

(* the NIC queueing a run charged, read off its (untraced) recorder *)
let case_queueing ~net' ((nprocs, _, _, _) as case) =
  let rc = sim_recorder ~keep:Recorder.Counters ~nprocs () in
  ignore (run_case ~recorder:rc ~net' case);
  rc

let contended ?uplink lanes =
  Netmodel.contended ~snd_lanes:lanes ~rcv_lanes:lanes ?uplink net

(* with a lane per possible concurrent transfer and no uplink cap the
   contended path must reproduce alpha-beta bit for bit — same float
   operations in the same order, not merely close *)
let prop_free_lanes_alpha_beta =
  QCheck.Test.make ~name:"contended with free lanes = alpha-beta (exact)"
    ~count:60 arb_case (fun case ->
      let (nprocs, degree, _, _) = case in
      let a = run_case ~net':net case in
      let c = run_case ~net':(contended (nprocs * degree + 1)) case in
      a.Sim.completion = c.Sim.completion
      && a.Sim.rank_clocks = c.Sim.rank_clocks
      && Recorder.queue_seconds
           (case_queueing ~net':(contended (nprocs * degree + 1)) case)
         = 0.)

let prop_monotone_bandwidth =
  QCheck.Test.make ~name:"contended completion monotone as bandwidth drops"
    ~count:60 arb_case (fun case ->
      let full = run_case ~net':(contended 1) case in
      let half =
        run_case
          ~net':{ (contended 1) with
                  Netmodel.bandwidth = net.Netmodel.bandwidth /. 2. }
          case
      in
      half.Sim.completion >= full.Sim.completion -. 1e-12)

let prop_monotone_lanes =
  QCheck.Test.make ~name:"contended completion monotone as lanes shrink"
    ~count:60 arb_case (fun case ->
      let one = run_case ~net':(contended 1) case in
      let two = run_case ~net':(contended 2) case in
      let capped = run_case ~net':(contended ~uplink:1e6 1) case in
      one.Sim.completion >= two.Sim.completion -. 1e-12
      && capped.Sim.completion >= one.Sim.completion -. 1e-12)

let prop_queue_accounting =
  QCheck.Test.make ~name:"queueing nonnegative and consistent" ~count:60
    arb_case (fun case ->
      let rc = case_queueing ~net':(contended ~uplink:5e6 1) case in
      let rank_queue = Recorder.rank_queue_seconds rc in
      let per_rank = Array.fold_left ( +. ) 0. rank_queue in
      Recorder.queue_seconds rc >= 0.
      && Array.for_all (fun q -> q >= 0.) rank_queue
      && Float.abs (per_rank -. Recorder.queue_seconds rc) <= 1e-9
      (* and alpha-beta charges none *)
      && Recorder.queue_seconds (case_queueing ~net':net case) = 0.)

let prop_critpath_tiles_completion =
  QCheck.Test.make
    ~name:"contended critpath segments sum to completion (queue attributed)"
    ~count:40 arb_case (fun case ->
      let (nprocs, degree, isend, sizes) = case in
      let s, rc =
        traced_run ~overlap:isend ~net:(contended 1) ~nprocs
          (random_program ~nprocs ~degree ~sizes)
      in
      let report =
        Tiles_obs.Critpath.analyze ~completion:s.Sim.completion ~nprocs
          ~edges:(Recorder.edges rc) (Recorder.spans rc)
      in
      let open Tiles_obs in
      let sum =
        List.fold_left
          (fun acc sg -> acc +. Critpath.seg_duration sg)
          0. report.Critpath.segments
      in
      Float.abs (sum -. s.Sim.completion) <= 1e-9
      && Float.abs (report.Critpath.path_length -. s.Sim.completion) <= 1e-9
      && List.for_all
           (fun sg ->
             sg.Critpath.sg_kind <> Critpath.Queue
             || Critpath.seg_duration sg >= 0.)
           report.Critpath.segments)

(* flight queueing must be visible on the matched edges of a traced
   contended run, and absent under alpha-beta *)
let test_edge_queueing () =
  let program c r =
    (* both senders contend for rank 2's single receive lane *)
    if r < 2 then c.Sim.send ~dst:2 ~tag:r (Sim.Data (Fbuf.make 4096 1.0))
    else begin
      ignore (c.recv ~src:0 ~tag:0);
      ignore (c.recv ~src:1 ~tag:1)
    end
  in
  let _, ab = traced_run ~overlap:true ~nprocs:3 program in
  List.iter
    (fun (e : Tiles_obs.Recorder.edge) ->
      Alcotest.(check (float 0.)) "alpha-beta edge queueing" 0.
        e.Tiles_obs.Recorder.e_queued)
    (Recorder.edges ab);
  Alcotest.(check (float 0.)) "alpha-beta total queueing" 0.
    (Recorder.queue_seconds ab);
  let _, c = traced_run ~overlap:true ~net:(contended 1) ~nprocs:3 program in
  Alcotest.(check bool) "contended run queued" true
    (Recorder.queue_seconds c > 0.);
  let max_edge_q =
    List.fold_left
      (fun acc (e : Tiles_obs.Recorder.edge) ->
        Float.max acc e.Tiles_obs.Recorder.e_queued)
      0. (Recorder.edges c)
  in
  Alcotest.(check bool) "some edge carries queueing" true (max_edge_q > 0.)

let () =
  Alcotest.run "tiles_mpisim"
    [
      ( "sim",
        [
          Alcotest.test_case "single rank" `Quick test_single_rank_compute;
          Alcotest.test_case "ping" `Quick test_ping;
          Alcotest.test_case "recv before send" `Quick test_recv_before_send;
          Alcotest.test_case "fifo" `Quick test_fifo_per_channel;
          Alcotest.test_case "tag matching" `Quick test_tag_matching;
          Alcotest.test_case "isend overlap" `Quick test_isend_overlap;
          Alcotest.test_case "deadlock" `Quick test_deadlock;
          Alcotest.test_case "pipeline timing" `Quick test_pipeline_timing;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "exception" `Quick test_exception_propagates;
          Alcotest.test_case "a stopped run unwinds every unfinished rank"
            `Quick test_stopped_run_unwinds;
          Alcotest.test_case "send copies" `Quick test_send_copies;
          Alcotest.test_case "length-only payload" `Quick test_length_payload;
          Alcotest.test_case "zero nprocs" `Quick test_zero_nprocs;
          Alcotest.test_case "trace + utilisation" `Quick test_trace_and_utilisation;
          Alcotest.test_case "traced sor utilisation" `Quick
            test_traced_sor_utilisation;
          Alcotest.test_case "trace off by default" `Quick test_trace_off_by_default;
          Alcotest.test_case "recv no spurious wait" `Quick
            test_recv_no_wait_when_ready;
          Alcotest.test_case "recv wait = blocked interval" `Quick
            test_recv_wait_covers_blocked_interval;
          Alcotest.test_case "pack/unpack spans" `Quick test_pack_unpack_spans;
          Alcotest.test_case "per-rank counters" `Quick test_per_rank_counters;
          Alcotest.test_case "netmodel" `Quick test_netmodel;
        ] );
      ( "contended",
        [
          Alcotest.test_case "net spec parsing" `Quick test_net_spec;
          Alcotest.test_case "edge queueing" `Quick test_edge_queueing;
          QCheck_alcotest.to_alcotest prop_free_lanes_alpha_beta;
          QCheck_alcotest.to_alcotest prop_monotone_bandwidth;
          QCheck_alcotest.to_alcotest prop_monotone_lanes;
          QCheck_alcotest.to_alcotest prop_queue_accounting;
          QCheck_alcotest.to_alcotest prop_critpath_tiles_completion;
        ] );
    ]
