(* The compile service: admission control, coalescing, the plan cache
   and the protocol layer. All server tests run with [workers = 0] — a
   deliberately stalled pool — so admission and coalescing outcomes are
   exact (nothing drains the queue behind the test's back); [Server.step]
   then executes jobs one at a time on this thread, deterministically. *)

module Json = Tiles_util.Json
module Admission = Tiles_serve.Admission
module Plan_cache = Tiles_serve.Plan_cache
module Registry = Tiles_apps.Registry
module Run_spec = Tiles_apps.Run_spec
module Job = Tiles_serve.Job
module Server = Tiles_serve.Server
module Metrics = Tiles_serve.Metrics
module Span = Tiles_obs.Span
module Netmodel = Tiles_mpisim.Netmodel

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let net = Netmodel.fast_ethernet_cluster

(* ---------- Admission ---------- *)

let test_admission_capacity () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Admission.create: capacity must be >= 1") (fun () ->
      ignore (Admission.create ~capacity:0))

let test_admission_reject_full () =
  let q = Admission.create ~capacity:3 in
  for i = 1 to 3 do
    match Admission.submit q ~priority:1.0 i with
    | Ok () -> ()
    | Error _ -> Alcotest.failf "job %d rejected below capacity" i
  done;
  (match Admission.submit q ~priority:1.0 4 with
  | Ok () -> Alcotest.fail "job 4 accepted above capacity"
  | Error r ->
    check_str "reason" "queue_full" r.Admission.reason;
    check_int "capacity" 3 r.Admission.capacity;
    check_int "depth" 3 r.Admission.depth);
  let s = Admission.stats q in
  check_int "accepted" 3 s.Admission.accepted;
  check_int "rejected_full" 1 s.Admission.rejected_full;
  check_int "high water" 3 s.Admission.high_water;
  (* popping one frees a slot: backpressure, not a permanent failure *)
  check_bool "pop" true (Admission.try_pop q <> None);
  match Admission.submit q ~priority:1.0 5 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "slot freed by pop not reusable"

let test_admission_priority_order () =
  let q = Admission.create ~capacity:8 in
  List.iter
    (fun (p, v) -> Result.get_ok (Admission.submit q ~priority:p v))
    [ (5.0, "e"); (1.0, "a"); (3.0, "c"); (1.0, "b") ];
  let rec drain acc =
    match Admission.try_pop q with
    | None -> List.rev acc
    | Some v -> drain (v :: acc)
  in
  (* lower priority value first; FIFO between the two 1.0 submissions *)
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c"; "e" ] (drain [])

let test_admission_close () =
  let q = Admission.create ~capacity:4 in
  Result.get_ok (Admission.submit q ~priority:1.0 "x");
  Admission.close q;
  (match Admission.submit q ~priority:1.0 "y" with
  | Ok () -> Alcotest.fail "accepted after close"
  | Error r -> check_str "reason" "shutting_down" r.Admission.reason);
  (* the backlog still drains after close; then pop signals exit *)
  check_bool "drains backlog" true (Admission.pop q = Some "x");
  check_bool "then None" true (Admission.pop q = None);
  let s = Admission.stats q in
  check_bool "closed" true s.Admission.closed;
  check_int "rejected_closed" 1 s.Admission.rejected_closed

let test_admission_blocking_pop () =
  let q = Admission.create ~capacity:4 in
  let d =
    Domain.spawn (fun () ->
        match Admission.pop q with Some v -> v | None -> -1)
  in
  (* the popper blocks until this submit arrives *)
  Unix.sleepf 0.02;
  Result.get_ok (Admission.submit q ~priority:1.0 42);
  check_int "handed off" 42 (Domain.join d)

(* ---------- Plan_cache ---------- *)

let resolved_exn ~app ?(size1 = 12) ?(size2 = 16) ?(variant = "nonrect")
    ?(tile = (3, 4, 4)) () =
  match Registry.resolve ~app ~size1 ~size2 ~variant ~tile with
  | Ok r -> r
  | Error e -> Alcotest.failf "resolve %s: %s" app e

let test_plan_cache_hits () =
  let c = Plan_cache.create ~capacity:4 in
  let r = resolved_exn ~app:"sor" () in
  let key = Plan_cache.key ~resolved:r (Run_spec.default "sor") in
  let compiles = ref 0 in
  let compile () =
    incr compiles;
    Tiles_core.Plan.make ~m:r.Registry.m r.Registry.nest r.Registry.tiling
  in
  let p1, s1 = Plan_cache.find_or_compile c ~key compile in
  let p2, s2 = Plan_cache.find_or_compile c ~key compile in
  check_bool "first misses" true (s1 = `Miss);
  check_bool "second hits" true (s2 = `Hit);
  check_int "one compile" 1 !compiles;
  check_bool "same plan value" true (p1 == p2);
  let s = Plan_cache.stats c in
  check_int "hits" 1 s.Plan_cache.hits;
  check_int "misses" 1 s.Plan_cache.misses;
  check_int "compiles" 1 s.Plan_cache.compiles

let test_plan_cache_key_discriminates () =
  let r = resolved_exn ~app:"sor" () in
  let spec = Run_spec.default "sor" in
  let k spec = Plan_cache.key ~resolved:r spec in
  let base = k spec in
  check_bool "overlap changes key" true
    (base <> k { spec with overlap = true });
  check_bool "backend changes key" true
    (base <> k { spec with backend = Run_spec.Shm });
  check_bool "walker changes key" true
    (base <> k { spec with walker = Tiles_runtime.Walker.Reference });
  check_bool "net changes key" true
    (base <> k { spec with net = Netmodel.contended net });
  let r2 = resolved_exn ~app:"jacobi" () in
  check_bool "app changes key" true
    (base <> Plan_cache.key ~resolved:r2 spec)

(* the plan-cache key is the pinned tune-cache digest plus the walker:
   compiled plans and tune scores keep addressing the same configurations
   across releases *)
let test_plan_cache_key_pinned () =
  let r =
    resolved_exn ~app:"sor" ~size1:12 ~size2:24 ~tile:(6, 9, 3) ()
  in
  check_str "sor 12/24 nonrect 6x9x3" "32c25291d149d0eb17eb25052f619435-fast"
    (Plan_cache.key ~resolved:r (Run_spec.default "sor"))

let test_plan_cache_eviction () =
  let c = Plan_cache.create ~capacity:2 in
  let r = resolved_exn ~app:"sor" () in
  let compile () =
    Tiles_core.Plan.make ~m:r.Registry.m r.Registry.nest r.Registry.tiling
  in
  ignore (Plan_cache.find_or_compile c ~key:"a" compile);
  ignore (Plan_cache.find_or_compile c ~key:"b" compile);
  ignore (Plan_cache.find_or_compile c ~key:"a" compile);
  (* "b" is now least-recently used; inserting "c" must evict it *)
  ignore (Plan_cache.find_or_compile c ~key:"c" compile);
  let s = Plan_cache.stats c in
  check_int "size capped" 2 s.Plan_cache.size;
  check_int "one eviction" 1 s.Plan_cache.evictions;
  let _, st = Plan_cache.find_or_compile c ~key:"a" compile in
  check_bool "recently-used survived" true (st = `Hit);
  let _, st = Plan_cache.find_or_compile c ~key:"b" compile in
  check_bool "LRU evicted" true (st = `Miss)

(* ---------- Registry ---------- *)

let test_registry_errors () =
  (match
     Registry.resolve ~app:"fft" ~size1:8 ~size2:8 ~variant:"nonrect"
       ~tile:(2, 2, 2)
   with
  | Ok _ -> Alcotest.fail "unknown app resolved"
  | Error e ->
    check_bool "names the app" true
      (Astring.String.is_infix ~affix:"fft" e));
  (match
     Registry.resolve ~app:"sor" ~size1:0 ~size2:8 ~variant:"nonrect"
       ~tile:(2, 2, 2)
   with
  | Ok _ -> Alcotest.fail "size 0 resolved"
  | Error _ -> ());
  (* an illegal tiling raises in the registry; the spec's resolve turns
     it into the run-failure text *)
  match
    Run_spec.resolve
      { (Run_spec.default "sor") with size1 = 8; size2 = 8; tile = (0, 2, 2) }
  with
  | Ok _ -> Alcotest.fail "zero tile factor resolved"
  | Error e ->
    Alcotest.(check string) "zero factor text"
      (Run_spec.error_message Division_by_zero) e

(* ---------- Job ---------- *)

let test_job_roundtrip () =
  let line =
    {|{"id":"j7","op":"execute","app":"jacobi","size1":10,"size2":14,
       "variant":"rect","tile":[2,3,4],"backend":"shm","overlap":true,
       "walker":"native","priority":2.5,"procs":8,"factors":[2,4]}|}
  in
  let j =
    match Json.parse line with
    | Ok v -> (
      match Job.of_json v with
      | Ok j -> j
      | Error e -> Alcotest.failf "of_json: %s" e)
    | Error e -> Alcotest.failf "parse: %s" e
  in
  check_str "id" "j7" j.Job.id;
  check_bool "op" true (j.Job.op = Job.Execute);
  check_bool "backend" true (j.Job.spec.backend = Run_spec.Shm);
  check_bool "overlap" true j.Job.spec.overlap;
  check_bool "walker" true (j.Job.spec.walker = Tiles_runtime.Walker.Native);
  Alcotest.(check (float 0.0)) "priority" 2.5 j.Job.priority;
  (* to_json parses back to the same record *)
  match Job.of_json (Job.to_json j) with
  | Ok j2 -> check_bool "roundtrip" true (j = j2)
  | Error e -> Alcotest.failf "roundtrip: %s" e

let test_job_rejects_garbage () =
  let bad s =
    match Json.parse s with
    | Error _ -> ()
    | Ok v -> (
      match Job.of_json v with
      | Ok _ -> Alcotest.failf "accepted %s" s
      | Error _ -> ())
  in
  bad {|{"op":"compile","app":"sor"}|};
  bad {|{"op":"plan"}|};
  bad {|{"op":"execute","app":"sor","backend":"mpi"}|};
  bad {|{"op":"plan","app":"sor","walker":"turbo"}|};
  bad {|{"op":"plan","app":"sor","tile":[1,2]}|};
  (* shm makes sense only where real data flows *)
  bad {|{"op":"simulate","app":"sor","backend":"shm"}|}

(* ---------- Server: stepped, deterministic ---------- *)

let stalled_config ?(capacity = 8) () =
  { Server.default_config with Server.capacity; workers = 0 }

let collector () =
  let lock = Mutex.create () in
  let acc = ref [] in
  let respond j =
    Mutex.lock lock;
    acc := j :: !acc;
    Mutex.unlock lock
  in
  let get () =
    Mutex.lock lock;
    let l = List.rev !acc in
    Mutex.unlock lock;
    l
  in
  (respond, get)

(* sor tolerates small custom tiles; jacobi/adi keep the CLI defaults
   (sizes 24/32, tile 6x8x8) — not every tile divides their skewed
   spaces into integer-origin tiles *)
let plan_job ?(id = "") ?(app = "sor") ?(priority = 10.0) () =
  let fields =
    [
      ("id", Json.Str id);
      ("op", Json.Str "plan");
      ("app", Json.Str app);
      ("priority", Json.Float priority);
    ]
    @ (if app = "sor" then
         [
           ("size1", Json.Int 12);
           ("size2", Json.Int 16);
           ("tile", Json.List [ Json.Int 3; Json.Int 4; Json.Int 4 ]);
         ]
       else [])
    (* "nonrect" is a sor/jacobi variant; ADI's non-rectangular tilings
       are named nr1..nr3 *)
    @ if app = "adi" then [ ("variant", Json.Str "nr1") ] else []
  in
  match Job.of_json (Json.Obj fields) with
  | Ok j -> j
  | Error e -> Alcotest.failf "plan_job: %s" e

let str_field name j =
  match Json.member name j with
  | Some (Json.Str s) -> s
  | _ -> Alcotest.failf "response missing %S: %s" name (Json.to_line j)

(* the coalescing contract: identical payloads bit-for-bit. Strip the
   per-delivery fields (identity, latency, cache label) and compare the
   rest rendered to a string. *)
let payload_fingerprint j =
  match j with
  | Json.Obj fields ->
    Json.to_line
      (Json.Obj
         (List.filter
            (fun (k, _) ->
              not
                (List.mem k
                   [ "id"; "cache"; "queued_s"; "service_s"; "metadata" ]))
            fields))
  | _ -> Alcotest.failf "not an object: %s" (Json.to_line j)

let test_coalesce_single_compile () =
  let t = Server.create ~config:(stalled_config ()) () in
  let respond, got = collector () in
  let n = 6 in
  for i = 1 to n do
    Server.submit t ~respond (plan_job ~id:(Printf.sprintf "c%d" i) ())
  done;
  (* identical requests coalesce onto one leader: a single queue slot,
     a single step, a single compile *)
  check_bool "one step serves all" true (Server.step t);
  check_bool "queue empty after" false (Server.step t);
  let rs = got () in
  check_int "every caller answered" n (List.length rs);
  List.iter
    (fun r -> check_str "status" "ok" (str_field "status" r))
    rs;
  let labels = List.map (str_field "cache") rs in
  check_int "one miss (the leader)" 1
    (List.length (List.filter (( = ) "miss") labels));
  check_int "N-1 coalesced" (n - 1)
    (List.length (List.filter (( = ) "coalesced") labels));
  (* bit-identical results for every member of the batch *)
  (match List.map payload_fingerprint rs with
  | [] -> Alcotest.fail "no responses"
  | fp :: rest ->
    List.iteri
      (fun i fp' ->
        check_str (Printf.sprintf "payload %d identical" (i + 1)) fp fp')
      rest);
  (* counters agree: one compile amortized over the batch *)
  let m = Server.metrics_json t in
  let get path =
    match
      List.fold_left
        (fun acc k -> Option.bind acc (Json.member k))
        (Some m) path
    with
    | Some (Json.Int i) -> i
    | _ -> Alcotest.failf "metrics missing %s" (String.concat "." path)
  in
  check_int "coalesce.batched" (n - 1) (get [ "coalesce"; "batched" ]);
  check_int "plan_cache.compiles" 1 (get [ "plan_cache"; "compiles" ]);
  check_int "queue.accepted" 1 (get [ "queue"; "accepted" ]);
  Server.shutdown t

let test_coalesce_matches_solo_run () =
  (* the batched payload must equal the payload of a lone request on a
     fresh server — coalescing may not change answers *)
  let solo =
    let t = Server.create ~config:(stalled_config ()) () in
    let respond, got = collector () in
    Server.submit t ~respond (plan_job ~id:"solo" ());
    ignore (Server.step t);
    Server.shutdown t;
    match got () with
    | [ r ] -> payload_fingerprint r
    | l -> Alcotest.failf "expected 1 response, got %d" (List.length l)
  in
  let t = Server.create ~config:(stalled_config ()) () in
  let respond, got = collector () in
  Server.submit t ~respond (plan_job ~id:"b1" ());
  Server.submit t ~respond (plan_job ~id:"b2" ());
  ignore (Server.step t);
  Server.shutdown t;
  List.iter
    (fun r -> check_str "same as solo" solo (payload_fingerprint r))
    (got ())

let test_admission_reject_end_to_end () =
  (* capacity k with a stalled pool: requests 1..k are admitted, k+1 is
     answered "rejected" with a structured reason — and distinct
     configurations so coalescing cannot absorb them *)
  let k = 3 in
  let t = Server.create ~config:(stalled_config ~capacity:k ()) () in
  let respond, got = collector () in
  let apps = [ "sor"; "jacobi"; "adi" ] in
  List.iteri
    (fun i app ->
      Server.submit t ~respond (plan_job ~id:(Printf.sprintf "a%d" i) ~app ()))
    apps;
  check_int "none answered yet" 0 (List.length (got ()));
  Server.submit t ~respond
    (plan_job ~id:"overflow" ~app:"sor" ~priority:1.0 ());
  (* same app but different priority — still a distinct coalesce key?
     No: priority is not part of the key, so use a different size via a
     raw job instead *)
  let distinct =
    match
      Job.of_json
        (Json.Obj
           [
             ("id", Json.Str "overflow2");
             ("op", Json.Str "plan");
             ("app", Json.Str "sor");
             ("size1", Json.Int 18);
             ("size2", Json.Int 20);
           ])
    with
    | Ok j -> j
    | Error e -> Alcotest.failf "distinct job: %s" e
  in
  Server.submit t ~respond distinct;
  let rejected =
    List.filter (fun r -> str_field "status" r = "rejected") (got ())
  in
  check_int "exactly one rejection" 1 (List.length rejected);
  let r = List.hd rejected in
  check_str "rejected the overflow job" "overflow2" (str_field "id" r);
  check_str "structured reason" "queue_full" (str_field "reason" r);
  (match Json.member "capacity" r with
  | Some (Json.Int c) -> check_int "capacity in reason" k c
  | _ -> Alcotest.fail "no capacity field");
  (* the "overflow" submission coalesced onto a0 (same configuration),
     which is why it did not trip admission *)
  let m = Server.metrics_json t in
  (match Json.member "queue" m with
  | Some q -> (
    match Json.member "rejected_full" q with
    | Some (Json.Int n) -> check_int "reject counter" 1 n
    | _ -> Alcotest.fail "no rejected_full counter")
  | None -> Alcotest.fail "no queue section");
  (* drain the backlog; every admitted job still completes *)
  while Server.step t do () done;
  Server.drain t;
  let ok =
    List.filter (fun r -> str_field "status" r = "ok") (got ())
  in
  check_int "admitted jobs all answered" 4 (List.length ok);
  Server.shutdown t

let test_priority_served_first () =
  let t = Server.create ~config:(stalled_config ()) () in
  let respond, got = collector () in
  Server.submit t ~respond (plan_job ~id:"bulk" ~app:"sor" ~priority:10.0 ());
  Server.submit t ~respond
    (plan_job ~id:"urgent" ~app:"jacobi" ~priority:1.0 ());
  ignore (Server.step t);
  (match got () with
  | first :: _ -> check_str "urgent first" "urgent" (str_field "id" first)
  | [] -> Alcotest.fail "no response");
  while Server.step t do () done;
  Server.shutdown t

let test_unknown_app_is_error_response () =
  let t = Server.create ~config:(stalled_config ()) () in
  let respond, got = collector () in
  Server.submit t ~respond (plan_job ~id:"bad" ~app:"fft" ());
  (match got () with
  | [ r ] ->
    check_str "status" "error" (str_field "status" r);
    check_str "id echoed" "bad" (str_field "id" r)
  | l -> Alcotest.failf "expected immediate error, got %d" (List.length l));
  (* a resolution failure consumes no queue slot *)
  let m = Server.metrics_json t in
  (match Json.member "queue" m with
  | Some q -> (
    match Json.member "accepted" q with
    | Some (Json.Int n) -> check_int "nothing admitted" 0 n
    | _ -> Alcotest.fail "no accepted counter")
  | None -> Alcotest.fail "no queue section");
  Server.shutdown t

let test_handle_line_protocol () =
  let t = Server.create ~config:(stalled_config ()) () in
  let respond, got = collector () in
  (* parse failure: answered synchronously as an error *)
  check_bool "garbage handled" true
    (Server.handle_line t ~respond "{nope" = `Handled);
  (* metrics snapshot: synchronous, no job involved *)
  check_bool "metrics handled" true
    (Server.handle_line t ~respond {|{"op":"metrics"}|} = `Handled);
  (* a real job goes through submit *)
  check_bool "job handled" true
    (Server.handle_line t ~respond
       {|{"id":"p1","op":"plan","app":"sor","size1":12,"size2":16}|}
    = `Handled);
  ignore (Server.step t);
  (* shutdown is the caller's signal to stop reading *)
  check_bool "shutdown" true
    (Server.handle_line t ~respond {|{"op":"shutdown"}|} = `Shutdown);
  let rs = got () in
  check_int "three responses" 3 (List.length rs);
  (match rs with
  | [ e; m; p ] ->
    check_str "error status" "error" (str_field "status" e);
    check_str "metrics op" "metrics" (str_field "op" m);
    check_bool "metrics has queue section" true
      (Json.member "metrics" m <> None);
    check_str "plan ok" "ok" (str_field "status" p);
    check_str "plan id" "p1" (str_field "id" p)
  | _ -> Alcotest.fail "unexpected response shapes");
  Server.shutdown t

(* a tune job whose search cannot run (no processors, no or non-positive
   factors) is malformed: an error line before admission, never a queue
   slot, a plan compile and a worker-side failure *)
let test_malformed_tune_rejected () =
  let t = Server.create ~config:(stalled_config ()) () in
  let respond, got = collector () in
  let base = {|"op":"tune","app":"sor","size1":8,"size2":8|} in
  let lines =
    [
      ({|"procs":0|}, {|field "procs" must be >= 1|});
      ({|"factors":[0]|}, {|field "factors" must be a non-empty list|});
      ({|"factors":[2,-3]|}, {|field "factors" must be a non-empty list|});
      ({|"factors":[]|}, {|field "factors" must be a non-empty list|});
    ]
  in
  List.iteri
    (fun i (extra, _) ->
      let line = Printf.sprintf {|{"id":"m%d",%s,%s}|} i base extra in
      check_bool "handled" true (Server.handle_line t ~respond line = `Handled))
    lines;
  check_bool "nothing to step" false (Server.step t);
  let rs = got () in
  check_int "one response per line" (List.length lines) (List.length rs);
  List.iteri
    (fun i ((_, expected), r) ->
      check_str "status" "error" (str_field "status" r);
      check_str "id" (Printf.sprintf "m%d" i) (str_field "id" r);
      let msg = str_field "error" r in
      check_bool (msg ^ " names the field") true
        (Astring.String.is_infix ~affix:expected msg))
    (List.combine lines rs);
  let m = Server.metrics_json t in
  let get section key =
    match Option.bind (Json.member section m) (Json.member key) with
    | Some (Json.Int n) -> n
    | _ -> Alcotest.failf "metrics missing %s.%s" section key
  in
  check_int "nothing admitted" 0 (get "queue" "accepted");
  check_int "nothing compiled" 0 (get "plan_cache" "compiles");
  Server.shutdown t

(* the retired strength walker is an unknown walker now: a structured
   error response carrying the job id, not a silent substitution *)
let test_strength_walker_rejected () =
  let t = Server.create ~config:(stalled_config ()) () in
  let respond, got = collector () in
  check_bool "handled" true
    (Server.handle_line t ~respond
       {|{"id":"w1","op":"plan","app":"sor","walker":"strength"}|}
    = `Handled);
  (match got () with
  | [ e ] ->
    check_str "status" "error" (str_field "status" e);
    check_str "id" "w1" (str_field "id" e);
    let msg = str_field "error" e in
    check_bool ("unknown walker: " ^ msg) true
      (Astring.String.is_infix ~affix:"unknown walker \"strength\"" msg)
  | rs -> Alcotest.failf "expected one response, got %d" (List.length rs));
  Server.shutdown t

(* "inner" (the retired walker subtile shape) is an unknown field now and
   ignored like any other: a job line carrying it gets the same response
   as the same line without it *)
let test_inner_field_ignored () =
  let serve line =
    let t = Server.create ~config:(stalled_config ()) () in
    let respond, got = collector () in
    check_bool "handled" true (Server.handle_line t ~respond line = `Handled);
    ignore (Server.step t);
    Server.shutdown t;
    match got () with
    | [ r ] ->
      check_str "status" "ok" (str_field "status" r);
      payload_fingerprint r
    | rs -> Alcotest.failf "expected one response, got %d" (List.length rs)
  in
  let base =
    {|"id":"i1","op":"simulate","app":"sor","size1":12,"size2":16,|}
    ^ {|"tile":[3,4,4]|}
  in
  check_str "same response"
    (serve ("{" ^ base ^ "}"))
    (serve ("{" ^ base ^ {|,"inner":[2,2,2]}|}))

let test_simulate_deterministic_and_cached () =
  (* two identical simulate jobs, submitted sequentially (no coalescing
     window): second must hit the plan cache and produce the same
     numbers — the simulator is deterministic *)
  let t = Server.create ~config:(stalled_config ()) () in
  let respond, got = collector () in
  let job id =
    match
      Job.of_json
        (Json.Obj
           [
             ("id", Json.Str id);
             ("op", Json.Str "simulate");
             ("app", Json.Str "jacobi");
             ("size1", Json.Int 16);
             ("size2", Json.Int 24);
           ])
    with
    | Ok j -> j
    | Error e -> Alcotest.failf "job: %s" e
  in
  Server.submit t ~respond (job "s1");
  ignore (Server.step t);
  Server.submit t ~respond (job "s2");
  ignore (Server.step t);
  (match got () with
  | [ r1; r2 ] ->
    check_str "first misses" "miss" (str_field "cache" r1);
    check_str "second hits" "hit" (str_field "cache" r2);
    check_str "identical result" (payload_fingerprint r1)
      (payload_fingerprint r2);
    (* the response embeds Runmeta with the job id and queue latency *)
    (match Json.member "metadata" r1 with
    | Some meta -> (
      check_bool "job_id in metadata" true
        (Json.member "job_id" meta = Some (Json.Str "s1"));
      match Json.member "queued_s" meta with
      | Some (Json.Float q) -> check_bool "queued_s >= 0" true (q >= 0.0)
      | _ -> Alcotest.fail "no queued_s in metadata")
    | None -> Alcotest.fail "no metadata")
  | l -> Alcotest.failf "expected 2 responses, got %d" (List.length l));
  Server.shutdown t

(* an execute job naming the native walker on a host without a C
   compiler runs the fast path, and its reply metadata says why, on
   either backend; the run is still checked against the oracle *)
let test_execute_records_fallback () =
  let t = Server.create ~config:(stalled_config ()) () in
  let respond, got = collector () in
  let job backend =
    match
      Job.of_json
        (Json.Obj
           [
             ("id", Json.Str backend);
             ("op", Json.Str "execute");
             ("app", Json.Str "sor");
             ("size1", Json.Int 12);
             ("size2", Json.Int 16);
             ("tile", Json.List [ Json.Int 3; Json.Int 4; Json.Int 4 ]);
             ("backend", Json.Str backend);
             ("walker", Json.Str "native");
           ])
    with
    | Ok j -> j
    | Error e -> Alcotest.failf "job: %s" e
  in
  Unix.putenv "TILEC_NO_CC" "1";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "TILEC_NO_CC" "")
    (fun () ->
      List.iter
        (fun b ->
          Server.submit t ~respond (job b);
          ignore (Server.step t))
        [ "sim"; "shm" ]);
  check_int "two replies" 2 (List.length (got ()));
  List.iter
    (fun r ->
      let id = str_field "id" r in
      check_str (id ^ " ok") "ok" (str_field "status" r);
      check_bool (id ^ " exact") true
        (Json.member "max_abs_err" r = Some (Json.Float 0.));
      match
        Option.bind (Json.member "metadata" r) (Json.member "walker_fallback")
      with
      | Some (Json.Str reason) ->
        check_bool (id ^ " reason names the compiler") true
          (Astring.String.is_infix ~affix:"compiler" reason)
      | _ -> Alcotest.failf "%s: no walker_fallback: %s" id (Json.to_line r))
    (got ());
  Server.shutdown t

(* the service-wide longest-wait reservoir: bounded, sorted, attributed *)
let test_metrics_wait_reservoir () =
  let m = Metrics.create () in
  let span rank d = { Span.rank; t0 = 0.; t1 = d; kind = Span.Wait } in
  Metrics.observe_waits m ~job_id:"a" [ span 0 25.0; span 1 7.5 ];
  Metrics.observe_waits m ~job_id:"b"
    (List.init 20 (fun i -> span i (float_of_int (i + 1))));
  (* 22 waits offered; the top 16 are a:25, b:20..7 with a:7.5 slotted in *)
  let w = Metrics.longest_waits m in
  check_int "bounded at 16" 16 (List.length w);
  (match w with
  | (job, rank, s) :: _ ->
    check_str "longest attributed to a" "a" job;
    check_int "its rank" 0 rank;
    check_bool "its duration" true (s = 25.0)
  | [] -> Alcotest.fail "empty reservoir");
  let rec sorted = function
    | (_, _, a) :: ((_, _, b) :: _ as rest) -> a >= b && sorted rest
    | _ -> true
  in
  check_bool "longest first" true (sorted w);
  check_bool "a's second wait survives the cut" true
    (List.exists (fun (j, _, s) -> j = "a" && s = 7.5) w);
  check_bool "b's shortest were evicted" true
    (not (List.exists (fun (_, _, s) -> s <= 6.0) w));
  match Metrics.snapshot_json m with
  | Json.Obj kvs -> (
    match List.assoc_opt "longest_waits" kvs with
    | Some (Json.List l) -> check_int "snapshot embeds reservoir" 16 (List.length l)
    | _ -> Alcotest.fail "snapshot lacks longest_waits")
  | _ -> Alcotest.fail "snapshot not an object"

(* a simulate job run by the server lands its waits in the metrics,
   attributed to the leader's job id *)
let test_server_folds_job_waits () =
  let t = Server.create ~config:(stalled_config ()) () in
  let respond, got = collector () in
  check_bool "job handled" true
    (Server.handle_line t ~respond
       {|{"id":"w1","op":"simulate","app":"jacobi","size1":16,"size2":24}|}
    = `Handled);
  ignore (Server.step t);
  check_bool "metrics handled" true
    (Server.handle_line t ~respond {|{"op":"metrics"}|} = `Handled);
  (match got () with
  | [ _job; m ] -> (
    match Option.bind (Json.member "metrics" m) (Json.member "jobs") with
    | Some (Json.Obj kvs) -> (
      match List.assoc_opt "longest_waits" kvs with
      | Some (Json.List (_ :: _ as l)) ->
        check_bool "attributed to the job" true
          (List.for_all
             (fun e -> Json.member "job_id" e = Some (Json.Str "w1"))
             l)
      | _ -> Alcotest.fail "no longest_waits in snapshot")
    | _ -> Alcotest.fail "no metrics object")
  | l -> Alcotest.failf "expected 2 responses, got %d" (List.length l));
  Server.shutdown t

let test_pooled_server_drain () =
  (* with a real pool: submit a burst, drain, every job answered *)
  let config =
    { Server.default_config with Server.capacity = 16; workers = 2 }
  in
  let t = Server.create ~config () in
  let respond, got = collector () in
  let apps = [ "sor"; "jacobi"; "adi" ] in
  for i = 0 to 8 do
    Server.submit t ~respond
      (plan_job ~id:(Printf.sprintf "p%d" i)
         ~app:(List.nth apps (i mod 3))
         ())
  done;
  Server.drain t;
  let rs = got () in
  check_int "all answered" 9 (List.length rs);
  List.iter (fun r -> check_str "ok" "ok" (str_field "status" r)) rs;
  Server.shutdown t;
  (* shutdown is idempotent *)
  Server.shutdown t

(* Two domains on one fresh plan. The count table is built on first use
   and published through an Atomic: Timing runs racing to build it, and
   a pooled server running two jobs against one cached plan, must agree
   with single-domain runs and raise nothing. *)
let test_count_table_domains () =
  let module Sor = Tiles_apps.Sor in
  let module Plan = Tiles_core.Plan in
  let module Executor = Tiles_runtime.Executor in
  let module Sim = Tiles_mpisim.Sim in
  let p = Sor.make ~m_steps:8 ~size:12 in
  let kernel = Sor.kernel p in
  let fresh () =
    Plan.make ~m:Sor.mapping_dim (Sor.nest p) (Sor.nonrect ~x:4 ~y:7 ~z:4)
  in
  let timing plan () =
    let r = Executor.run ~mode:Executor.Timing ~plan ~kernel ~net () in
    ( r.Executor.stats.Sim.completion,
      r.Executor.stats.Sim.messages,
      r.Executor.stats.Sim.bytes,
      r.Executor.points_computed,
      Plan.comm_stats plan )
  in
  let solo = timing (fresh ()) () in
  let plan = fresh () in
  let d1 = Domain.spawn (timing plan) and d2 = Domain.spawn (timing plan) in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  check_bool "domain 1 = solo" true (r1 = solo);
  check_bool "domain 2 = solo" true (r2 = solo);
  let job op id =
    match
      Job.of_json
        (Json.Obj
           [
             ("id", Json.Str id); ("op", Json.Str op); ("app", Json.Str "sor");
             ("size1", Json.Int 12); ("size2", Json.Int 16);
             ("tile", Json.List [ Json.Int 3; Json.Int 4; Json.Int 4 ]);
           ])
    with
    | Ok j -> j
    | Error e -> Alcotest.failf "job: %s" e
  in
  (* a plan job caches the plan without building its table; the two
     runs after it then hit the cache and race on the table *)
  let serve ~workers =
    let t =
      Server.create
        ~config:{ Server.default_config with Server.capacity = 16; workers }
        ()
    in
    let respond, got = collector () in
    let run jobs =
      List.iter (Server.submit t ~respond) jobs;
      if workers = 0 then while Server.step t do () done else Server.drain t
    in
    run [ job "plan" "p" ];
    for round = 1 to 2 do
      run
        [
          job "simulate" (Printf.sprintf "s%d" round);
          job "execute" (Printf.sprintf "e%d" round);
        ]
    done;
    Server.shutdown t;
    List.map
      (fun r ->
        check_str "ok" "ok" (str_field "status" r);
        (str_field "id" r, payload_fingerprint r))
      (got ())
    |> List.sort compare
  in
  let solo = serve ~workers:0 in
  let pooled = serve ~workers:2 in
  check_int "all answered" 5 (List.length pooled);
  List.iter2
    (fun (id, a) (_, b) -> check_str ("pooled " ^ id ^ " = solo") a b)
    solo pooled;
  check_str "rounds agree (simulate)" (List.assoc "s1" pooled)
    (List.assoc "s2" pooled);
  check_str "rounds agree (execute)" (List.assoc "e1" pooled)
    (List.assoc "e2" pooled)

let test_socket_roundtrip () =
  let dir = Filename.temp_file "tilec-serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "tilec.sock" in
  let server =
    Domain.spawn (fun () ->
        Server.serve_socket
          ~config:{ (stalled_config ()) with Server.workers = 1 }
          ~path ())
  in
  let rec connect tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error _ when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.05;
      connect (tries - 1)
  in
  let fd = connect 100 in
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  output_string oc
    "{\"id\":\"s1\",\"op\":\"plan\",\"app\":\"sor\",\"size1\":12,\"size2\":16}\n";
  output_string oc "{\"op\":\"shutdown\"}\n";
  flush oc;
  let l1 = input_line ic in
  (match Json.parse l1 with
  | Ok r ->
    check_str "ok over socket" "ok" (str_field "status" r);
    check_str "id" "s1" (str_field "id" r)
  | Error e -> Alcotest.failf "bad response line %S: %s" l1 e);
  let l2 = input_line ic in
  (match Json.parse l2 with
  | Ok r -> check_str "shutdown ack" "shutdown" (str_field "op" r)
  | Error e -> Alcotest.failf "bad shutdown line %S: %s" l2 e);
  Domain.join server;
  Unix.close fd;
  check_bool "socket unlinked" false (Sys.file_exists path);
  Unix.rmdir dir

(* a client that submits a job and disconnects before its response is
   written used to kill the daemon: the write to the dead socket
   delivered SIGPIPE (default disposition: terminate) before the
   per-connection error handler ran. The server must survive and keep
   answering later clients. *)
let test_socket_early_disconnect () =
  let dir = Filename.temp_file "tilec-serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "tilec.sock" in
  let server =
    Domain.spawn (fun () ->
        Server.serve_socket
          ~config:{ (stalled_config ()) with Server.workers = 1 }
          ~path ())
  in
  let rec connect tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error _ when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.05;
      connect (tries - 1)
  in
  (* tenant 1: submit a real simulate job, then vanish mid-response *)
  let fd1 = connect 100 in
  let oc1 = Unix.out_channel_of_descr fd1 in
  output_string oc1
    "{\"id\":\"gone\",\"op\":\"simulate\",\"app\":\"jacobi\",\"size1\":24,\
     \"size2\":64}\n";
  flush oc1;
  Unix.close fd1;
  (* tenant 2: the server must still be alive and serving *)
  let fd2 = connect 100 in
  let oc2 = Unix.out_channel_of_descr fd2 in
  let ic2 = Unix.in_channel_of_descr fd2 in
  output_string oc2
    "{\"id\":\"s2\",\"op\":\"plan\",\"app\":\"sor\",\"size1\":12,\"size2\":16}\n";
  output_string oc2 "{\"op\":\"shutdown\"}\n";
  flush oc2;
  let l1 = input_line ic2 in
  (match Json.parse l1 with
  | Ok r ->
    check_str "second tenant answered" "ok" (str_field "status" r);
    check_str "id" "s2" (str_field "id" r)
  | Error e -> Alcotest.failf "bad response line %S: %s" l1 e);
  let l2 = input_line ic2 in
  (match Json.parse l2 with
  | Ok r -> check_str "shutdown ack" "shutdown" (str_field "op" r)
  | Error e -> Alcotest.failf "bad shutdown line %S: %s" l2 e);
  Domain.join server;
  Unix.close fd2;
  Unix.rmdir dir

(* The runtime allows some 128 live domains; a connection reads on a
   systhread, so tenants are not bounded by that limit: all 130
   concurrent connections get their plan answered, and then a fresh
   connection is served. 130 concurrent connections, never more. *)
let test_socket_domain_limit () =
  let dir = Filename.temp_file "tilec-serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "tilec.sock" in
  let server =
    Domain.spawn (fun () ->
        Server.serve_socket
          ~config:{ (stalled_config ~capacity:256 ()) with Server.workers = 1 }
          ~path ())
  in
  let rec connect tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error _ when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.05;
      connect (tries - 1)
  in
  let plan_line id =
    Printf.sprintf
      "{\"id\":\"%s\",\"op\":\"plan\",\"app\":\"sor\",\"size1\":12,\
       \"size2\":16}\n"
      id
  in
  let check_plan id ic =
    let l = input_line ic in
    match Json.parse l with
    | Ok r ->
      check_str "plan answered" "ok" (str_field "status" r);
      check_str "to its own connection" id (str_field "id" r)
    | Error e -> Alcotest.failf "bad response line %S: %s" l e
  in
  let conns =
    List.init 130 (fun i ->
        let fd = connect 100 in
        ( Printf.sprintf "c%d" i,
          fd,
          Unix.out_channel_of_descr fd,
          Unix.in_channel_of_descr fd ))
  in
  (* every connection is open before any asks *)
  List.iter
    (fun (id, _, oc, _) ->
      output_string oc (plan_line id);
      flush oc)
    conns;
  List.iter (fun (id, _, _, ic) -> check_plan id ic) conns;
  List.iter (fun (_, fd, _, _) -> Unix.close fd) conns;
  let fd = connect 100 in
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  output_string oc (plan_line "fresh");
  output_string oc "{\"op\":\"shutdown\"}\n";
  flush oc;
  check_plan "fresh" ic;
  let l = input_line ic in
  (match Json.parse l with
  | Ok r -> check_str "shutdown ack" "shutdown" (str_field "op" r)
  | Error e -> Alcotest.failf "bad shutdown line %S: %s" l e);
  Domain.join server;
  Unix.close fd;
  Unix.rmdir dir

(* equal last-use ticks cannot arise through the public API (ticks are
   unique), so manufacture them: the victim must be the smallest key,
   independent of insertion order / hash-table layout *)
let test_plan_cache_tie_break () =
  let r = resolved_exn ~app:"sor" () in
  let compile () =
    Tiles_core.Plan.make ~m:r.Registry.m r.Registry.nest r.Registry.tiling
  in
  (* one probe per fresh cache: probing with find_or_compile re-inserts
     on a miss and would cascade further evictions *)
  let missing order probe =
    let c = Plan_cache.create ~capacity:3 in
    List.iter
      (fun k -> ignore (Plan_cache.find_or_compile c ~key:k compile))
      order;
    List.iter
      (fun k -> Plan_cache.set_last_use_for_testing c ~key:k ~age:7)
      order;
    (* insert a fourth entry: one of the three tied entries must go *)
    ignore (Plan_cache.find_or_compile c ~key:"zz" compile);
    let _, st = Plan_cache.find_or_compile c ~key:probe compile in
    st = `Miss
  in
  List.iter
    (fun order ->
      let label k =
        Printf.sprintf "probe %s (order %s)" k (String.concat "," order)
      in
      check_bool (label "aa") true (missing order "aa");
      check_bool (label "bb") false (missing order "bb");
      check_bool (label "cc") false (missing order "cc"))
    [ [ "aa"; "bb"; "cc" ]; [ "cc"; "aa"; "bb" ]; [ "bb"; "cc"; "aa" ] ]

let () =
  Alcotest.run "tiles_serve"
    [
      ( "admission",
        [
          Alcotest.test_case "capacity >= 1" `Quick test_admission_capacity;
          Alcotest.test_case "reject when full" `Quick
            test_admission_reject_full;
          Alcotest.test_case "priority order" `Quick
            test_admission_priority_order;
          Alcotest.test_case "close" `Quick test_admission_close;
          Alcotest.test_case "blocking pop" `Quick
            test_admission_blocking_pop;
        ] );
      ( "plan_cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_plan_cache_hits;
          Alcotest.test_case "key pinned" `Quick test_plan_cache_key_pinned;
          Alcotest.test_case "key discriminates" `Quick
            test_plan_cache_key_discriminates;
          Alcotest.test_case "LRU eviction" `Quick test_plan_cache_eviction;
          Alcotest.test_case "deterministic tie-break" `Quick
            test_plan_cache_tie_break;
        ] );
      ( "registry",
        [ Alcotest.test_case "errors" `Quick test_registry_errors ] );
      ( "job",
        [
          Alcotest.test_case "roundtrip" `Quick test_job_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick
            test_job_rejects_garbage;
        ] );
      ( "server",
        [
          Alcotest.test_case "coalesce: one compile" `Quick
            test_coalesce_single_compile;
          Alcotest.test_case "coalesce: equals solo run" `Quick
            test_coalesce_matches_solo_run;
          Alcotest.test_case "admission rejects k+1" `Quick
            test_admission_reject_end_to_end;
          Alcotest.test_case "priority served first" `Quick
            test_priority_served_first;
          Alcotest.test_case "unknown app errors" `Quick
            test_unknown_app_is_error_response;
          Alcotest.test_case "protocol lines" `Quick
            test_handle_line_protocol;
          Alcotest.test_case "malformed tune rejected" `Quick
            test_malformed_tune_rejected;
          Alcotest.test_case "strength walker rejected" `Quick
            test_strength_walker_rejected;
          Alcotest.test_case "inner field ignored" `Quick
            test_inner_field_ignored;
          Alcotest.test_case "simulate cached+deterministic" `Quick
            test_simulate_deterministic_and_cached;
          Alcotest.test_case "execute records native fallback" `Quick
            test_execute_records_fallback;
          Alcotest.test_case "wait reservoir bounded" `Quick
            test_metrics_wait_reservoir;
          Alcotest.test_case "job waits fold into metrics" `Quick
            test_server_folds_job_waits;
          Alcotest.test_case "pooled drain" `Quick test_pooled_server_drain;
          Alcotest.test_case "count table across domains" `Quick
            test_count_table_domains;
          Alcotest.test_case "socket roundtrip" `Quick test_socket_roundtrip;
          Alcotest.test_case "socket early disconnect" `Quick
            test_socket_early_disconnect;
          Alcotest.test_case "socket past the domain limit" `Quick
            test_socket_domain_limit;
        ] );
    ]
