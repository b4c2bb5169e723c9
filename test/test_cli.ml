(* Integration tests of the tilec command-line tool: drive the built
   binary end-to-end and check its output. *)

let tilec =
  lazy
    (let candidates =
       [ "../bin/tilec.exe"; "_build/default/bin/tilec.exe"; "bin/tilec.exe" ]
     in
     match List.find_opt Sys.file_exists candidates with
     | Some p -> p
     | None -> Alcotest.fail "tilec.exe not found (build it first)")

let run args =
  let cmd = Printf.sprintf "%s %s 2>&1" (Lazy.force tilec) args in
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 256 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (status, Buffer.contents buf)

let contains s needle = Astring.String.is_infix ~affix:needle s

let check_ok args needles =
  let status, out = run args in
  if status <> Unix.WEXITED 0 then
    Alcotest.failf "tilec %s failed:\n%s" args out;
  List.iter
    (fun n ->
      if not (contains out n) then
        Alcotest.failf "tilec %s: %S not in output:\n%s" args n out)
    needles

let test_plan () =
  check_ok "plan --app sor -M 12 -N 16 --variant nonrect -x 6 -y 7 -z 4"
    [ "plan for sor"; "tile size"; "CC vector"; "D^S"; "processors" ]

let test_cone () =
  check_ok "cone --app adi" [ "tiling cone extreme rays"; "(1, -1, -1)" ]

let test_simulate () =
  check_ok "simulate --app adi -t 12 -n 16 --variant nr3 -x 3 -y 4 -z 4 --full"
    [ "speedup"; "max |parallel - sequential| = 0" ]

let test_emit () =
  let tmp = Filename.temp_file "tilec" ".c" in
  check_ok
    (Printf.sprintf
       "emit-mpi --app jacobi -t 8 -n 10 --variant nonrect -x 2 -y 4 -z 4 -o %s"
       (Filename.quote tmp))
    [];
  let ic = open_in tmp in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  Sys.remove tmp;
  List.iter
    (fun n ->
      if not (contains src n) then Alcotest.failf "emitted C lacks %S" n)
    [ "MPI_Init"; "MPI_Send"; "ttis_start"; "static const int HNF" ]

let test_bad_app () =
  let status, _ = run "plan --app nope" in
  Alcotest.(check bool) "non-zero exit" true (status <> Unix.WEXITED 0)

(* illegal or singular tilings must exit non-zero with a one-line
   diagnostic, not an OCaml backtrace *)
let check_err args =
  let status, out = run args in
  if status = Unix.WEXITED 0 then
    Alcotest.failf "tilec %s unexpectedly succeeded:\n%s" args out;
  if not (contains out "tilec: error:") then
    Alcotest.failf "tilec %s: missing error prefix:\n%s" args out;
  List.iter
    (fun marker ->
      if contains out marker then
        Alcotest.failf "tilec %s: leaked a backtrace:\n%s" args out)
    [ "Raised at"; "Called from"; "Fatal error: exception" ];
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' out)
  in
  if List.length lines <> 1 then
    Alcotest.failf "tilec %s: expected a one-line error, got %d lines:\n%s"
      args (List.length lines) out

let test_singular_tiling () =
  check_err "plan --app sor -M 12 -N 16 --variant nonrect -x 6 -y 7 -z 0"

let test_illegal_tiling () =
  check_err "plan --app sor -M 12 -N 16 --variant rect -x 0 -y 7 -z 4";
  check_err "simulate --app adi -t 12 -n 16 --variant nr3 -x 3 -y 0 -z 4"

(* tilec trace: both backends must produce a loadable Chrome trace with
   the same message/byte counters in the printed summary *)
let test_trace () =
  let counters_of backend =
    let json = Filename.temp_file "tilec_trace" ".json" in
    let svg = Filename.temp_file "tilec_trace" ".svg" in
    let status, out =
      run
        (Printf.sprintf
           "trace --app sor -M 12 -N 16 -x 3 -y 4 -z 4 --backend %s --out %s \
            --svg %s"
           backend (Filename.quote json) (Filename.quote svg))
    in
    if status <> Unix.WEXITED 0 then
      Alcotest.failf "trace --backend %s failed:\n%s" backend out;
    let slurp path =
      let ic = open_in path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Sys.remove path;
      s
    in
    let doc = slurp json and drawing = slurp svg in
    List.iter
      (fun n ->
        if not (contains doc n) then
          Alcotest.failf "%s trace JSON lacks %S" backend n)
      [ {|"traceEvents"|}; {|"ph": "X"|}; {|"thread_name"|}; {|"ts"|} ];
    if not (contains drawing "<svg") then
      Alcotest.failf "%s timeline is not SVG" backend;
    (* "... N messages, M bytes ..." from the aggregate summary *)
    match
      List.find_opt (fun l -> contains l "messages") (String.split_on_char '\n' out)
    with
    | Some line -> line
    | None -> Alcotest.failf "%s summary lacks counters:\n%s" backend out
  in
  let sim = counters_of "sim" and shm = counters_of "shm" in
  let counters l =
    (* keep only "N messages, M bytes": completion differs by clock, and
       the in-flight high-water mark by interleaving *)
    let tail =
      match Astring.String.cut ~sep:" s, " l with
      | Some (_, t) -> t
      | None -> l
    in
    match Astring.String.cut ~sep:", max in-flight" tail with
    | Some (counts, _) -> counts
    | None -> tail
  in
  Alcotest.(check string) "backends agree on counters" (counters sim)
    (counters shm)

let test_simulate_trace_out () =
  let json = Filename.temp_file "tilec_sim" ".json" in
  check_ok
    (Printf.sprintf
       "simulate --app sor -M 12 -N 16 -x 3 -y 4 --trace %s"
       (Filename.quote json))
    [ "speedup" ];
  let ic = open_in json in
  let doc = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove json;
  if not (contains doc {|"traceEvents"|}) then
    Alcotest.fail "simulate --trace did not write a Chrome trace"

(* the per-rank utilisation report reads the aggregate Stats record;
   pinned so the figures stay those of the simulated schedule *)
let test_simulate_utilisation () =
  let args = "simulate --app sor -M 12 -N 16 --utilisation" in
  check_ok args
    [
      "machine efficiency 3%\n";
      "  rank 0   compute   0.05ms  send   0.37ms  wait   0.00ms  idle   \
       0.92ms\n";
      "  rank 6   compute   0.01ms  send   0.00ms  wait   1.13ms  idle   \
       0.00ms\n";
    ]

(* --backend is a Cmdliner enum: an unknown value must be rejected up
   front with a diagnostic that lists the valid backends *)
let test_trace_bad_backend () =
  let status, out = run "trace --app sor --backend lan" in
  Alcotest.(check bool) "non-zero exit" true (status <> Unix.WEXITED 0);
  if not (contains out "invalid value 'lan'") then
    Alcotest.failf "missing diagnostic:\n%s" out;
  if not (contains out "'sim'" && contains out "'shm'") then
    Alcotest.failf "diagnostic does not list sim and shm:\n%s" out

(* the overlapped schedule runs on the shm backend too: exact vs the
   oracle, and its counters agree with an overlapped sim run *)
let test_trace_overlap_shm () =
  let counters_of backend =
    let json = Filename.temp_file "tilec_trace_ovl" ".json" in
    let status, out =
      run
        (Printf.sprintf
           "trace --app sor -M 12 -N 16 -x 3 -y 4 -z 4 --backend %s --overlap \
            --out %s"
           backend (Filename.quote json))
    in
    Sys.remove json;
    if status <> Unix.WEXITED 0 then
      Alcotest.failf "trace --backend %s --overlap failed:\n%s" backend out;
    if backend = "shm" && not (contains out "max |parallel - sequential| = 0")
    then Alcotest.failf "overlapped shm run is not exact:\n%s" out;
    match
      List.find_opt
        (fun l -> contains l "messages")
        (String.split_on_char '\n' out)
    with
    | Some line -> line
    | None -> Alcotest.failf "%s summary lacks counters:\n%s" backend out
  in
  let sim = counters_of "sim" and shm = counters_of "shm" in
  let counters l =
    let tail =
      match Astring.String.cut ~sep:" s, " l with
      | Some (_, t) -> t
      | None -> l
    in
    match Astring.String.cut ~sep:", max in-flight" tail with
    | Some (counts, _) -> counts
    | None -> tail
  in
  Alcotest.(check string) "overlapped backends agree on counters"
    (counters sim) (counters shm)

(* a genuinely unsupported flag/backend combination is a Cmdliner usage
   error (usage line, exit 124), not a "tilec: error:" failwith *)
let test_perf_inflate_shm_usage_error () =
  let status, out = run "perf --app sor --backend shm --inflate 2.0" in
  Alcotest.(check bool) "non-zero exit" true (status <> Unix.WEXITED 0);
  if not (contains out "Usage: tilec perf") then
    Alcotest.failf "expected a usage error:\n%s" out;
  if contains out "tilec: error:" then
    Alcotest.failf "surfaced as a runtime failure, not a usage error:\n%s" out

(* tilec perf: record a baseline, a clean re-run passes the gate, and a
   synthetically slowed run (inflated net model) trips it *)
let test_perf_record_check () =
  let dir = Filename.temp_file "tilec_perf" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let base =
    Printf.sprintf
      "--app sor -M 12 -N 16 --variant nonrect -x 3 -y 4 -z 4 --repeats 2 \
       --warmup 1 --dir %s"
      (Filename.quote dir)
  in
  check_ok ("perf " ^ base ^ " --record") [ "recorded" ];
  check_ok ("perf " ^ base ^ " --check") [ "PASS" ];
  let status, out = run ("perf " ^ base ^ " --check --inflate 3.0") in
  Alcotest.(check bool) "regression exits non-zero" true
    (status <> Unix.WEXITED 0);
  if not (contains out "REGRESSION") then
    Alcotest.failf "slowed run did not report a regression:\n%s" out;
  Array.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  Unix.rmdir dir

(* ---------------- exit codes ----------------
   Every failure class has its own documented code so CI and scripts can
   react without parsing stderr: 1 runtime, 2 perf regression,
   3 slab mismatch, 4 rendezvous timeout, 124 usage. *)

let check_exit args code =
  let status, out = run args in
  match status with
  | Unix.WEXITED c ->
    if c <> code then
      Alcotest.failf "tilec %s: expected exit %d, got %d:\n%s" args code c out
  | _ -> Alcotest.failf "tilec %s: killed by signal:\n%s" args out

let test_exit_codes () =
  (* runtime failure: a singular tiling *)
  check_exit "plan --app sor -M 12 -N 16 --variant nonrect -x 6 -y 7 -z 0" 1;
  (* runtime failure: unknown app *)
  check_exit "plan --app nope" 1;
  (* usage errors: Cmdliner's cli_error *)
  check_exit "trace --app sor --backend lan" 124;
  check_exit "perf --app sor --backend shm --inflate 2.0" 124;
  (* retired options: two-level tiling and the strength walker *)
  List.iter
    (fun cmd -> check_exit (cmd ^ " --app sor --inner 2,2,2") 124)
    [ "simulate"; "trace"; "analyze"; "perf"; "tune" ];
  check_exit "simulate --app sor --walker strength" 124;
  check_exit "serve --workers 0" 1

let test_exit_code_regression () =
  (* perf --check regressions exit 2, distinct from generic failures *)
  let dir = Filename.temp_file "tilec_exit2" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let base =
    Printf.sprintf
      "--app sor -M 12 -N 16 --variant nonrect -x 3 -y 4 -z 4 --repeats 1 \
       --warmup 0 --dir %s"
      (Filename.quote dir)
  in
  check_ok ("perf " ^ base ^ " --record") [ "recorded" ];
  check_exit ("perf " ^ base ^ " --check --inflate 3.0") 2;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* ---------------- the serve daemon over a pipe ---------------- *)

module Json = Tiles_util.Json

(* One worker, a deliberately slow tune job first: while the worker
   chews on it, the three identical plan requests behind it are read,
   submitted and coalesced — deterministically, because reading a pipe
   line is microseconds and the tune is hundreds of milliseconds. *)
let test_serve_pipe () =
  let requests =
    String.concat "\n"
      [
        {|{"id":"warm","op":"tune","app":"adi","variant":"nr1","size1":10,"size2":12,"procs":4,"factors":[2,3]}|};
        {|{"id":"p1","op":"plan","app":"sor","size1":12,"size2":16,"tile":[3,4,4]}|};
        {|{"id":"p2","op":"plan","app":"sor","size1":12,"size2":16,"tile":[3,4,4]}|};
        {|{"id":"p3","op":"plan","app":"sor","size1":12,"size2":16,"tile":[3,4,4]}|};
        {|{"id":"bad","op":"plan","app":"fft"}|};
        {|not even json|};
        {|{"op":"metrics"}|};
        {|{"op":"shutdown"}|};
      ]
    ^ "\n"
  in
  let reqfile = Filename.temp_file "tilec_serve_req" ".jsonl" in
  let oc = open_out reqfile in
  output_string oc requests;
  close_out oc;
  let status, out =
    run
      (Printf.sprintf "serve --workers 1 --capacity 8 < %s"
         (Filename.quote reqfile))
  in
  Sys.remove reqfile;
  if status <> Unix.WEXITED 0 then Alcotest.failf "serve failed:\n%s" out;
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' out)
  in
  let parsed =
    List.map
      (fun l ->
        match Json.parse l with
        | Ok j -> j
        | Error e -> Alcotest.failf "unparseable response %S: %s" l e)
      lines
  in
  let by_id id =
    match
      List.find_opt (fun j -> Json.member "id" j = Some (Json.Str id)) parsed
    with
    | Some j -> j
    | None -> Alcotest.failf "no response for %S in:\n%s" id out
  in
  let str_field name j =
    match Json.member name j with
    | Some (Json.Str s) -> s
    | _ -> Alcotest.failf "missing %S" name
  in
  (* every job answered exactly once *)
  List.iter
    (fun id -> Alcotest.(check string) (id ^ " ok") "ok" (str_field "status" (by_id id)))
    [ "warm"; "p1"; "p2"; "p3" ];
  Alcotest.(check string) "unknown app errors" "error"
    (str_field "status" (by_id "bad"));
  (* the garbage line got an error response, not a crash *)
  Alcotest.(check bool) "parse error answered" true
    (List.exists
       (fun j ->
         Json.member "status" j = Some (Json.Str "error")
         && Json.member "id" j = Some (Json.Str ""))
       parsed);
  (* identical requests coalesced: one miss, two batched followers with
     bit-identical payloads *)
  let labels = List.map (fun id -> str_field "cache" (by_id id)) [ "p1"; "p2"; "p3" ] in
  Alcotest.(check int) "one miss" 1
    (List.length (List.filter (( = ) "miss") labels));
  Alcotest.(check int) "two coalesced" 2
    (List.length (List.filter (( = ) "coalesced") labels));
  let payload id =
    match by_id id with
    | Json.Obj fields ->
      Json.to_line
        (Json.Obj
           (List.filter
              (fun (k, _) ->
                not (List.mem k [ "id"; "cache"; "queued_s"; "service_s" ]))
              fields))
    | _ -> Alcotest.fail "response not an object"
  in
  Alcotest.(check string) "p2 = p1" (payload "p1") (payload "p2");
  Alcotest.(check string) "p3 = p1" (payload "p1") (payload "p3");
  (* the shutdown line carries the final metrics snapshot *)
  let final =
    match
      List.find_opt (fun j -> Json.member "op" j = Some (Json.Str "shutdown")) parsed
    with
    | Some j -> j
    | None -> Alcotest.failf "no shutdown ack:\n%s" out
  in
  (match Json.member "metrics" final with
  | Some m -> (
    match Option.bind (Json.member "coalesce" m) (Json.member "batched") with
    | Some (Json.Int n) -> Alcotest.(check int) "batched counter" 2 n
    | _ -> Alcotest.fail "metrics lack coalesce.batched")
  | None -> Alcotest.fail "shutdown ack lacks metrics");
  (* and a metrics snapshot was served mid-stream *)
  Alcotest.(check bool) "metrics op answered" true
    (List.exists
       (fun j -> Json.member "op" j = Some (Json.Str "metrics"))
       parsed)

(* tilec analyze: causal critical path on a fresh sim run, artifact
   roundtrip via --from, streaming mode, and the flag conflicts *)
let test_analyze () =
  let json = Filename.temp_file "tilec_analyze" ".json" in
  let svg = Filename.temp_file "tilec_analyze" ".svg" in
  check_ok
    (Printf.sprintf
       "analyze --app sor -M 12 -N 16 -x 3 -y 4 -z 4 --backend sim --out %s \
        --svg %s"
       (Filename.quote json) (Filename.quote svg))
    [ "causal critical path"; "coverage 100.0%"; "top laggards"; "flight" ];
  let slurp path =
    let ic = open_in path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let doc = slurp json and drawing = slurp svg in
  (* the exported trace carries flow events and the SVG marks the path *)
  List.iter
    (fun n ->
      if not (contains doc n) then Alcotest.failf "trace JSON lacks %S" n)
    [ {|"tiles-flow"|}; {|"ph": "s"|}; {|"ph": "f"|}; {|"seq"|} ];
  if not (contains drawing "critical path") then
    Alcotest.fail "SVG lacks the critical-path legend";
  (* re-analyzing the artifact reproduces the same headline *)
  check_ok
    (Printf.sprintf "analyze --from %s" (Filename.quote json))
    [ "causal critical path"; "coverage 100.0%" ];
  Sys.remove json;
  Sys.remove svg

let test_analyze_stream () =
  check_ok
    "analyze --app jacobi -t 8 -n 16 -x 3 -y 4 -z 4 --backend sim --stream"
    [ "longest waits"; "completion"; "mean busy" ]

let test_analyze_json () =
  let status, out =
    run "analyze --app sor -M 12 -N 16 -x 3 -y 4 -z 4 --json"
  in
  if status <> Unix.WEXITED 0 then
    Alcotest.failf "analyze --json failed:\n%s" out;
  List.iter
    (fun n ->
      if not (contains out n) then
        Alcotest.failf "analyze --json: %S not in output:\n%s" n out)
    [
      {|"path_length_s"|}; {|"coverage"|}; {|"kind_seconds"|};
      {|"slack_s"|}; {|"segments"|}; {|"laggards"|};
    ]

let test_analyze_usage_errors () =
  (* neither --app nor --from; and --stream excludes the span consumers *)
  check_exit "analyze" 1;
  check_exit "analyze --app sor --stream --svg /tmp/x.svg" 1;
  check_exit "analyze --from /nonexistent/trace.json" 1

let test_tune () =
  check_ok
    "tune --app adi -t 10 -n 12 --procs 4 --factors 2,3 --top 3 --workers 2"
    [ "tune adi"; "measured ms"; "best:"; "plan for adi" ]

let test_tune_json () =
  let status, out =
    run "tune --app adi -t 10 -n 12 --procs 4 --factors 2,3 --top 2 --json"
  in
  if status <> Unix.WEXITED 0 then Alcotest.failf "tune --json failed:\n%s" out;
  List.iter
    (fun n ->
      if not (contains out n) then
        Alcotest.failf "tune --json: %S not in output:\n%s" n out)
    [
      {|"best"|}; {|"simulated"|}; {|"pruned"|}; {|"generated"|};
      {|"label"|}; {|"completion_s"|}; {|"predicted"|};
    ]

(* The option names each subcommand accepts, as [--help=plain] lists
   them. Flags are shared across subcommands through common terms, so a
   change to one of those terms must not silently add or drop a flag on
   any subcommand: e.g. [simulate] has no [--backend] and [tune] no
   [--variant]. *)
let cli_surface =
  let spec = [ "--app"; "-n"; "-N"; "-t"; "-M" ] in
  let tiling = [ "--variant"; "-x"; "-y"; "-z" ] in
  let std = [ "--help"; "--version" ] in
  [
    ("plan", spec @ tiling @ std);
    ("cone", spec @ std);
    ("emit-mpi", spec @ tiling @ [ "-o"; "--output" ] @ std);
    ("emit-seq", spec @ tiling @ [ "-o"; "--output" ] @ std);
    ("emit-pseq", [ "--app"; "-o"; "--output" ] @ tiling @ std);
    ( "simulate",
      spec @ tiling
      @ [ "--check-reads"; "--full"; "--net"; "--overlap"; "--trace";
          "--utilisation"; "--walker" ]
      @ std );
    ( "trace",
      spec @ tiling
      @ [ "--backend"; "--check-reads"; "--net"; "--out"; "--overlap";
          "--svg"; "--walker" ]
      @ std );
    ( "analyze",
      spec @ tiling
      @ [ "--backend"; "--from"; "--json"; "--net"; "--out"; "--overlap";
          "--stream"; "--svg"; "--top" ]
      @ std );
    ( "tune",
      spec
      @ [ "--backend"; "--cache"; "--factors"; "--json"; "-m"; "--net";
          "--overlap"; "--procs"; "--top"; "--workers" ]
      @ std );
    ( "perf",
      spec @ tiling
      @ [ "--backend"; "--check"; "--counters-only"; "--dir"; "--inflate";
          "--json"; "--net"; "--overlap"; "--record"; "--repeats";
          "--walker"; "--warmup" ]
      @ std );
    ( "serve",
      [ "--cache-capacity"; "--capacity"; "--metrics-out"; "--net";
        "--socket"; "--tune-cache"; "--workers" ]
      @ std );
  ]

(* option names from one subcommand's plain help: option lines are
   indented exactly seven spaces ("       -n N, -N N (absent=32)"); doc
   text is indented further, so a wrapped "--from" in prose never counts *)
let help_options sub =
  let status, out = run (sub ^ " --help=plain") in
  if status <> Unix.WEXITED 0 then
    Alcotest.failf "tilec %s --help=plain failed:\n%s" sub out;
  let is_name_char c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' -> true
    | _ -> false
  in
  let name_of item =
    let n = String.length item in
    let rec stop i =
      if i < n && is_name_char item.[i] then stop (i + 1) else i
    in
    String.sub item 0 (stop 0)
  in
  String.split_on_char '\n' out
  |> List.filter (fun l ->
         String.length l > 8 && String.sub l 0 8 = "       -")
  |> List.concat_map (fun l ->
         Astring.String.cuts ~sep:", " (String.trim l)
         |> List.filter (fun item -> item <> "" && item.[0] = '-')
         |> List.map name_of)
  |> List.sort_uniq compare

let test_cli_surface () =
  List.iter
    (fun (sub, expected) ->
      Alcotest.(check (list string))
        (sub ^ " options")
        (List.sort_uniq compare expected)
        (help_options sub))
    cli_surface

let () =
  Alcotest.run "tilec_cli"
    [
      ( "cli",
        [
          Alcotest.test_case "plan" `Quick test_plan;
          Alcotest.test_case "cone" `Quick test_cone;
          Alcotest.test_case "simulate --full" `Quick test_simulate;
          Alcotest.test_case "emit-mpi" `Quick test_emit;
          Alcotest.test_case "bad app" `Quick test_bad_app;
          Alcotest.test_case "singular tiling error" `Quick test_singular_tiling;
          Alcotest.test_case "illegal tiling error" `Quick test_illegal_tiling;
          Alcotest.test_case "trace both backends" `Quick test_trace;
          Alcotest.test_case "simulate --trace" `Quick test_simulate_trace_out;
          Alcotest.test_case "simulate --utilisation" `Quick
            test_simulate_utilisation;
          Alcotest.test_case "trace bad backend" `Quick test_trace_bad_backend;
          Alcotest.test_case "trace overlap shm" `Quick test_trace_overlap_shm;
          Alcotest.test_case "perf inflate+shm usage error" `Quick
            test_perf_inflate_shm_usage_error;
          Alcotest.test_case "perf record/check" `Quick test_perf_record_check;
          Alcotest.test_case "analyze roundtrip" `Quick test_analyze;
          Alcotest.test_case "analyze --stream" `Quick test_analyze_stream;
          Alcotest.test_case "analyze --json" `Quick test_analyze_json;
          Alcotest.test_case "analyze usage errors" `Quick
            test_analyze_usage_errors;
          Alcotest.test_case "tune" `Quick test_tune;
          Alcotest.test_case "tune --json" `Quick test_tune_json;
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
          Alcotest.test_case "regression exit 2" `Quick
            test_exit_code_regression;
          Alcotest.test_case "serve pipe e2e" `Quick test_serve_pipe;
          Alcotest.test_case "option surface" `Quick test_cli_surface;
        ] );
    ]
