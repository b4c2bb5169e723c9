module Json = Tiles_util.Json

type rank = {
  rank : int;
  compute : float;
  pack : float;
  send : float;
  wait : float;
  unpack : float;
  busy : float;
  busy_fraction : float;
  messages : int;
  bytes : int;
}

type t = {
  nprocs : int;
  completion : float;
  ranks : rank array;
  messages : int;
  bytes : int;
  max_inflight_bytes : int;
  total_compute : float;
  total_comm : float;
  comm_compute_ratio : float;
  mean_busy_fraction : float;
  max_rank_busy : float;
      (* the old "critical path": max per-rank busy time, a causality-
         blind lower bound *)
  critical_path : float;
      (* the true causal critical path (Critpath over message edges);
         0 when no edges were available to compute it *)
  queue_seconds : float;
      (* total NIC/uplink queueing charged by a contended network model;
         0 under alpha-beta and on real (shm) runs *)
}

let of_recorder ~completion ?(critical_path = 0.) rc =
  let nprocs = Recorder.nprocs rc in
  let sums = Recorder.kind_seconds rc in
  let rank_messages = Recorder.rank_messages rc in
  let rank_bytes = Recorder.rank_bytes rc in
  let ranks =
    Array.init nprocs (fun r ->
        let compute = sums.(r).(0) and pack = sums.(r).(1) in
        let send = sums.(r).(2) and wait = sums.(r).(3) in
        let unpack = sums.(r).(4) in
        let busy = compute +. pack +. send +. unpack in
        {
          rank = r;
          compute;
          pack;
          send;
          wait;
          unpack;
          busy;
          busy_fraction = (if completion > 0. then busy /. completion else 0.);
          messages = rank_messages.(r);
          bytes = rank_bytes.(r);
        })
  in
  let total f = Array.fold_left (fun acc r -> acc +. f r) 0. ranks in
  let total_compute = total (fun r -> r.compute) in
  let total_comm = total (fun r -> r.pack +. r.send +. r.wait +. r.unpack) in
  {
    nprocs;
    completion;
    ranks;
    messages = Recorder.messages rc;
    bytes = Recorder.bytes rc;
    max_inflight_bytes = Recorder.max_inflight_bytes rc;
    total_compute;
    total_comm;
    comm_compute_ratio =
      (if total_compute > 0. then total_comm /. total_compute else 0.);
    mean_busy_fraction =
      total (fun r -> r.busy_fraction) /. float_of_int nprocs;
    max_rank_busy =
      Array.fold_left (fun acc r -> Float.max acc r.busy) 0. ranks;
    critical_path;
    queue_seconds = Recorder.queue_seconds rc;
  }

let rank_json r =
  Json.Obj
    [
      ("rank", Json.Int r.rank);
      ("compute_s", Json.Float r.compute);
      ("pack_s", Json.Float r.pack);
      ("send_s", Json.Float r.send);
      ("wait_s", Json.Float r.wait);
      ("unpack_s", Json.Float r.unpack);
      ("busy_s", Json.Float r.busy);
      ("busy_fraction", Json.Float r.busy_fraction);
      ("messages", Json.Int r.messages);
      ("bytes", Json.Int r.bytes);
    ]

let to_json t =
  Json.Obj
    ([
      ("nprocs", Json.Int t.nprocs);
      ("completion_s", Json.Float t.completion);
      ("messages", Json.Int t.messages);
      ("bytes", Json.Int t.bytes);
      ("max_inflight_bytes", Json.Int t.max_inflight_bytes);
      ("total_compute_s", Json.Float t.total_compute);
      ("total_comm_s", Json.Float t.total_comm);
      ("comm_compute_ratio", Json.Float t.comm_compute_ratio);
      ("mean_busy_fraction", Json.Float t.mean_busy_fraction);
      ("max_rank_busy_s", Json.Float t.max_rank_busy);
      ("critical_path_s", Json.Float t.critical_path);
    ]
    (* only written when a contended model charged queueing, so
       alpha-beta artifacts keep the pre-contention schema *)
    @ (if t.queue_seconds > 0. then
         [ ("nic_queue_s", Json.Float t.queue_seconds) ]
       else [])
    @ [ ("ranks", Json.List (Array.to_list (Array.map rank_json t.ranks))) ])

(* ---------------- distributions over repeated runs ---------------- *)

let timed_fields t =
  [
    ("completion_s", t.completion);
    ("total_compute_s", t.total_compute);
    ("total_comm_s", t.total_comm);
    ("comm_compute_ratio", t.comm_compute_ratio);
    ("mean_busy_fraction", t.mean_busy_fraction);
    ("max_rank_busy_s", t.max_rank_busy);
    ("critical_path_s", t.critical_path);
  ]
  (* a distribution key only when the model can produce it, so
     alpha-beta baselines keep their seven historical fields *)
  @ (if t.queue_seconds > 0. then [ ("nic_queue_s", t.queue_seconds) ]
     else [])

type dist = (string * Metric.summary) list

let distributions ?(warmup = 0) runs =
  if warmup < 0 then invalid_arg "Stats.distributions: warmup";
  let rec drop n = function
    | xs when n <= 0 -> xs
    | [] -> []
    | _ :: rest -> drop (n - 1) rest
  in
  let measured = drop warmup runs in
  if measured = [] then
    invalid_arg "Stats.distributions: warmup leaves no measured runs";
  let metrics =
    List.map (fun (k, _) -> (k, Metric.create ())) (timed_fields (List.hd measured))
  in
  List.iter
    (fun r ->
      List.iter
        (fun (k, v) -> Metric.add (List.assoc k metrics) v)
        (timed_fields r))
    measured;
  List.map (fun (k, m) -> (k, Metric.summarize m)) metrics

let dist_to_json d =
  Json.Obj (List.map (fun (k, s) -> (k, Metric.summary_to_json s)) d)

let dist_of_json = function
  | Json.Obj kvs ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | (k, j) :: rest ->
        (match Metric.summary_of_json j with
        | Ok s -> go ((k, s) :: acc) rest
        | Error e -> Error (Printf.sprintf "field %S: %s" k e))
    in
    go [] kvs
  | _ -> Error "distributions: expected an object of metric summaries"

let summary ?dist t =
  let buf = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "completion %.6f s, %d messages, %d bytes, max in-flight %d bytes\n"
    t.completion t.messages t.bytes t.max_inflight_bytes;
  pf "comm/compute ratio %.3f, mean busy %.0f%%, max rank busy %.6f s"
    t.comm_compute_ratio
    (100. *. t.mean_busy_fraction)
    t.max_rank_busy;
  if t.critical_path > 0. then
    pf ", causal critical path %.6f s\n" t.critical_path
  else pf "\n";
  if t.queue_seconds > 0. then
    pf "nic/uplink queueing %.6f s total (%.1f%% of completion x ranks)\n"
      t.queue_seconds
      (if t.completion > 0. then
         100. *. t.queue_seconds
         /. (t.completion *. float_of_int t.nprocs)
       else 0.);
  (match dist with
  | None -> ()
  | Some d ->
    let n = match d with (_, s) :: _ -> s.Metric.count | [] -> 0 in
    pf "distributions over %d measured run%s:\n" n (if n = 1 then "" else "s");
    pf "  %-20s %12s %12s %12s %12s\n" "field" "mean" "stddev" "p50" "p99";
    List.iter
      (fun (k, (s : Metric.summary)) ->
        pf "  %-20s %12.6g %12.6g %12.6g %12.6g\n" k s.Metric.mean
          s.Metric.stddev s.Metric.p50 s.Metric.p99)
      d);
  Array.iter
    (fun r ->
      pf
        "  rank %-3d compute %8.3fms  pack %7.3fms  send %7.3fms  wait \
         %7.3fms  unpack %7.3fms  busy %3.0f%%  %d msgs\n"
        r.rank (1e3 *. r.compute) (1e3 *. r.pack) (1e3 *. r.send)
        (1e3 *. r.wait) (1e3 *. r.unpack)
        (100. *. r.busy_fraction)
        r.messages)
    t.ranks;
  Buffer.contents buf
