module Json = Tiles_util.Json

let schema_version = 1

type counters = {
  messages : int;
  bytes : int;
  max_inflight_bytes : int;
}

type t = {
  schema : int;
  meta : Runmeta.t;
  counters : counters;
  timings : Stats.dist;
}

let make ~meta ~stats ~timings =
  {
    schema = schema_version;
    meta;
    counters =
      {
        messages = stats.Stats.messages;
        bytes = stats.Stats.bytes;
        max_inflight_bytes = stats.Stats.max_inflight_bytes;
      };
    timings;
  }

let to_json t =
  Json.Obj
    [
      ("schema_version", Json.Int t.schema);
      ("metadata", Runmeta.to_json t.meta);
      ( "counters",
        Json.Obj
          [
            ("messages", Json.Int t.counters.messages);
            ("bytes", Json.Int t.counters.bytes);
            ("max_inflight_bytes", Json.Int t.counters.max_inflight_bytes);
          ] );
      ("timings", Stats.dist_to_json t.timings);
    ]

let of_json j =
  let ( let* ) = Result.bind in
  let* schema =
    match Option.bind (Json.member "schema_version" j) Json.to_int_opt with
    | Some v -> Ok v
    | None -> Error "baseline: missing int \"schema_version\""
  in
  let* () =
    if schema > schema_version then
      Error
        (Printf.sprintf
           "baseline: schema version %d is newer than this tool's %d — \
            refresh the tool or re-record the baseline"
           schema schema_version)
    else Ok ()
  in
  let* meta =
    match Json.member "metadata" j with
    | Some m -> Runmeta.of_json m
    | None -> Error "baseline: missing \"metadata\""
  in
  let* counters =
    match Json.member "counters" j with
    | Some c ->
      let int key =
        match Option.bind (Json.member key c) Json.to_int_opt with
        | Some i -> Ok i
        | None -> Error (Printf.sprintf "baseline counters: missing %S" key)
      in
      let* messages = int "messages" in
      let* bytes = int "bytes" in
      let* max_inflight_bytes = int "max_inflight_bytes" in
      Ok { messages; bytes; max_inflight_bytes }
    | None -> Error "baseline: missing \"counters\""
  in
  let* timings =
    match Json.member "timings" j with
    | Some d -> Stats.dist_of_json d
    | None -> Error "baseline: missing \"timings\""
  in
  Ok { schema; meta; counters; timings }

let save t ~path =
  let oc = open_out path in
  output_string oc (Json.to_string (to_json t));
  output_char oc '\n';
  close_out oc

let load ~path =
  match
    let ic = open_in path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  with
  | exception Sys_error msg -> Error msg
  | s ->
    (match Json.parse s with
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
    | Ok j ->
      (match of_json j with
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok t -> Ok t))

(* a non-default network model lands in the file name, so contended
   baselines never collide with (or get compared against) the alpha-beta
   ones recorded before contention existed *)
let netmodel_suffix (meta : Runmeta.t) =
  match meta.Runmeta.netmodel with
  | "" | "-" | "fast_ethernet_cluster" -> ""
  | id ->
    let b = Buffer.create (String.length id + 1) in
    Buffer.add_char b '-';
    let last_dash = ref false in
    String.iter
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' ->
          Buffer.add_char b c;
          last_dash := false
        | _ ->
          if not !last_dash then Buffer.add_char b '-';
          last_dash := true)
      id;
    Buffer.contents b

let default_path ~dir ~(meta : Runmeta.t) =
  Filename.concat dir
    (Printf.sprintf "%s-%s-%s%s%s.json" meta.Runmeta.app meta.Runmeta.variant
       meta.Runmeta.backend
       (if meta.Runmeta.overlap then "-overlap" else "")
       (netmodel_suffix meta))

(* ---------------- comparison ---------------- *)

type delta = {
  field : string;
  base_mean : float;
  cur_mean : float;
  rel : float;
  noise : float;
}

type verdict = {
  meta_mismatch : string list;
  counter_mismatch : (string * int * int) list;
  regressions : delta list;
  improvements : delta list;
  checked : int;
  ok : bool;
}

let meta_diff (a : Runmeta.t) (b : Runmeta.t) =
  let d name get = if get a = get b then [] else [ name ] in
  List.concat
    [
      d "app" (fun m -> m.Runmeta.app);
      d "variant" (fun m -> m.Runmeta.variant);
      d "size1" (fun m -> string_of_int m.Runmeta.size1);
      d "size2" (fun m -> string_of_int m.Runmeta.size2);
      d "tile"
        (fun m ->
          let x, y, z = m.Runmeta.tile in
          Printf.sprintf "%d,%d,%d" x y z);
      d "nprocs" (fun m -> string_of_int m.Runmeta.nprocs);
      d "backend" (fun m -> m.Runmeta.backend);
      d "netmodel" (fun m -> m.Runmeta.netmodel);
    ]

let compare ?(rel_threshold = 0.05) ?(k_sigma = 3.)
    ?(exact = [ "messages"; "bytes"; "max_inflight_bytes" ]) ~baseline
    current =
  let meta_mismatch = meta_diff baseline.meta current.meta in
  let counter_mismatch =
    List.filter_map
      (fun (name, get) ->
        if List.mem name exact then
          let b = get baseline.counters and c = get current.counters in
          if b <> c then Some (name, b, c) else None
        else None)
      [
        ("messages", fun c -> c.messages);
        ("bytes", fun c -> c.bytes);
        ("max_inflight_bytes", fun c -> c.max_inflight_bytes);
      ]
  in
  let deltas =
    List.filter_map
      (fun (field, (b : Metric.summary)) ->
        match List.assoc_opt field current.timings with
        | None -> None
        | Some (c : Metric.summary) ->
          let noise = k_sigma *. Float.max b.Metric.stddev c.Metric.stddev in
          let rel =
            if b.Metric.mean <> 0. then
              (c.Metric.mean -. b.Metric.mean) /. b.Metric.mean
            else if c.Metric.mean = 0. then 0.
            else infinity
          in
          Some
            {
              field;
              base_mean = b.Metric.mean;
              cur_mean = c.Metric.mean;
              rel;
              noise;
            })
      baseline.timings
  in
  let significant d =
    Float.abs d.rel > rel_threshold
    && Float.abs (d.cur_mean -. d.base_mean) > d.noise
  in
  let regressions = List.filter (fun d -> d.rel > 0. && significant d) deltas in
  let improvements =
    List.filter (fun d -> d.rel < 0. && significant d) deltas
  in
  {
    meta_mismatch;
    counter_mismatch;
    regressions;
    improvements;
    checked = List.length deltas;
    ok = meta_mismatch = [] && counter_mismatch = [] && regressions = [];
  }

let report v =
  let buf = Buffer.create 256 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter (fun f -> pf "META MISMATCH  %s differs from the baseline\n" f)
    v.meta_mismatch;
  List.iter
    (fun (f, b, c) -> pf "COUNTER        %s: baseline %d, current %d\n" f b c)
    v.counter_mismatch;
  List.iter
    (fun d ->
      pf "REGRESSION     %s: %.6g -> %.6g (%+.1f%%, tolerance %.3g)\n" d.field
        d.base_mean d.cur_mean (100. *. d.rel) d.noise)
    v.regressions;
  List.iter
    (fun d ->
      pf "improvement    %s: %.6g -> %.6g (%+.1f%%)\n" d.field d.base_mean
        d.cur_mean (100. *. d.rel))
    v.improvements;
  pf "%s (%d timed field%s checked)\n"
    (if v.ok then "PASS" else "FAIL")
    v.checked
    (if v.checked = 1 then "" else "s");
  Buffer.contents buf

let delta_json d =
  Json.Obj
    [
      ("field", Json.Str d.field);
      ("baseline_mean", Json.Float d.base_mean);
      ("current_mean", Json.Float d.cur_mean);
      ("rel", Json.Float d.rel);
      ("noise_tolerance", Json.Float d.noise);
    ]

let verdict_to_json v =
  Json.Obj
    [
      ("ok", Json.Bool v.ok);
      ("checked", Json.Int v.checked);
      ("meta_mismatch", Json.List (List.map (fun f -> Json.Str f) v.meta_mismatch));
      ( "counter_mismatch",
        Json.List
          (List.map
             (fun (f, b, c) ->
               Json.Obj
                 [
                   ("field", Json.Str f);
                   ("baseline", Json.Int b);
                   ("current", Json.Int c);
                 ])
             v.counter_mismatch) );
      ("regressions", Json.List (List.map delta_json v.regressions));
      ("improvements", Json.List (List.map delta_json v.improvements));
    ]
