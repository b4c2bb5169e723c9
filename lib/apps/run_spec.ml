module Json = Tiles_util.Json
module Walker = Tiles_runtime.Walker
module Executor = Tiles_runtime.Executor
module Shm_executor = Tiles_runtime.Shm_executor
module Netmodel = Tiles_mpisim.Netmodel
module Sim = Tiles_mpisim.Sim
module Recorder = Tiles_obs.Recorder

type backend = Sim | Shm

let backend_to_string = function Sim -> "sim" | Shm -> "shm"

type t = {
  app : string;
  variant : string;
  size1 : int;
  size2 : int;
  tile : int * int * int;
  backend : backend;
  overlap : bool;
  net : Netmodel.t;
  walker : Walker.variant;
}

let default app =
  {
    app;
    variant = "nonrect";
    size1 = 24;
    size2 = 32;
    tile = (6, 8, 8);
    backend = Sim;
    overlap = false;
    net = Netmodel.fast_ethernet_cluster;
    walker = Walker.Fastpath;
  }

let error_message = function
  | Invalid_argument m | Failure m | Sys_error m -> m
  | Division_by_zero -> "singular tiling (zero tile factor)"
  | e -> Printexc.to_string e

(* an illegal or singular tiling surfaces here, as a structured rejection
   rather than a worker-side crash *)
let resolve t =
  match
    Registry.resolve ~app:t.app ~size1:t.size1 ~size2:t.size2
      ~variant:t.variant ~tile:t.tile
  with
  | r -> r
  | exception ((Invalid_argument _ | Failure _ | Division_by_zero) as e) ->
    Error (error_message e)

let netmodel t =
  match t.backend with Sim -> Netmodel.model_id t.net | Shm -> "-"

let runmeta ?walker_fallback ?job_id ?queued_s ~nprocs t =
  Tiles_obs.Runmeta.make ~app:t.app ~variant:t.variant ~size1:t.size1
    ~size2:t.size2 ~tile:t.tile ~nprocs ~backend:(backend_to_string t.backend)
    ~overlap:t.overlap ~netmodel:(netmodel t)
    ~walker:(Walker.variant_to_string t.walker) ?walker_fallback ?job_id
    ?queued_s ()

let of_json j =
  let ( let* ) = Result.bind in
  let d = default "" in
  let field key ~default decode =
    match Json.member key j with None -> Ok default | Some v -> decode v
  in
  let str key = Option.bind (Json.member key j) Json.to_str_opt in
  let must key what = Error (Printf.sprintf "field %S must be %s" key what) in
  let int key ~default =
    field key ~default (fun v ->
        match Json.to_int_opt v with
        | Some i -> Ok i
        | None -> must key "an integer")
  in
  let* app =
    Option.to_result (str "app") ~none:"missing string field \"app\""
  in
  let* size1 = int "size1" ~default:d.size1 in
  let* size2 = int "size2" ~default:d.size2 in
  let variant = Option.value (str "variant") ~default:d.variant in
  let* tile =
    field "tile" ~default:d.tile (function
      | Json.List [ Json.Int x; Json.Int y; Json.Int z ] -> Ok (x, y, z)
      | _ -> must "tile" "[x, y, z]")
  in
  let* backend =
    match Option.value (str "backend") ~default:"sim" with
    | "sim" -> Ok Sim
    | "shm" -> Ok Shm
    | other -> Error (Printf.sprintf "unknown backend %S (sim | shm)" other)
  in
  let* overlap =
    field "overlap" ~default:d.overlap (function
      | Json.Bool b -> Ok b
      | _ -> must "overlap" "a boolean")
  in
  let* walker =
    field "walker" ~default:d.walker (function
      | Json.Str s ->
        Option.to_result (Walker.variant_of_string s)
          ~none:
            (Printf.sprintf "unknown walker %S (reference | fast | native)" s)
      | _ -> must "walker" "a string")
  in
  Ok { d with app; size1; size2; variant; tile; backend; overlap; walker }

let to_json_fields t =
  let x, y, z = t.tile in
  [
    ("app", Json.Str t.app);
    ("size1", Json.Int t.size1);
    ("size2", Json.Int t.size2);
    ("variant", Json.Str t.variant);
    ("tile", Json.List [ Json.Int x; Json.Int y; Json.Int z ]);
    ("backend", Json.Str (backend_to_string t.backend));
    ("overlap", Json.Bool t.overlap);
    ("walker", Json.Str (Walker.variant_to_string t.walker));
  ]

type mode = Executor.mode = Full | Timing

type keep = Recorder.keep = Counters | Totals | Timeline

type result = {
  stats : Tiles_obs.Stats.t Lazy.t;
  spans : Tiles_obs.Span.t list;
  edges : Recorder.edge list;
  longest_waits : Tiles_obs.Span.t list;
  completion : float;
  speedup : float;
  messages : int;
  bytes : int;
  points : int;
  tiles : int;
  max_abs_err : float option;
  walker_fallback : string option;
}

(* a finished run's spans, edges, longest waits and lazy Stats, all read
   off its recorder; the causal critical path is walked only when the
   stats are asked for, and only over retained spans and edges *)
let timeline ~completion rc =
  let spans = Recorder.spans rc and edges = Recorder.edges rc in
  let stats =
    lazy
      (let critical_path =
         if edges = [] || spans = [] then None
         else
           Some
             (Tiles_obs.Critpath.analyze ~completion
                ~nprocs:(Recorder.nprocs rc) ~edges spans)
               .Tiles_obs.Critpath.path_length
       in
       Tiles_obs.Stats.of_recorder ~completion ?critical_path rc)
  in
  (stats, spans, edges, Recorder.longest_waits rc)

let run ?(mode = Full) ?check ?(keep = Counters) t ~plan ~kernel =
  (* the simulator stamps virtual time on every span itself *)
  let clock = match t.backend with Sim -> Some (fun () -> 0.) | Shm -> None in
  let rc =
    Recorder.create ~keep ?clock ~nprocs:(Tiles_core.Plan.nprocs plan) ()
  in
  match t.backend with
  | Sim ->
    let r =
      Executor.run ~walker:t.walker ?check ~mode ~overlap:t.overlap
        ~recorder:rc ~plan ~kernel ~net:t.net ()
    in
    let st = r.Executor.stats in
    let space = plan.Tiles_core.Plan.nest.Tiles_loop.Nest.space in
    let max_abs_err =
      Option.map
        (Tiles_runtime.Seq_exec.max_abs_err ~space ~kernel)
        r.Executor.grid
    in
    let stats, spans, edges, longest_waits =
      timeline ~completion:st.Sim.completion rc
    in
    {
      stats;
      spans;
      edges;
      longest_waits;
      completion = st.Sim.completion;
      speedup = r.Executor.speedup;
      messages = st.Sim.messages;
      bytes = st.Sim.bytes;
      points = r.Executor.points_computed;
      tiles = r.Executor.tiles_executed;
      max_abs_err;
      walker_fallback = r.Executor.walker_fallback;
    }
  | Shm ->
    let r =
      Shm_executor.run ~walker:t.walker ?check ~recorder:rc ~overlap:t.overlap
        ~plan ~kernel ()
    in
    (* the latest rank finish, on the recorder's own clock *)
    let completion = r.Shm_executor.wall_seconds in
    let stats, spans, edges, longest_waits = timeline ~completion rc in
    {
      stats;
      spans;
      edges;
      longest_waits;
      completion;
      speedup = r.Shm_executor.wall_speedup;
      messages = r.Shm_executor.messages;
      bytes = r.Shm_executor.bytes;
      points = r.Shm_executor.points_computed;
      tiles = r.Shm_executor.tiles_executed;
      max_abs_err = Some r.Shm_executor.max_abs_err;
      walker_fallback = r.Shm_executor.walker_fallback;
    }
