module Json = Tiles_util.Json
module Walker = Tiles_runtime.Walker
module Netmodel = Tiles_mpisim.Netmodel

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

let resolve t =
  Registry.resolve ~app:t.app ~size1:t.size1 ~size2:t.size2
    ~variant:t.variant ~tile:t.tile

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
