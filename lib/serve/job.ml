module Json = Tiles_util.Json
module Walker = Tiles_runtime.Walker

type op = Plan | Simulate | Execute | Tune

let op_to_string = function
  | Plan -> "plan"
  | Simulate -> "simulate"
  | Execute -> "execute"
  | Tune -> "tune"

let op_of_string = function
  | "plan" -> Some Plan
  | "simulate" -> Some Simulate
  | "execute" -> Some Execute
  | "tune" -> Some Tune
  | _ -> None

type t = {
  id : string;
  op : op;
  app : string;
  size1 : int;
  size2 : int;
  variant : string;
  tile : int * int * int;
  backend : string;
  overlap : bool;
  walker : Walker.variant;
  priority : float;
  procs : int;
  factors : int list;
}

let of_json j =
  let ( let* ) = Result.bind in
  let str ?default key =
    match Option.bind (Json.member key j) Json.to_str_opt with
    | Some s -> Ok s
    | None -> (
      match default with
      | Some d -> Ok d
      | None -> Error (Printf.sprintf "missing string field %S" key))
  in
  let int ~default key =
    match Json.member key j with
    | None -> Ok default
    | Some v -> (
      match Json.to_int_opt v with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "field %S must be an integer" key))
  in
  let* id = str ~default:"" "id" in
  let* opname = str "op" in
  let* op =
    match op_of_string opname with
    | Some op -> Ok op
    | None ->
      Error
        (Printf.sprintf
           "unknown op %S (expected plan | simulate | execute | tune)" opname)
  in
  let* app = str "app" in
  let* size1 = int ~default:24 "size1" in
  let* size2 = int ~default:32 "size2" in
  let* variant = str ~default:"nonrect" "variant" in
  let* tile =
    match Json.member "tile" j with
    | None -> Ok (6, 8, 8)
    | Some (Json.List [ Json.Int x; Json.Int y; Json.Int z ]) -> Ok (x, y, z)
    | Some _ -> Error "field \"tile\" must be [x, y, z]"
  in
  let* backend = str ~default:"sim" "backend" in
  let* () =
    match backend with
    | "sim" -> Ok ()
    | "shm" ->
      if op = Execute then Ok ()
      else
        Error
          (Printf.sprintf "backend \"shm\" only applies to op \"execute\" \
                           (got %S)" opname)
    | other -> Error (Printf.sprintf "unknown backend %S (sim | shm)" other)
  in
  let* overlap =
    match Json.member "overlap" j with
    | None -> Ok false
    | Some (Json.Bool b) -> Ok b
    | Some _ -> Error "field \"overlap\" must be a boolean"
  in
  let* walker =
    match Json.member "walker" j with
    | None -> Ok Walker.Fastpath
    | Some (Json.Str s) -> (
      match Walker.variant_of_string s with
      | Some w -> Ok w
      | None ->
        Error
          (Printf.sprintf
             "unknown walker %S (reference | fast | native)" s))
    | Some _ -> Error "field \"walker\" must be a string"
  in
  let* priority =
    match Json.member "priority" j with
    | None -> Ok 10.
    | Some v -> (
      match Json.to_float_opt v with
      | Some p when Float.is_finite p -> Ok p
      | _ -> Error "field \"priority\" must be a finite number")
  in
  let* procs = int ~default:4 "procs" in
  let* factors =
    match Json.member "factors" j with
    | None -> Ok [ 2; 3; 4 ]
    | Some (Json.List items) ->
      let rec ints acc = function
        | [] -> Ok (List.rev acc)
        | Json.Int i :: rest -> ints (i :: acc) rest
        | _ -> Error "field \"factors\" must be a list of integers"
      in
      ints [] items
    | Some _ -> Error "field \"factors\" must be a list of integers"
  in
  Ok
    {
      id; op; app; size1; size2; variant; tile; backend; overlap; walker;
      priority; procs; factors;
    }

let to_json t =
  let x, y, z = t.tile in
  Json.Obj
    [
      ("id", Json.Str t.id);
      ("op", Json.Str (op_to_string t.op));
      ("app", Json.Str t.app);
      ("size1", Json.Int t.size1);
      ("size2", Json.Int t.size2);
      ("variant", Json.Str t.variant);
      ("tile", Json.List [ Json.Int x; Json.Int y; Json.Int z ]);
      ("backend", Json.Str t.backend);
      ("overlap", Json.Bool t.overlap);
      ("walker", Json.Str (Walker.variant_to_string t.walker));
      ("priority", Json.Float t.priority);
      ("procs", Json.Int t.procs);
      ("factors", Json.List (List.map (fun f -> Json.Int f) t.factors));
    ]
