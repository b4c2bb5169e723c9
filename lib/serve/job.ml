module Json = Tiles_util.Json
module Run_spec = Tiles_apps.Run_spec

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
  spec : Run_spec.t;
  priority : float;
  procs : int;
  factors : int list;
}

let of_json j =
  let ( let* ) = Result.bind in
  let field key ~default decode =
    match Json.member key j with None -> Ok default | Some v -> decode v
  in
  let id =
    Option.value ~default:"" (Option.bind (Json.member "id" j) Json.to_str_opt)
  in
  let* op =
    match Option.bind (Json.member "op" j) Json.to_str_opt with
    | None -> Error "missing string field \"op\""
    | Some name ->
      Option.to_result (op_of_string name)
        ~none:
          (Printf.sprintf
             "unknown op %S (expected plan | simulate | execute | tune)" name)
  in
  let* spec = Run_spec.of_json j in
  let* () =
    if spec.Run_spec.backend = Run_spec.Shm && op <> Execute then
      Error
        (Printf.sprintf "backend \"shm\" only applies to op \"execute\" \
                         (got %S)" (op_to_string op))
    else Ok ()
  in
  let* priority =
    field "priority" ~default:10. (fun v ->
        match Json.to_float_opt v with
        | Some p when Float.is_finite p -> Ok p
        | _ -> Error "field \"priority\" must be a finite number")
  in
  let* procs =
    field "procs" ~default:4 (fun v ->
        Option.to_result (Json.to_int_opt v)
          ~none:"field \"procs\" must be an integer")
  in
  let* factors =
    field "factors" ~default:[ 2; 3; 4 ] (function
      | Json.List items ->
        let rec ints acc = function
          | [] -> Ok (List.rev acc)
          | Json.Int i :: rest -> ints (i :: acc) rest
          | _ -> Error "field \"factors\" must be a list of integers"
        in
        ints [] items
      | _ -> Error "field \"factors\" must be a list of integers")
  in
  (* a tune job's search parameters are checked here, before admission,
     like every other malformed field: an impossible search must never
     take a queue slot, compile a plan and fail inside a worker *)
  let* () =
    if op <> Tune then Ok ()
    else if procs < 1 then
      Error (Printf.sprintf "field \"procs\" must be >= 1 (got %d)" procs)
    else if factors = [] || List.exists (fun f -> f < 1) factors then
      Error "field \"factors\" must be a non-empty list of integers >= 1"
    else Ok ()
  in
  Ok { id; op; spec; priority; procs; factors }

let to_json t =
  Json.Obj
    ([ ("id", Json.Str t.id); ("op", Json.Str (op_to_string t.op)) ]
    @ Run_spec.to_json_fields t.spec
    @ [
        ("priority", Json.Float t.priority);
        ("procs", Json.Int t.procs);
        ("factors", Json.List (List.map (fun f -> Json.Int f) t.factors));
      ])
