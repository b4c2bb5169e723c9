module Json = Tiles_util.Json

let version = "1.4"

type t = {
  app : string;
  variant : string;
  size1 : int;
  size2 : int;
  tile : int * int * int;
  nprocs : int;
  backend : string;
  overlap : bool;
  netmodel : string;
  walker : string;
  walker_fallback : string option;
  job_id : string option;
  queued_s : float;
}

let make ~app ~variant ~size1 ~size2 ~tile ~nprocs ~backend ?(overlap = false)
    ~netmodel ?(walker = "fast") ?walker_fallback ?job_id ?(queued_s = 0.)
    () =
  {
    app; variant; size1; size2; tile; nprocs; backend; overlap; netmodel;
    walker; walker_fallback; job_id; queued_s;
  }

let to_json t =
  let x, y, z = t.tile in
  Json.Obj
    ([
       ("tilec_version", Json.Str version);
       ("app", Json.Str t.app);
       ("variant", Json.Str t.variant);
       ("size1", Json.Int t.size1);
       ("size2", Json.Int t.size2);
       ("tile", Json.List [ Json.Int x; Json.Int y; Json.Int z ]);
       ("nprocs", Json.Int t.nprocs);
       ("backend", Json.Str t.backend);
       ("overlap", Json.Bool t.overlap);
       ("netmodel", Json.Str t.netmodel);
     ]
    (* job attribution is only meaningful for runs owned by a serve
       daemon; standalone artifacts stay byte-identical to the previous
       schema by omitting the fields at their defaults *)
    (* the walker only appears when it differs from the default fast
       path, so artifacts from walker-unaware producers stay identical *)
    @ (if t.walker <> "fast" then [ ("walker", Json.Str t.walker) ] else [])
    @ (match t.walker_fallback with
      | Some reason -> [ ("walker_fallback", Json.Str reason) ]
      | None -> [])
    @ (match t.job_id with
      | Some id -> [ ("job_id", Json.Str id) ]
      | None -> [])
    @ (if t.queued_s <> 0. then [ ("queued_s", Json.Float t.queued_s) ]
       else []))

let of_json j =
  let ( let* ) = Result.bind in
  let str key =
    match Option.bind (Json.member key j) Json.to_str_opt with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "run metadata: missing string %S" key)
  in
  let int key =
    match Option.bind (Json.member key j) Json.to_int_opt with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "run metadata: missing int %S" key)
  in
  let* app = str "app" in
  let* variant = str "variant" in
  let* size1 = int "size1" in
  let* size2 = int "size2" in
  let* tile =
    match Json.member "tile" j with
    | Some (Json.List [ Json.Int x; Json.Int y; Json.Int z ]) -> Ok (x, y, z)
    | _ -> Error "run metadata: missing [x, y, z] \"tile\""
  in
  let* nprocs = int "nprocs" in
  let* backend = str "backend" in
  (* absent in files written before the overlap flag existed: those runs
     were all blocking *)
  let overlap =
    match Json.member "overlap" j with Some (Json.Bool b) -> b | _ -> false
  in
  let* netmodel = str "netmodel" in
  (* absent before schema 1.3: all earlier runs used the fast walker and
     never fell back *)
  let walker =
    match Option.bind (Json.member "walker" j) Json.to_str_opt with
    | Some w -> w
    | None -> "fast"
  in
  let walker_fallback =
    Option.bind (Json.member "walker_fallback" j) Json.to_str_opt
  in
  (* like [overlap]: files written before the serve daemon existed carry
     no job attribution — absent defaults to None / 0. *)
  let job_id = Option.bind (Json.member "job_id" j) Json.to_str_opt in
  let queued_s =
    match Option.bind (Json.member "queued_s" j) Json.to_float_opt with
    | Some q -> q
    | None -> 0.
  in
  Ok
    {
      app; variant; size1; size2; tile; nprocs; backend; overlap; netmodel;
      walker; walker_fallback; job_id; queued_s;
    }
