(* The [serve] workload: tenant traffic, as JSON lines, to an in-process
   compile service.

   The loop is closed with two requests outstanding: tenants wait for a
   reply before they send again. Most requests are [plan] jobs whose
   configurations repeat with a skewed popularity, so admission,
   coalescing and the plan cache do the work and planning is mostly a
   cache hit; [simulate], [execute] (sim and shm backends) and small
   [tune] jobs over all three apps ride along.

   The server runs without a pool ([workers = 0]) and the loop steps it
   on the calling domain. With the default pool of one worker domain,
   every job ran about twice as slowly as stepped here, and ten runs of
   the same code spread over 2x in throughput, following the host's load
   rather than the code; probably because each minor collection of the
   worker is a stop-the-world rendezvous with the client's blocked
   domain. *)

open Common
module Server = Tiles_serve.Server
module Json = Tiles_util.Json
module Plan = Tiles_core.Plan
module Schedule = Tiles_core.Schedule

type request = {
  kind : string;  (* the job's op *)
  fields : (string * Json.t) list;  (* everything but the id *)
  expect : (string * int) list;  (* reply fields and their true values *)
}

type state = {
  seed : int;
  server : Server.t;
  template : request list;  (* one deck, unshuffled *)
  mutable counters : (string * float) list;  (* after the last window *)
}

let job ?(tile = (6, 8, 8)) ?(extra = []) op name ~size1 ~size2 ~variant =
  let x, y, z = tile in
  ( op,
    [
      ("op", Json.Str op); ("app", Json.Str name); ("size1", Json.Int size1);
      ("size2", Json.Int size2); ("variant", Json.Str variant);
      ("tile", Json.List [ Json.Int x; Json.Int y; Json.Int z ]);
    ]
    @ extra )

(* the tiling variant the [i]th size of a pool is requested with *)
let variant name i =
  match name with
  | "adi" -> List.nth [ "nr1"; "nr2"; "nr3"; "rect" ] (i mod 4)
  | _ -> if i mod 2 = 0 then "nonrect" else "rect"

(* every app at every size of a pool, in pool order *)
let pool ?extra op sizes =
  List.concat
    (List.mapi
       (fun i (size1, size2) ->
         List.map
           (fun name -> job op name ~size1 ~size2 ~variant:(variant name i) ?extra)
           [ "sor"; "jacobi"; "adi" ])
       sizes)

(* how often each configuration of a pool is requested per deck, in
   pool order: a skewed popularity, most traffic on a few configurations.
   The plan pool's sizes are alike, so a cache hit costs about the same
   whichever configuration it names. *)
let plan_quota =
  [ 64; 40; 32; 24; 16; 16; 16; 16; 8; 8; 8; 8; 8; 8; 8; 8; 8; 8; 8; 8 ]
let simulate_quota = [ 4; 4; 2; 2; 2; 2 ]

let with_quota quota pool =
  List.concat (List.map2 (fun n r -> List.init n (fun _ -> r)) quota pool)

let requests () =
  let plan_pool =
    pool "plan"
      [ (24, 32); (24, 40); (32, 32); (28, 36); (32, 40); (20, 48); (36, 32) ]
    |> List.filteri (fun i _ -> i < List.length plan_quota)
  in
  let simulate_pool = pool "simulate" [ (16, 24); (24, 32) ] in
  let execute_sim =
    pool ~extra:[ ("backend", Json.Str "sim") ] "execute" [ (24, 32); (32, 48) ]
  in
  (* two ranks each, so the shm run never needs more domains than cores *)
  let execute_shm =
    List.map
      (fun (name, variant, tile) ->
        job "execute" name ~size1:16 ~size2:64 ~variant ~tile
          ~extra:[ ("backend", Json.Str "shm") ])
      [
        ("sor", "nonrect", (16, 64, 64));
        ("jacobi", "nonrect", (16, 64, 128));
        ("adi", "nr3", (8, 32, 64));
      ]
  in
  let tune name ~size1 ~size2 ~variant ~procs ~factors =
    job "tune" name ~size1 ~size2 ~variant
      ~extra:
        [
          ("procs", Json.Int procs);
          ("factors", Json.List (List.map (fun f -> Json.Int f) factors));
        ]
  in
  let tunes =
    [
      tune "sor" ~size1:10 ~size2:12 ~variant:"nonrect" ~procs:4
        ~factors:[ 2; 3 ];
      tune "adi" ~size1:10 ~size2:12 ~variant:"nr1" ~procs:4 ~factors:[ 2; 3 ];
      tune "jacobi" ~size1:4 ~size2:7 ~variant:"nonrect" ~procs:2
        ~factors:[ 2 ];
    ]
  in
  with_quota plan_quota plan_pool
  @ with_quota simulate_quota simulate_pool
  @ List.concat (List.init 5 (fun _ -> execute_sim))
  @ execute_shm @ tunes

let int_field k fields =
  match List.assoc_opt k fields with Some (Json.Int v) -> v | _ -> 0

(* what a reply must carry, computed here once per configuration from
   the benchmark's own plan: a plan job's ranks, schedule steps and tile
   size; a simulate job's ranks and analytic traffic; an execute job's
   ranks and iteration points *)
let expectation kind fields =
  let str k = match List.assoc_opt k fields with Some (Json.Str s) -> s | _ -> "" in
  let a = app (str "app") ~size1:(int_field "size1" fields) ~size2:(int_field "size2" fields) in
  let tile =
    match List.assoc_opt "tile" fields with
    | Some (Json.List [ Json.Int x; Json.Int y; Json.Int z ]) -> (x, y, z)
    | _ -> invalid_arg "tile"
  in
  let plan () =
    Span.with_ "plan" (fun () -> Plan.make ~m:a.m a.nest (tiling a ~variant:(str "variant") tile))
  in
  match kind with
  | "plan" ->
    let p = plan () in
    [
      ("nprocs", Plan.nprocs p);
      ("steps", Schedule.steps p);
      ("last_step", Schedule.last_point_step p);
      ("tile_size", Tiling.tile_size p.Plan.tiling);
    ]
  | "simulate" ->
    let p = plan () in
    let messages, cells = Plan.comm_stats p in
    [
      ("nprocs", Plan.nprocs p);
      ("messages", messages);
      ("bytes", cells * 8 * a.kernel.Kernel.width);
    ]
  | "execute" ->
    let p = plan () in
    [ ("nprocs", Plan.nprocs p); ("points", Plan.total_iterations p) ]
  | _ -> []

let setup ~seed =
  let known = Hashtbl.create 32 in
  let template =
    List.map
      (fun (kind, fields) ->
        let expect =
          match Hashtbl.find_opt known (kind, fields) with
          | Some e -> e
          | None ->
            let e = expectation kind fields in
            Hashtbl.add known (kind, fields) e;
            e
        in
        { kind; fields; expect })
      (requests ())
  in
  let config = { Server.default_config with Server.workers = 0 } in
  { seed; server = Server.create ~config (); template; counters = [] }

let teardown st = Server.shutdown st.server

let num path j =
  match
    List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path
  with
  | Some v -> Option.value ~default:0. (Json.to_float_opt v)
  | None -> 0.

let check req j =
  let status = Option.bind (Json.member "status" j) Json.to_str_opt in
  let ok =
    status = Some "ok"
    && List.for_all
         (fun (k, v) -> Option.bind (Json.member k j) Json.to_int_opt = Some v)
         req.expect
    &&
    match req.kind with
    | "execute" -> Json.member "max_abs_err" j = Some (Json.Float 0.)
    | "tune" -> Json.member "best" j <> None
    | _ -> true
  in
  if not ok then warn "serve %s failed: %s" req.kind (Json.to_line j);
  ok

(* the op's spans, rebuilt from the reply: the server reports how long
   the job queued and how long it ran, which ends when it replied *)
let record_spans ~id ~req ~t0 ~t1 ~t_recv j =
  let root = Span.add ~name:"op" ~op:id ~parent:(-1) ~t0 ~t1:t_recv () in
  ignore (Span.add ~name:"serve.submit" ~op:id ~parent:root ~t0 ~t1 ());
  let service = num [ "service_s" ] j and queued = num [ "queued_s" ] j in
  let clip a = Float.min t_recv (Float.max t1 a) in
  let s0 = clip (t_recv -. service) in
  let q0 = clip (s0 -. queued) in
  ignore (Span.add ~name:"serve.queued" ~op:id ~parent:root ~t0:q0 ~t1:s0 ());
  ignore
    (Span.add ~name:("serve." ^ req.kind) ~op:id ~parent:root ~t0:s0 ~t1:t_recv ())

let window st ~seconds =
  let inbox = Queue.create () in
  let respond j = Queue.push (Span.now (), j) inbox in
  let inflight = Hashtbl.create 4 in
  let t_start = Span.now () in
  let round = ref 0 and queued = ref [] in
  let rec next () =
    match !queued with
    | r :: rest ->
      queued := rest;
      Some r
    | [] ->
      if !round > 0 && Span.now () -. t_start >= seconds then None
      else begin
        queued := shuffle (rng st.seed (300 + !round)) st.template;
        incr round;
        next ()
      end
  in
  let send req =
    let id = !op_counter in
    incr op_counter;
    let line =
      Json.to_line (Json.Obj (("id", Json.Str (string_of_int id)) :: req.fields))
    in
    let t0 = Span.now () in
    ignore (Server.handle_line st.server ~respond line);
    Hashtbl.replace inflight (string_of_int id) (id, req, t0, Span.now ())
  in
  let send_next () = Option.iter send (next ()) in
  send_next ();
  send_next ();
  let ops = ref [] in
  while Hashtbl.length inflight > 0 do
    while Queue.is_empty inbox && Server.step st.server do
      ()
    done;
    let t_recv, j = Queue.pop inbox in
    let key = Option.value ~default:"" (Option.bind (Json.member "id" j) Json.to_str_opt) in
    match Hashtbl.find_opt inflight key with
    | None -> warn "serve: reply to an unknown request: %s" (Json.to_line j)
    | Some (id, req, t0, t1) ->
      Hashtbl.remove inflight key;
      let t_recv = Float.max t_recv t1 in
      send_next ();
      if !Span.enabled then record_spans ~id ~req ~t0 ~t1 ~t_recv j;
      let ok = Span.with_ ~op:id "verify" (fun () -> check req j) in
      ops :=
        {
          kind = req.kind;
          wall = t_recv -. t0;
          ok;
          points = int_of_float (num [ "points" ] j);
        }
        :: !ops
  done;
  let elapsed = Span.now () -. t_start in
  let m = Server.metrics_json st.server in
  let hits = num [ "plan_cache"; "hits" ] m
  and misses = num [ "plan_cache"; "misses" ] m
  and coalesced = num [ "coalesce"; "batched" ] m in
  st.counters <-
    [
      ("serve.compiles", num [ "plan_cache"; "compiles" ] m);
      ("serve.cache_hits", hits);
      ("serve.coalesced", coalesced);
      ( "serve.reuse_ratio",
        (hits +. coalesced) /. Float.max 1. (hits +. misses +. coalesced) );
      ("serve.rejected", num [ "queue"; "rejected_full" ] m);
    ];
  (List.rev !ops, elapsed)
