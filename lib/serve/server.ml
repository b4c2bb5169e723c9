module Json = Tiles_util.Json
module Clock = Tiles_obs.Clock
module Runmeta = Tiles_obs.Runmeta
module Recorder = Tiles_obs.Recorder
module Plan = Tiles_core.Plan
module Schedule = Tiles_core.Schedule
module Tiling = Tiles_core.Tiling
module Nest = Tiles_loop.Nest
module Executor = Tiles_runtime.Executor
module Shm_executor = Tiles_runtime.Shm_executor
module Seq_exec = Tiles_runtime.Seq_exec
module Grid = Tiles_runtime.Grid
module Walker = Tiles_runtime.Walker
module Sim = Tiles_mpisim.Sim
module Netmodel = Tiles_mpisim.Netmodel
module Tune = Tiles_tune.Tune
module TCache = Tiles_tune.Cache

type config = {
  capacity : int;
  workers : int;
  plan_cache_capacity : int;
  tune_cache_dir : string option;
  net : Netmodel.t;
}

let default_config =
  {
    capacity = 64;
    workers = max 1 (min 4 (Domain.recommended_domain_count () / 2));
    plan_cache_capacity = 128;
    tune_cache_dir = None;
    net = Netmodel.fast_ethernet_cluster;
  }

type follower = {
  f_id : string;
  f_submitted : float;
  f_respond : Json.t -> unit;
}

type ticket = {
  job : Job.t;
  resolved : Registry.resolved;
  ckey : string;  (* coalesce identity: op + configuration + parameters *)
  pkey : string;  (* plan-cache identity *)
  submitted : float;
  respond : Json.t -> unit;
  mutable followers : follower list;
}

type t = {
  config : config;
  queue : ticket Admission.t;
  cache : Plan_cache.t;
  metrics : Metrics.t;
  (* leaders currently queued or executing, by coalesce key *)
  inflight : (string, ticket) Hashtbl.t;
  lock : Mutex.t;  (* guards inflight, pending, coalesced, seq *)
  drained : Condition.t;
  (* real shm executions are serialized: each spawns one domain per
     rank, so running two at once would oversubscribe the cores being
     measured (the same discipline Tune applies to its shm backend) *)
  shm_gate : Mutex.t;
  mutable pending : int;  (* admitted but not yet completed *)
  mutable coalesced : int;
  mutable seq : int;
  mutable pool : Pool.t option;
  mutable stopped : bool;
}

let make_server ?(config = default_config) () =
  let t =
    {
      config;
      queue = Admission.create ~capacity:config.capacity;
      cache = Plan_cache.create ~capacity:config.plan_cache_capacity;
      metrics = Metrics.create ();
      inflight = Hashtbl.create 64;
      lock = Mutex.create ();
      drained = Condition.create ();
      shm_gate = Mutex.create ();
      pending = 0;
      coalesced = 0;
      seq = 0;
      pool = None;
      stopped = false;
    }
  in
  t

(* every [t.lock] critical section runs under [Fun.protect]: several of
   them call out to code that may raise (queue submission, hash-table
   growth), and an exception escaping with the server lock held would
   deadlock every subsequent submit/complete *)
let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ---------------- responses ---------------- *)

let error_json ~id msg =
  Json.Obj
    [ ("id", Json.Str id); ("status", Json.Str "error");
      ("error", Json.Str msg) ]

let rejected_json ~id (r : Admission.reject) =
  Json.Obj
    [
      ("id", Json.Str id);
      ("status", Json.Str "rejected");
      ("reason", Json.Str r.Admission.reason);
      ("capacity", Json.Int r.Admission.capacity);
      ("depth", Json.Int r.Admission.depth);
    ]

(* what a worker computes once per leader; responses to the leader and
   every follower share it bit-for-bit *)
type outcome = {
  payload : (string * Json.t) list;
  mk_meta : (job_id:string -> queued_s:float -> Json.t) option;
  cache_status : [ `Hit | `Miss ];
}

let ok_json ~(job : Job.t) ~id ~cache_label ~queued_s ~service_s outcome =
  Json.Obj
    ([
       ("id", Json.Str id);
       ("status", Json.Str "ok");
       ("op", Json.Str (Job.op_to_string job.Job.op));
       ("cache", Json.Str cache_label);
       ("queued_s", Json.Float queued_s);
       ("service_s", Json.Float service_s);
     ]
    @ outcome.payload
    @
    match outcome.mk_meta with
    | Some mk -> [ ("metadata", mk ~job_id:id ~queued_s) ]
    | None -> [])

(* ---------------- job execution ---------------- *)

let run_meta ~(job : Job.t) ~net ~nprocs ~job_id ~queued_s =
  Runmeta.to_json
    (Runmeta.make ~app:job.Job.app ~variant:job.Job.variant
       ~size1:job.Job.size1 ~size2:job.Job.size2 ~tile:job.Job.tile ~nprocs
       ~backend:job.Job.backend ~overlap:job.Job.overlap
       ~netmodel:
         (match job.Job.backend with
         | "sim" -> Netmodel.model_id net
         | _ -> "-")
       ~walker:(Walker.variant_to_string job.Job.walker)
       ?inner:job.Job.inner ~job_id ~queued_s ())

let sim_payload (r : Executor.result) =
  [
    ("completion_s", Json.Float r.Executor.stats.Sim.completion);
    ("speedup", Json.Float r.Executor.speedup);
    ("messages", Json.Int r.Executor.stats.Sim.messages);
    ("bytes", Json.Int r.Executor.stats.Sim.bytes);
    ("points", Json.Int r.Executor.points_computed);
    ("tiles", Json.Int r.Executor.tiles_executed);
  ]

let run_job t (ticket : ticket) : outcome =
  let job = ticket.job in
  let r = ticket.resolved in
  let plan, cache_status =
    Plan_cache.find_or_compile t.cache ~key:ticket.pkey (fun () ->
        Plan.make ~m:r.Registry.m r.Registry.nest r.Registry.tiling)
  in
  let nprocs = Plan.nprocs plan in
  let kernel = r.Registry.kernel in
  (* every execute/simulate run drives a streaming recorder labelled with
     the job id: O(nprocs) memory per job, and the job's longest waits
     land in the service-wide metrics reservoir attributed to it *)
  let streaming_recorder ~sim =
    if sim then
      Recorder.create ~mode:Recorder.Streaming ~trace:true
        ~clock:(fun () -> 0.)
        ~label:job.Job.id ~nprocs ()
    else
      Recorder.create ~mode:Recorder.Streaming ~trace:true ~label:job.Job.id
        ~nprocs ()
  in
  let fold_waits rc =
    Metrics.observe_waits t.metrics ~job_id:job.Job.id
      (Recorder.longest_waits rc)
  in
  match job.Job.op with
  | Job.Plan ->
    {
      payload =
        [
          ("nprocs", Json.Int nprocs);
          ("steps", Json.Int (Schedule.steps plan));
          ("last_step", Json.Int (Schedule.last_point_step plan));
          ("tile_size", Json.Int (Tiling.tile_size plan.Plan.tiling));
        ];
      mk_meta = None;
      cache_status;
    }
  | Job.Simulate ->
    let rc = streaming_recorder ~sim:true in
    let res =
      Executor.run ?inner:job.Job.inner ~mode:Executor.Timing
        ~overlap:job.Job.overlap ~recorder:rc ~plan ~kernel
        ~net:t.config.net ()
    in
    fold_waits rc;
    {
      payload = ("nprocs", Json.Int nprocs) :: sim_payload res;
      mk_meta = Some (run_meta ~job ~net:t.config.net ~nprocs);
      cache_status;
    }
  | Job.Execute when job.Job.backend = "shm" ->
    let rc = streaming_recorder ~sim:false in
    let res =
      Mutex.lock t.shm_gate;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.shm_gate)
        (fun () ->
          Shm_executor.run ?inner:job.Job.inner ~walker:job.Job.walker
            ~overlap:job.Job.overlap ~recorder:rc ~plan ~kernel ())
    in
    fold_waits rc;
    {
      payload =
        [
          ("nprocs", Json.Int nprocs);
          ("completion_s", Json.Float res.Shm_executor.wall_seconds);
          ("speedup", Json.Float res.Shm_executor.wall_speedup);
          ("messages", Json.Int res.Shm_executor.messages);
          ("bytes", Json.Int res.Shm_executor.bytes);
          ("points", Json.Int res.Shm_executor.points_computed);
          ("tiles", Json.Int res.Shm_executor.tiles_executed);
          ("max_abs_err", Json.Float res.Shm_executor.max_abs_err);
        ];
      mk_meta = Some (run_meta ~job ~net:t.config.net ~nprocs);
      cache_status;
    }
  | Job.Execute ->
    let rc = streaming_recorder ~sim:true in
    let res =
      Executor.run ?inner:job.Job.inner ~walker:job.Job.walker
        ~mode:Executor.Full ~overlap:job.Job.overlap ~recorder:rc ~plan
        ~kernel ~net:t.config.net ()
    in
    fold_waits rc;
    let err =
      match res.Executor.grid with
      | Some g ->
        let seq =
          Seq_exec.run ~space:r.Registry.nest.Nest.space ~kernel ()
        in
        Grid.max_abs_diff g seq r.Registry.nest.Nest.space
      | None -> infinity
    in
    {
      payload =
        ("nprocs", Json.Int nprocs)
        :: sim_payload res
        @ [ ("max_abs_err", Json.Float err) ];
      mk_meta = Some (run_meta ~job ~net:t.config.net ~nprocs);
      cache_status;
    }
  | Job.Tune ->
    let options =
      {
        Tune.default_options with
        Tune.procs = job.Job.procs;
        factors = job.Job.factors;
        top_k = 3;
        workers = 1;  (* the pool is the only source of parallelism *)
        cache_dir = t.config.tune_cache_dir;
        overlap = job.Job.overlap;
        inner =
          (match job.Job.inner with
          | Some b -> Tune.Inner_fixed (Some b)
          | None -> Tune.Inner_search);
        backend = Tune.Sim;
      }
    in
    let res =
      Tune.search ~options ~nest:r.Registry.nest ~kernel ~net:t.config.net ()
    in
    let best = res.Tune.best in
    let best_score =
      match best.Tune.score with
      | Some s ->
        [
          ("completion_s", Json.Float s.TCache.completion);
          ("speedup", Json.Float s.TCache.speedup);
        ]
      | None -> []
    in
    {
      payload =
        [
          ("generated", Json.Int res.Tune.generated);
          ("feasible", Json.Int res.Tune.feasible);
          ("tune_cache_hits", Json.Int res.Tune.cache_hits);
          ( "best",
            Json.Obj
              ([
                 ("label", Json.Str (Tiles_tune.Candidate.label best.Tune.cand));
                 ("nprocs", Json.Int best.Tune.nprocs);
                 ("tile_size", Json.Int best.Tune.tile_size);
               ]
              @ best_score) );
        ];
      mk_meta = None;
      cache_status;
    }

(* complete a leader: deliver to it and every follower, fold latencies *)
let complete t (ticket : ticket) ~started ~finished result =
  let followers =
    locked t (fun () ->
        Hashtbl.remove t.inflight ticket.ckey;
        ticket.followers)
  in
  let deliver ~id ~submitted ~cache_label respond =
    let queued_s = Float.max 0. (started -. submitted) in
    let service_s = finished -. started in
    (match result with
    | Ok outcome ->
      respond
        (ok_json ~job:ticket.job ~id ~cache_label ~queued_s ~service_s outcome);
      Metrics.observe t.metrics ~cls:(Job.op_to_string ticket.job.Job.op)
        ~queued_s ~service_s
    | Error msg ->
      respond (error_json ~id msg);
      Metrics.error t.metrics)
  in
  let leader_label =
    match result with
    | Ok { cache_status = `Hit; _ } -> "hit"
    | _ -> "miss"
  in
  deliver ~id:ticket.job.Job.id ~submitted:ticket.submitted
    ~cache_label:leader_label ticket.respond;
  List.iter
    (fun f ->
      deliver ~id:f.f_id ~submitted:f.f_submitted ~cache_label:"coalesced"
        f.f_respond)
    (List.rev followers);
  locked t (fun () ->
      t.pending <- t.pending - 1;
      if t.pending = 0 then Condition.broadcast t.drained)

let exec t (ticket : ticket) =
  let started = Clock.monotonic () in
  let result =
    match run_job t ticket with
    | outcome -> Ok outcome
    | exception e ->
      let msg =
        match e with
        | Invalid_argument m | Failure m | Sys_error m -> m
        | Shm_executor.Recv_timeout m | Shm_executor.Send_timeout m -> m
        | Tiles_runtime.Protocol.Slab_mismatch m ->
          Tiles_runtime.Protocol.slab_mismatch_to_string m
        | Division_by_zero -> "singular tiling (zero tile factor)"
        | e -> Printexc.to_string e
      in
      Error msg
  in
  let finished = Clock.monotonic () in
  complete t ticket ~started ~finished result

(* ---------------- submission ---------------- *)

let coalesce_key (job : Job.t) ~pkey =
  (* the plan key covers (nest, tiling, m, kernel, net, overlap,
     backend, walker); the operation and its parameters complete the
     identity of "the same request" *)
  match job.Job.op with
  | Job.Tune ->
    Printf.sprintf "%s|%s|procs=%d|factors=%s" (Job.op_to_string job.Job.op)
      pkey job.Job.procs
      (String.concat "," (List.map string_of_int job.Job.factors))
  | _ -> Printf.sprintf "%s|%s" (Job.op_to_string job.Job.op) pkey

let submit t ~respond (job : Job.t) =
  let now = Clock.monotonic () in
  let job =
    if job.Job.id <> "" then job
    else begin
      let id =
        locked t (fun () ->
            t.seq <- t.seq + 1;
            Printf.sprintf "job-%d" t.seq)
      in
      { job with Job.id }
    end
  in
  match
    Registry.resolve ~app:job.Job.app ~size1:job.Job.size1
      ~size2:job.Job.size2 ~variant:job.Job.variant ~tile:job.Job.tile
  with
  | Error msg ->
    respond (error_json ~id:job.Job.id msg);
    Metrics.error t.metrics
  | Ok resolved -> (
    let pkey =
      Plan_cache.key ~resolved ~net:t.config.net ~overlap:job.Job.overlap
        ~backend:job.Job.backend
        ~walker:(Walker.variant_to_string job.Job.walker)
        ~inner:job.Job.inner
    in
    let ckey = coalesce_key job ~pkey in
    let verdict =
      locked t (fun () ->
          match Hashtbl.find_opt t.inflight ckey with
          | Some leader ->
            leader.followers <-
              { f_id = job.Job.id; f_submitted = now; f_respond = respond }
              :: leader.followers;
            t.coalesced <- t.coalesced + 1;
            `Coalesced
          | None -> (
            let ticket =
              {
                job;
                resolved;
                ckey;
                pkey;
                submitted = now;
                respond;
                followers = [];
              }
            in
            (* admission under the server lock: the inflight entry and
               the queue slot must appear atomically, or a racing
               duplicate could miss the coalesce window *)
            match
              Admission.submit t.queue ~priority:job.Job.priority ticket
            with
            | Ok () ->
              Hashtbl.add t.inflight ckey ticket;
              t.pending <- t.pending + 1;
              `Admitted
            | Error reject -> `Rejected reject))
    in
    match verdict with
    | `Coalesced | `Admitted -> ()
    | `Rejected reject -> respond (rejected_json ~id:job.Job.id reject))

(* ---------------- pool / stepping ---------------- *)

let step t =
  match Admission.try_pop t.queue with
  | None -> false
  | Some ticket ->
    exec t ticket;
    true

let start_pool t =
  if t.config.workers > 0 then
    t.pool <-
      Some
        (Pool.start ~shards:t.config.workers
           ~pull:(fun () -> Admission.pop t.queue)
           ~exec:(fun ~shard ticket ->
             ignore shard;
             exec t ticket))

let create ?config () =
  let t = make_server ?config () in
  start_pool t;
  t

let drain t =
  locked t (fun () ->
      while t.pending > 0 do
        Condition.wait t.drained t.lock
      done)

let shutdown t =
  let already =
    locked t (fun () ->
        let already = t.stopped in
        t.stopped <- true;
        already)
  in
  if not already then begin
    Admission.close t.queue;
    match t.pool with
    | Some pool -> Pool.join pool
    | None -> while step t do () done
  end

(* ---------------- metrics ---------------- *)

let metrics_json t =
  let coalesced, in_flight =
    locked t (fun () -> (t.coalesced, Hashtbl.length t.inflight))
  in
  let pool_json =
    match t.pool with
    | Some pool -> Pool.stats_json (Pool.stats pool)
    | None ->
      Pool.stats_json { Pool.shards = 0; executed = []; busy = 0 }
  in
  Json.Obj
    [
      ("queue", Admission.stats_json (Admission.stats t.queue));
      ("plan_cache", Plan_cache.stats_json (Plan_cache.stats t.cache));
      ("pool", pool_json);
      ( "coalesce",
        Json.Obj
          [ ("batched", Json.Int coalesced); ("in_flight", Json.Int in_flight) ]
      );
      ("jobs", Metrics.snapshot_json t.metrics);
    ]

(* ---------------- protocol front-ends ---------------- *)

let handle_line t ~respond line =
  match Json.parse line with
  | Error e ->
    respond (error_json ~id:"" ("parse: " ^ e));
    `Handled
  | Ok doc -> (
    match Option.bind (Json.member "op" doc) Json.to_str_opt with
    | Some "metrics" ->
      let id =
        match Option.bind (Json.member "id" doc) Json.to_str_opt with
        | Some id -> id
        | None -> ""
      in
      respond
        (Json.Obj
           [
             ("id", Json.Str id);
             ("status", Json.Str "ok");
             ("op", Json.Str "metrics");
             ("metrics", metrics_json t);
           ]);
      `Handled
    | Some "shutdown" -> `Shutdown
    | _ -> (
      match Job.of_json doc with
      | Ok job ->
        submit t ~respond job;
        `Handled
      | Error msg ->
        let id =
          match Option.bind (Json.member "id" doc) Json.to_str_opt with
          | Some id -> id
          | None -> ""
        in
        respond (error_json ~id msg);
        `Handled))

let write_metrics_file path metrics =
  let oc = open_out path in
  output_string oc (Json.to_string ~indent:2 metrics);
  output_char oc '\n';
  close_out oc

let final_line t =
  Json.Obj
    [
      ("status", Json.Str "ok");
      ("op", Json.Str "shutdown");
      ("metrics", metrics_json t);
    ]

(* a tenant that disconnects mid-response turns the server's next write
   into a SIGPIPE, whose default disposition kills the whole daemon —
   every other tenant's queued work with it. Ignored, the write raises
   [Sys_error] (EPIPE) instead, which each connection handler absorbs
   locally. Signal dispositions are process-global and unavailable on
   some runtimes (e.g. Windows), hence the defensive catch. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

let serve_channels ?config ?metrics_out ic oc =
  ignore_sigpipe ();
  let out_lock = Mutex.create () in
  let respond j =
    Mutex.lock out_lock;
    (* [Fun.protect]: a broken pipe raising out of [flush] must not
       leave the output lock held for the other workers *)
    Fun.protect
      ~finally:(fun () -> Mutex.unlock out_lock)
      (fun () ->
        try
          output_string oc (Json.to_line j);
          output_char oc '\n';
          flush oc
        with Sys_error _ -> ())
  in
  let t = create ?config () in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line ->
      if String.trim line = "" then loop ()
      else begin
        match handle_line t ~respond line with
        | `Shutdown -> ()
        | `Handled -> loop ()
      end
  in
  loop ();
  drain t;
  shutdown t;
  let final = final_line t in
  respond final;
  match metrics_out with
  | Some path -> write_metrics_file path (metrics_json t)
  | None -> ()

let serve_socket ?config ?metrics_out ~path () =
  ignore_sigpipe ();
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ -> raise (Sys_error (path ^ ": exists and is not a socket"))
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 16;
  let t = create ?config () in
  let stop = Atomic.make false in
  let handlers = ref [] in
  let handlers_lock = Mutex.create () in
  let handle_conn fd () =
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let out_lock = Mutex.create () in
    let closed = ref false in
    let respond j =
      Mutex.lock out_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock out_lock)
        (fun () ->
          if not !closed then
            try
              output_string oc (Json.to_line j);
              output_char oc '\n';
              flush oc
            with Sys_error _ | Unix.Unix_error _ -> ())
    in
    let rec loop () =
      match input_line ic with
      | exception End_of_file -> ()
      | exception Sys_error _ -> ()
      | line ->
        if String.trim line = "" then loop ()
        else begin
          match handle_line t ~respond line with
          | `Shutdown ->
            (* this tenant ends the whole daemon: finish the backlog,
               answer with the final snapshot, stop accepting *)
            drain t;
            respond (final_line t);
            Atomic.set stop true;
            (try Unix.shutdown listener Unix.SHUTDOWN_RECEIVE
             with Unix.Unix_error _ -> ());
            (try Unix.close listener with Unix.Unix_error _ -> ())
          | `Handled -> loop ()
        end
    in
    loop ();
    (* a job of this tenant still in flight must not answer into the
       descriptor once the next accepted connection reuses its number *)
    Mutex.lock out_lock;
    closed := true;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Mutex.unlock out_lock
  in
  let rec accept_loop () =
    if not (Atomic.get stop) then begin
      match Unix.accept listener with
      | fd, _ ->
        let d = Domain.spawn (handle_conn fd) in
        Mutex.lock handlers_lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock handlers_lock)
          (fun () -> handlers := d :: !handlers);
        accept_loop ()
      | exception Unix.Unix_error _ -> ()  (* listener closed: stop *)
    end
  in
  accept_loop ();
  let hs =
    Mutex.lock handlers_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock handlers_lock)
      (fun () -> !handlers)
  in
  List.iter Domain.join hs;
  drain t;
  shutdown t;
  (match metrics_out with
  | Some p -> write_metrics_file p (metrics_json t)
  | None -> ());
  try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ()
