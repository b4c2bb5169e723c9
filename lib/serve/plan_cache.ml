module Json = Tiles_util.Json
module Plan = Tiles_core.Plan
module Run_spec = Tiles_apps.Run_spec

type entry = { plan : Plan.t; mutable last_use : int }

type t = {
  tbl : (string, entry) Hashtbl.t;
  lock : Mutex.t;
  capacity : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable compiles : int;
}

(* critical sections run under [Fun.protect] so an exception (from the
   compile callback, or anything the table calls) can never escape with
   the lock held and wedge the server *)
let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let create ~capacity =
  if capacity < 1 then
    invalid_arg "Plan_cache.create: capacity must be >= 1";
  {
    tbl = Hashtbl.create 64;
    lock = Mutex.create ();
    capacity;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    compiles = 0;
  }

let key ~(resolved : Tiles_apps.Registry.resolved) (spec : Run_spec.t) =
  (* same content addressing as the tune score cache, plus the walker:
     the plan itself is walker-independent, but the cache identifies the
     full compiled configuration a job names *)
  Tiles_tune.Cache.key ~nest:resolved.nest ~tiling:resolved.tiling
    ~m:resolved.m ~kernel:resolved.kernel ~net:spec.net ~overlap:spec.overlap
    ~backend:(Run_spec.backend_to_string spec.backend)
  ^ "-"
  ^ Tiles_runtime.Walker.variant_to_string spec.walker

let touch t e =
  t.tick <- t.tick + 1;
  e.last_use <- t.tick

let evict_lru t =
  (* linear scan: the cache is small (hundreds of plans), eviction rare.
     The victim is the minimum (last_use, key) pair — the key breaks
     age ties, so the choice never depends on [Hashtbl.iter] order
     (which varies with the table's random hash seed and its resize
     history, and previously made equal-age eviction nondeterministic) *)
  let victim = ref None in
  Hashtbl.iter
    (fun k e ->
      let better =
        match !victim with
        | None -> true
        | Some (vk, age) ->
          e.last_use < age || (e.last_use = age && k < vk)
      in
      if better then victim := Some (k, e.last_use))
    t.tbl;
  match !victim with
  | Some (k, _) ->
    Hashtbl.remove t.tbl k;
    t.evictions <- t.evictions + 1
  | None -> ()

(* ticks are unique in production ([touch] always increments), so equal
   ages only arise when a test manufactures them to pin down the
   tie-break above *)
let set_last_use_for_testing t ~key ~age =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some e -> e.last_use <- age
      | None ->
        invalid_arg "Plan_cache.set_last_use_for_testing: unknown key")

let find_or_compile t ~key compile =
  let cached =
    locked t (fun () ->
        match Hashtbl.find_opt t.tbl key with
        | Some e ->
          t.hits <- t.hits + 1;
          touch t e;
          Some e.plan
        | None ->
          t.misses <- t.misses + 1;
          None)
  in
  match cached with
  | Some plan -> (plan, `Hit)
  | None ->
    (* compile outside the lock: it is slow and may raise *)
    let plan = compile () in
    locked t (fun () ->
        t.compiles <- t.compiles + 1;
        match Hashtbl.find_opt t.tbl key with
        | Some e -> touch t e (* a racing compile of the same key won *)
        | None ->
          if Hashtbl.length t.tbl >= t.capacity then evict_lru t;
          let e = { plan; last_use = 0 } in
          touch t e;
          Hashtbl.add t.tbl key e);
    (plan, `Miss)

type stats = {
  capacity : int;
  size : int;
  hits : int;
  misses : int;
  evictions : int;
  compiles : int;
}

let stats t =
  locked t (fun () ->
      {
        capacity = t.capacity;
        size = Hashtbl.length t.tbl;
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        compiles = t.compiles;
      })

let stats_json (s : stats) =
  Json.Obj
    [
      ("capacity", Json.Int s.capacity);
      ("size", Json.Int s.size);
      ("hits", Json.Int s.hits);
      ("misses", Json.Int s.misses);
      ("evictions", Json.Int s.evictions);
      ("compiles", Json.Int s.compiles);
    ]
