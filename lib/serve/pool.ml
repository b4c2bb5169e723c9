module Json = Tiles_util.Json

type t = {
  shards : int;
  executed : int Atomic.t array;
  busy : bool Atomic.t array;
  domains : unit Domain.t array;
  mutable joined : bool;
  join_lock : Mutex.t;
}

let start ~shards ~pull ~exec =
  if shards < 1 then invalid_arg "Pool.start: shards must be >= 1";
  let executed = Array.init shards (fun _ -> Atomic.make 0) in
  let busy = Array.init shards (fun _ -> Atomic.make false) in
  let worker shard () =
    let rec loop () =
      match pull () with
      | None -> ()
      | Some job ->
        Atomic.set busy.(shard) true;
        (try exec job with _ -> ());
        Atomic.set busy.(shard) false;
        Atomic.incr executed.(shard);
        loop ()
    in
    loop ()
  in
  let domains = Array.init shards (fun i -> Domain.spawn (worker i)) in
  { shards; executed; busy; domains; joined = false; join_lock = Mutex.create () }

let join t =
  Mutex.lock t.join_lock;
  (* [Fun.protect]: [Domain.join] re-raises a worker's uncaught
     exception; escaping with the lock held would wedge later joiners *)
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.join_lock)
    (fun () ->
      if not t.joined then begin
        Array.iter Domain.join t.domains;
        t.joined <- true
      end)

type stats = { shards : int; executed : int list; busy : int }

let stats (t : t) =
  {
    shards = t.shards;
    executed = Array.to_list (Array.map Atomic.get t.executed);
    busy =
      Array.fold_left (fun n b -> if Atomic.get b then n + 1 else n) 0 t.busy;
  }

let stats_json (s : stats) =
  Json.Obj
    [
      ("shards", Json.Int s.shards);
      ("executed", Json.List (List.map (fun n -> Json.Int n) s.executed));
      ("busy", Json.Int s.busy);
    ]
