module Vec = Tiles_util.Vec
module Fbuf = Tiles_util.Fbuf
module Tiling = Tiles_core.Tiling
module Mapping = Tiles_core.Mapping
module Comm = Tiles_core.Comm
module Plan = Tiles_core.Plan
module Count_table = Tiles_core.Count_table

type payload = Tiles_mpisim.Sim.payload = Data of Fbuf.t | Length of int

let payload_length = Tiles_mpisim.Sim.payload_length

type comms = {
  send : dst:int -> tag:int -> payload -> unit;
  recv : src:int -> tag:int -> payload;
  compute : float -> unit;
  pack : float -> unit;
  unpack : float -> unit;
}

type mode = Full | Timing

type slab_mismatch = {
  mm_rank : int;
  mm_stage : [ `Pack | `Unpack ];
  mm_dm : Vec.t;
  mm_ts : int;
  mm_expected : int;
  mm_actual : int;
}

exception Slab_mismatch of slab_mismatch

let slab_mismatch_to_string m =
  Printf.sprintf
    "Protocol: rank %d %s cell count mismatch for direction %s at tile \
     t^S=%d: expected %d cells, walked %d"
    m.mm_rank
    (match m.mm_stage with `Pack -> "pack" | `Unpack -> "unpack")
    (Vec.to_string m.mm_dm) m.mm_ts m.mm_expected m.mm_actual

let () =
  Printexc.register_printer (function
    | Slab_mismatch m -> Some (slab_mismatch_to_string m)
    | _ -> None)

type shared = {
  plan : Plan.t;
  kernel : Kernel.t;
  mode : mode;
  walker : Walker.variant;
  check : bool;
  flop_time : float;
  pack_time : float;
  grid : Grid.t option;
  counts : Count_table.t;
  points_per_rank : int array;
  tiles_per_rank : int array;
  native : Native_kernel.fn option;
  fallback : string option;
}

type direction = {
  dm : Vec.t;
  dss : Vec.t list;  (* descending d^S_m, so receives match channel order *)
  slab_lo : int array;
}

let build_directions (plan : Plan.t) =
  let comm = plan.Plan.comm in
  List.map
    (fun (dm, dss) -> { dm; dss; slab_lo = Comm.slab_lo comm ~dm })
    (comm.Comm.dm : (Vec.t * Vec.t list) list)

(* minsucc: successors of a predecessor tile in one processor direction
   share its pid, so the lexicographically minimum valid successor has
   the smallest valid ts. *)
let minsucc_ts mapping ~pid ~pred_ts dss =
  let m = mapping.Mapping.m in
  let cands =
    List.filter_map
      (fun dS ->
        let ts = pred_ts + dS.(m) in
        if Mapping.valid mapping ~pid ~ts then Some ts else None)
      dss
  in
  match cands with
  | [] -> None
  | first :: rest -> Some (List.fold_left min first rest)

let prepare ?(walker = Walker.Fastpath) ?(check = false) ~mode ~plan ~kernel
    ~flop_time ~pack_time () =
  let n = Tiling.dim plan.Plan.tiling in
  if kernel.Kernel.dim <> n then invalid_arg "Protocol.prepare: kernel dimension";
  if
    not
      (Tiles_loop.Dependence.to_matrix (Kernel.deps kernel)
      = Tiles_loop.Dependence.to_matrix plan.Plan.nest.Tiles_loop.Nest.deps)
  then invalid_arg "Protocol.prepare: kernel dependencies differ from the plan's";
  let nprocs = Mapping.nprocs plan.Plan.mapping in
  let grid =
    if mode = Full then
      Some
        (Grid.create plan.Plan.nest.Tiles_loop.Nest.space
           ~width:kernel.Kernel.width)
    else None
  in
  (* every rank's walker runs the same compiled row: build it once *)
  let native, fallback =
    match (walker, mode) with
    | Walker.Native, Full -> (
      match Walker.native_row ~plan ~kernel ~check with
      | Ok fn -> (Some fn, None)
      | Error reason -> (None, Some reason))
    | _ -> (None, None)
  in
  {
    plan;
    kernel;
    mode;
    walker;
    check;
    flop_time;
    pack_time;
    grid;
    counts = Plan.counts plan;
    points_per_rank = Array.make nprocs 0;
    tiles_per_rank = Array.make nprocs 0;
    native;
    fallback;
  }

let rank_program ?(overlap = false) shared comms rank =
  let plan = shared.plan and kernel = shared.kernel in
  let comm = plan.Plan.comm in
  let mapping = plan.Plan.mapping in
  let n = plan.Plan.tiling.Tiling.n in
  let m = comm.Comm.m in
  let width = kernel.Kernel.width in
  let directions = build_directions plan in
  let pid = Mapping.pid_of_rank mapping rank in
  let tlo, thi = Mapping.chain mapping rank in
  let ntiles = thi - tlo + 1 in
  let walker =
    match shared.mode with
    | Full ->
      Some
        (Walker.make ~native:shared.native ~plan ~kernel ~rank ~ntiles
           ~variant:shared.walker ~check:shared.check ())
    | Timing -> None
  in
  (* a pooled all-NaN buffer; given back, reset, only if the rank
     completes *)
  let lease =
    Option.map
      (fun w -> Lds_pool.take ~check:shared.check (Walker.lds_total w * width))
      walker
  in
  let la =
    match lease with Some l -> Lds_pool.la l | None -> Fbuf.create 0
  in
  let tile_buf = Array.make n 0 in
  let rank_of pid =
    match Mapping.rank_of_pid mapping pid with
    | Some r -> r
    | None -> failwith "Protocol: neighbour pid has no rank"
  in
  for ts = tlo to thi do
    let trel = ts - tlo in
    let tile = Mapping.join mapping ~pid ~ts in
    Array.blit tile 0 tile_buf 0 n;
    (* ---------------- RECEIVE ---------------- *)
    (* the channels this tile must receive on (minsucc pairing), in
       deterministic channel order shared by both schedules *)
    let expected =
      List.concat_map
        (fun dir ->
          let pred_pid = Vec.sub pid dir.dm in
          List.filter_map
            (fun dS ->
              let pred_ts = ts - dS.(m) in
              if
                Mapping.valid mapping ~pid:pred_pid ~ts:pred_ts
                && minsucc_ts mapping ~pid ~pred_ts dir.dss = Some ts
              then Some (dir, dS, pred_pid, pred_ts)
              else None)
            dir.dss)
        directions
    in
    let recv_one (_, _, pred_pid, pred_ts) =
      comms.recv ~src:(rank_of pred_pid) ~tag:pred_ts
    in
    let unpack_one (dir, dS, pred_pid, pred_ts) payload =
      let len = payload_length payload in
      (match (walker, payload) with
      | None, _ -> ()
      | Some _, Length _ ->
        failwith "Protocol: length-only message received in Full mode"
      | Some w, Data buf ->
        let pred_tile = Mapping.join mapping ~pid:pred_pid ~ts:pred_ts in
        let count =
          Walker.unpack_slab w ~trel ~pred_tile ~ds:dS ~lo:dir.slab_lo ~la
            ~buf
        in
        if count * width <> len then
          raise
            (Slab_mismatch
               {
                 mm_rank = rank;
                 mm_stage = `Unpack;
                 mm_dm = dir.dm;
                 mm_ts = ts;
                 mm_expected = len / width;
                 mm_actual = count;
               }));
      comms.unpack (float_of_int len *. shared.pack_time)
    in
    if overlap then
      (* §5 overlapped schedule: pre-post every receive of this tile and
         drain the channels before scattering any slab, so a backend with
         asynchronous delivery keeps all incoming transfers in flight at
         once instead of serialising wait → unpack per channel *)
      List.iter
        (fun (ch, buf) -> unpack_one ch buf)
        (List.map (fun ch -> (ch, recv_one ch)) expected)
    else
      List.iter (fun ch -> unpack_one ch (recv_one ch)) expected;
    (* ---------------- COMPUTE ---------------- *)
    let points =
      match walker with
      | None -> Count_table.points shared.counts ~rank ~trel
      | Some w -> Walker.compute_tile w ~trel ~tile:tile_buf ~la
    in
    comms.compute (float_of_int points *. shared.flop_time);
    shared.points_per_rank.(rank) <- shared.points_per_rank.(rank) + points;
    shared.tiles_per_rank.(rank) <- shared.tiles_per_rank.(rank) + 1;
    (* ---------------- SEND ---------------- *)
    List.iteri
      (fun d dir ->
        let cells = Count_table.slab shared.counts ~rank ~trel ~dir:d in
        if cells >= 0 then begin
          let payload =
            match walker with
            | None -> Length (cells * width)
            | Some w ->
              (* pack writes every slot; a short pack raises below *)
              let buf = Fbuf.create (cells * width) in
              let count =
                Walker.pack_slab w ~trel ~tile:tile_buf ~lo:dir.slab_lo ~la
                  ~buf
              in
              if count <> cells then
                raise
                  (Slab_mismatch
                     {
                       mm_rank = rank;
                       mm_stage = `Pack;
                       mm_dm = dir.dm;
                       mm_ts = ts;
                       mm_expected = cells;
                       mm_actual = count;
                     });
              Data buf
          in
          comms.pack (float_of_int (cells * width) *. shared.pack_time);
          comms.send ~dst:(rank_of (Vec.add pid dir.dm)) ~tag:ts payload
        end)
      directions
  done;
  (* ---------------- write-back (LDS -> DS) ---------------- *)
  (match (shared.grid, walker) with
  | Some grid, Some w ->
    for ts = tlo to thi do
      let trel = ts - tlo in
      let tile = Mapping.join mapping ~pid ~ts in
      Walker.write_back w ~trel ~tile ~la grid
    done;
    (* a zero-cost charge so span-recording backends close the write-back
       interval as compute instead of leaving it unattributed *)
    comms.compute 0.
  | _ -> ());
  match (walker, lease) with
  | Some w, Some l ->
    Walker.reset_written w ~la;
    Lds_pool.give l
  | _ -> ()
