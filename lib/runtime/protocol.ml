module Vec = Tiles_util.Vec
module Fbuf = Tiles_util.Fbuf
module Tiling = Tiles_core.Tiling
module Mapping = Tiles_core.Mapping
module Comm = Tiles_core.Comm
module Plan = Tiles_core.Plan
module Count_table = Tiles_core.Count_table

type payload = Tiles_mpisim.Sim.payload = Data of Fbuf.t | Length of int

let payload_length = Tiles_mpisim.Sim.payload_length

type comms = Tiles_mpisim.Sim.comms = {
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
  values : Fbuf.t option;
  coefs : Kernel.coefs option;
  native : Native_kernel.fn option;
  fallback : string option;
}

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
  (* every rank's walker replays the plan's row table, its boundary
     values and the kernel's static-let table: build them before any
     rank starts, so ranks on other domains only read them *)
  let values, coefs =
    if mode = Full && walker <> Walker.Reference then
      ( Some (Walker.boundary_values ~plan ~kernel),
        Some (Walker.coefs ~plan ~kernel) )
    else (None, None)
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
    values;
    coefs;
    native;
    fallback;
  }

let rank_program ?(overlap = false) shared comms rank =
  let plan = shared.plan and kernel = shared.kernel in
  let mapping = plan.Plan.mapping and counts = shared.counts in
  let dms = plan.Plan.comm.Comm.dm in
  let n = plan.Plan.tiling.Tiling.n in
  let width = kernel.Kernel.width in
  let pid = Mapping.pid_of_rank mapping rank in
  let tlo, thi = Mapping.chain mapping rank in
  let ntiles = thi - tlo + 1 in
  let walker =
    match shared.mode with
    | Full ->
      Some
        (Walker.make ?values:shared.values ?coefs:shared.coefs
           ~native:shared.native ~plan ~kernel ~rank ~ntiles
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
  for ts = tlo to thi do
    let trel = ts - tlo in
    let tile = Mapping.join mapping ~pid ~ts in
    Array.blit tile 0 tile_buf 0 n;
    (* ---------------- RECEIVE ---------------- *)
    (* the table's receives (minsucc pairing), in channel order *)
    let expected = Count_table.recvs counts ~rank ~trel in
    let recv_one (rv : Count_table.recv) = comms.recv ~src:rv.src ~tag:rv.tag in
    let unpack_one nth (rv : Count_table.recv) payload =
      let len = payload_length payload in
      (match (walker, payload) with
      | None, _ -> ()
      | Some _, Length _ ->
        failwith "Protocol: length-only message received in Full mode"
      | Some w, Data buf ->
        let count = Walker.unpack_slab w ~trel ~nth rv ~la ~buf in
        if count * width <> len then
          raise
            (Slab_mismatch
               {
                 mm_rank = rank;
                 mm_stage = `Unpack;
                 mm_dm = fst (List.nth dms rv.dir);
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
      List.iteri
        (fun nth (ch, buf) -> unpack_one nth ch buf)
        (List.map (fun ch -> (ch, recv_one ch)) expected)
    else
      List.iteri (fun nth ch -> unpack_one nth ch (recv_one ch)) expected;
    (* ---------------- COMPUTE ---------------- *)
    let points =
      match (walker, shared.grid) with
      | Some w, Some grid -> Walker.compute_tile w ~trel ~tile:tile_buf ~la ~grid
      | _ -> Count_table.points counts ~rank ~trel
    in
    comms.compute (float_of_int points *. shared.flop_time);
    shared.points_per_rank.(rank) <- shared.points_per_rank.(rank) + points;
    shared.tiles_per_rank.(rank) <- shared.tiles_per_rank.(rank) + 1;
    (* ---------------- SEND ---------------- *)
    List.iteri
      (fun d (dm, _) ->
        let cells = Count_table.slab counts ~rank ~trel ~dir:d in
        if cells >= 0 then begin
          let payload =
            match walker with
            | None -> Length (cells * width)
            | Some w ->
              (* pack writes every slot; a short pack raises below *)
              let buf = Fbuf.create (cells * width) in
              let count =
                Walker.pack_slab w ~trel ~tile:tile_buf ~dir:d ~la ~buf
              in
              if count <> cells then
                raise
                  (Slab_mismatch
                     {
                       mm_rank = rank;
                       mm_stage = `Pack;
                       mm_dm = dm;
                       mm_ts = ts;
                       mm_expected = cells;
                       mm_actual = count;
                     });
              Data buf
          in
          comms.pack (float_of_int (cells * width) *. shared.pack_time);
          comms.send ~dst:(Count_table.dst counts ~rank ~dir:d) ~tag:ts payload
        end)
      dms
  done;
  match (walker, lease) with
  | Some w, Some l ->
    Walker.reset_written w ~la;
    Lds_pool.give l
  | _ -> ()
