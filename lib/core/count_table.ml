module Vec = Tiles_util.Vec

type recv = { src : int; tag : int; dir : int; ds : int; cells : int }

type t = {
  first : int array;  (* rank r's tiles are entries [first.(r), first.(r+1)) *)
  points : int array;
  ndirs : int;
  los : int array array;  (* per direction: its slabs' lower TTIS bounds *)
  dss : Vec.t array array;  (* per direction: d^S(d^m), receive order *)
  slabs : int array;  (* entry e, direction d at [e * ndirs + d]; -1 = none *)
  dsts : int array;  (* rank r, direction d at [r * ndirs + d]; -1 = none *)
  recvs : recv list array;  (* per entry, in channel order *)
  total : int;
  counter : Tile_space.counter;
}

let make (tspace : Tile_space.t) (mapping : Mapping.t) (comm : Comm.t) =
  let tiling = tspace.Tile_space.tiling in
  let n = tiling.Tiling.n and m = comm.Comm.m in
  let counter = Tile_space.counter tspace in
  let dirs = Array.of_list comm.Comm.dm in
  let ndirs = Array.length dirs in
  let dss = Array.map (fun (_, dss) -> Array.of_list dss) dirs in
  let zero = Array.make n 0 in
  let los = Array.map (fun (dm, _) -> Comm.slab_lo comm ~dm) dirs in
  let full_points = Ttis.count_from tiling ~lo:zero in
  let full_slabs = Array.map (fun lo -> Ttis.count_from tiling ~lo) los in
  let nprocs = Mapping.nprocs mapping in
  let first = Array.make (nprocs + 1) 0 in
  for r = 0 to nprocs - 1 do
    let lo, hi = Mapping.chain mapping r in
    first.(r + 1) <- first.(r) + (hi - lo + 1)
  done;
  let nentries = first.(nprocs) in
  let points = Array.make nentries 0 in
  let slabs = Array.make (nentries * ndirs) (-1) in
  let dsts = Array.make (nprocs * ndirs) (-1) in
  let recvs = Array.make nentries [] in
  for r = 0 to nprocs - 1 do
    let pid = mapping.Mapping.pids.(r) in
    let lo, hi = Mapping.chain mapping r in
    Array.iteri
      (fun d (dm, _) ->
        match Mapping.rank_of_pid mapping (Vec.add pid dm) with
        | Some dst -> dsts.((r * ndirs) + d) <- dst
        | None -> ())
      dirs;
    for ts = lo to hi do
      let e = first.(r) + (ts - lo) in
      let tile = Mapping.join mapping ~pid ~ts in
      let interior = Tile_space.is_interior counter tile in
      points.(e) <-
        (if interior then full_points
         else Tile_space.count_slab counter ~tile ~lo:zero);
      for d = 0 to ndirs - 1 do
        let dst = dsts.((r * ndirs) + d) in
        (* minsucc: the successors in one direction share a pid, so the
           lexicographically least valid one has the least ts. A rank's
           chain is exactly its valid tiles (its last Fourier–Motzkin
           level bounds ts over the whole system), so validity is a
           range test. *)
        let dlo, dhi =
          if dst >= 0 then Mapping.chain mapping dst else (0, -1)
        in
        let best = ref (-1) and best_ts = ref max_int in
        for s = 0 to Array.length dss.(d) - 1 do
          let ts' = ts + dss.(d).(s).(m) in
          if dlo <= ts' && ts' <= dhi && ts' < !best_ts then begin
            best := s;
            best_ts := ts'
          end
        done;
        if !best >= 0 then begin
          let cells =
            if interior then full_slabs.(d)
            else Tile_space.count_slab counter ~tile ~lo:los.(d)
          in
          slabs.((e * ndirs) + d) <- cells;
          let re = first.(dst) + (!best_ts - dlo) in
          recvs.(re) <-
            { src = r; tag = ts; dir = d; ds = !best; cells } :: recvs.(re)
        end
      done
    done
  done;
  (* channel order: by direction, then d^S; the pair fixes the sender *)
  let channel a b =
    match compare a.dir b.dir with 0 -> compare a.ds b.ds | c -> c
  in
  let recvs = Array.map (List.sort channel) recvs in
  let total = Array.fold_left ( + ) 0 points in
  { first; points; ndirs; los; dss; slabs; dsts; recvs; total; counter }

let entry t ~rank ~trel = t.first.(rank) + trel
let entries t = Array.length t.points
let points t ~rank ~trel = t.points.(t.first.(rank) + trel)
let slab t ~rank ~trel ~dir =
  t.slabs.(((t.first.(rank) + trel) * t.ndirs) + dir)
let dst t ~rank ~dir = t.dsts.((rank * t.ndirs) + dir)
let slab_lo t ~dir = t.los.(dir)
let ds t ~dir ~ds = t.dss.(dir).(ds)
let recvs t ~rank ~trel = t.recvs.(t.first.(rank) + trel)
let total t = t.total
let counter t = t.counter

let messages t =
  Array.fold_left (fun acc c -> if c >= 0 then acc + 1 else acc) 0 t.slabs

let cells t =
  Array.fold_left (fun acc c -> if c >= 0 then acc + c else acc) 0 t.slabs
