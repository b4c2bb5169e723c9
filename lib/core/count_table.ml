module Vec = Tiles_util.Vec

type t = {
  first : int array;  (* rank r's tiles are entries [first.(r), first.(r+1)) *)
  points : int array;
  ndirs : int;
  slabs : int array;  (* entry e, direction d at [e * ndirs + d]; -1 = none *)
  total : int;
  counter : Tile_space.counter;
}

let make (tspace : Tile_space.t) (mapping : Mapping.t) (comm : Comm.t) =
  let tiling = tspace.Tile_space.tiling in
  let n = tiling.Tiling.n and m = comm.Comm.m in
  let counter = Tile_space.counter tspace in
  let dirs = Array.of_list comm.Comm.dm in
  let ndirs = Array.length dirs in
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
  let points = Array.make first.(nprocs) 0 in
  let slabs = Array.make (first.(nprocs) * ndirs) (-1) in
  for r = 0 to nprocs - 1 do
    let pid = Mapping.pid_of_rank mapping r in
    let lo, hi = Mapping.chain mapping r in
    for ts = lo to hi do
      let e = first.(r) + (ts - lo) in
      let tile = Mapping.join mapping ~pid ~ts in
      let interior = Tile_space.is_interior counter tile in
      points.(e) <-
        (if interior then full_points
         else Tile_space.count_slab counter ~tile ~lo:zero);
      Array.iteri
        (fun d (dm, dss) ->
          let succ_pid = Vec.add pid dm in
          if
            List.exists
              (fun dS -> Mapping.valid mapping ~pid:succ_pid ~ts:(ts + dS.(m)))
              dss
          then
            slabs.((e * ndirs) + d) <-
              (if interior then full_slabs.(d)
               else Tile_space.count_slab counter ~tile ~lo:los.(d)))
        dirs
    done
  done;
  let total = Array.fold_left ( + ) 0 points in
  { first; points; ndirs; slabs; total; counter }

let points t ~rank ~trel = t.points.(t.first.(rank) + trel)
let slab t ~rank ~trel ~dir =
  t.slabs.(((t.first.(rank) + trel) * t.ndirs) + dir)
let total t = t.total
let counter t = t.counter

let messages t =
  Array.fold_left (fun acc c -> if c >= 0 then acc + 1 else acc) 0 t.slabs

let cells t =
  Array.fold_left (fun acc c -> if c >= 0 then acc + c else acc) 0 t.slabs
