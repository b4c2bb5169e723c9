module Vec = Tiles_util.Vec
module Nest = Tiles_loop.Nest

type t = {
  nest : Nest.t;
  tiling : Tiling.t;
  tspace : Tile_space.t;
  mapping : Mapping.t;
  comm : Comm.t;
  counts : Count_table.t option Atomic.t;
  rows : Row_table.t option Atomic.t;
}

let make ?m nest tiling =
  if Nest.dim nest <> Tiling.dim tiling then
    invalid_arg "Plan.make: dimension mismatch";
  (* the checks that need no tile space come first: building one can
     take far longer than rejecting the tiling *)
  ignore (Comm.reach tiling nest.Nest.deps);
  let tspace = Tile_space.make nest.Nest.space tiling in
  let mapping = Mapping.make ?m tspace in
  let comm = Comm.make tiling nest.Nest.deps ~m:mapping.Mapping.m in
  {
    nest;
    tiling;
    tspace;
    mapping;
    comm;
    counts = Atomic.make None;
    rows = Atomic.make None;
  }

let dim t = Tiling.dim t.tiling
let nprocs t = Mapping.nprocs t.mapping
let mapping_dim t = t.mapping.Mapping.m

let lds_shape t ~rank =
  let lo, hi = Mapping.chain t.mapping rank in
  Lds.shape t.tiling t.comm ~ntiles:(hi - lo + 1)

let loc t j =
  let tile = Tiling.tile_of t.tiling j in
  let j' = Tiling.local_of t.tiling ~tile j in
  let pid, ts = Mapping.split t.mapping tile in
  match Mapping.rank_of_pid t.mapping pid with
  | None -> invalid_arg "Plan.loc: iteration outside any processor's tiles"
  | Some rank ->
    let lo, _ = Mapping.chain t.mapping rank in
    (pid, Lds.map t.tiling t.comm ~t:(ts - lo) j')

let loc_inv t ~pid j'' =
  match Mapping.rank_of_pid t.mapping pid with
  | None -> invalid_arg "Plan.loc_inv: unknown pid"
  | Some rank ->
    let lo, _ = Mapping.chain t.mapping rank in
    let trel, j' = Lds.map_inv t.tiling t.comm j'' in
    let tile = Mapping.join t.mapping ~pid ~ts:(trel + lo) in
    Tiling.global_of t.tiling ~tile j'

(* Built outside any lock: a domain that loses the race drops its copy
   and returns the published one, which is equal. *)
let counts t =
  match Atomic.get t.counts with
  | Some c -> c
  | None ->
    let c = Count_table.make t.tspace t.mapping t.comm in
    if Atomic.compare_and_set t.counts None (Some c) then c
    else Option.get (Atomic.get t.counts)

(* Like [counts]; a table for other reads replaces the published one, so
   a plan keeps the table of the kernel it last ran *)
let rec rows t ~reads =
  match Atomic.get t.rows with
  | Some r when Row_table.reads r = reads -> r
  | cur ->
    let r =
      Row_table.make ~counts:(counts t) ~tspace:t.tspace ~mapping:t.mapping
        ~comm:t.comm ~reads
    in
    if Atomic.compare_and_set t.rows cur (Some r) then r else rows t ~reads

let total_iterations t = Count_table.total (counts t)

let comm_stats t =
  let c = counts t in
  (Count_table.messages c, Count_table.cells c)

let summary t =
  let b = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "plan for %s\n" t.nest.Nest.name;
  pf "  dimensions        : %d\n" (dim t);
  pf "  tile size         : %d points\n" (Tiling.tile_size t.tiling);
  pf "  v (TTIS extents)  : %s\n" (Vec.to_string t.tiling.Tiling.v);
  pf "  c (strides)       : %s\n" (Vec.to_string t.tiling.Tiling.c);
  pf "  mapping dimension : %d\n" (mapping_dim t);
  pf "  processors        : %d\n" (nprocs t);
  pf "  CC vector         : %s\n" (Vec.to_string t.comm.Comm.cc);
  pf "  LDS halo offsets  : %s\n" (Vec.to_string t.comm.Comm.off);
  pf "  D^S               : %s\n"
    (String.concat "; " (List.map Vec.to_string t.comm.Comm.ds));
  pf "  D^m               : %s\n"
    (String.concat "; "
       (List.map (fun (d, _) -> Vec.to_string d) t.comm.Comm.dm));
  let lens =
    Array.to_list (Array.map (fun (lo, hi) -> hi - lo + 1) t.mapping.Mapping.chains)
  in
  pf "  chain lengths     : min %d, max %d\n"
    (List.fold_left min max_int lens)
    (List.fold_left max 0 lens);
  Buffer.contents b
