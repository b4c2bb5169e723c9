module Vec = Tiles_util.Vec
module Fbuf = Tiles_util.Fbuf
module Tiling = Tiles_core.Tiling
module Tile_space = Tiles_core.Tile_space
module Comm = Tiles_core.Comm
module Mapping = Tiles_core.Mapping
module Row_table = Tiles_core.Row_table
module Lds = Tiles_core.Lds
module Plan = Tiles_core.Plan
module Count_table = Tiles_core.Count_table
module A1 = Bigarray.Array1

type variant = Reference | Fastpath | Native

let variant_to_string = function
  | Reference -> "reference"
  | Fastpath -> "fast"
  | Native -> "native"

let variant_of_string = function
  | "reference" -> Some Reference
  | "fast" -> Some Fastpath
  | "native" -> Some Native
  | _ -> None

let all_variants = [ Reference; Fastpath; Native ]

let compiled_member = Row_table.compiled_member

type t = {
  variant : variant;
  check : bool;
  rank : int;
  kernel : Kernel.t;
  tiling : Tiling.t;
  comm : Comm.t;
  tspace : Tile_space.t;
  mapping : Mapping.t;
  counts : Count_table.t;
  n : int;
  width : int;
  shape : Lds.shape;
  vpt : int array;  (* v_k / c_k *)
  tshift : int;  (* LDS cell delta per unit of trel *)
  geo : Row_table.geometry;
  (* the plan's row table; [None] for [Reference], which walks points *)
  table : Row_table.t option;
  entry0 : int;  (* the rank's first count-table entry *)
  taps : int array;  (* the table's tap deltas of this rank, by class *)
  (* the table's boundary values ([Row_table.values]); empty for
     [Reference] *)
  values : Fbuf.t;
  (* the kernel's static lets over the space's box ([coefs]) *)
  coefs : Kernel.coefs;
  (* the run's compiled row entry when [variant = Native] and it built;
     [None] runs the OCaml row body *)
  native : Native_kernel.fn option;
  (* scratch (one walker per rank; never shared across domains) *)
  jrow : int array;  (* global row start *)
  jcur : int array;  (* the reference walker's local tap source *)
  src : int array;  (* tap source point *)
  doffs : int array;  (* per-tap LDS cell deltas for the current row *)
  out : float array;
  (* the LDS cells the fast paths wrote since the last [reset_written]:
     (start cell, length) pairs *)
  mutable wlog : int array;
  mutable wlen : int;
}

let native_row ~plan ~kernel ~check =
  if check then Error "check mode validates LDS reads in OCaml"
  else Native_kernel.build ~plan ~kernel ()

let boundary_values ~plan ~kernel =
  Row_table.values
    (Plan.rows plan ~reads:(Array.of_list kernel.Kernel.reads))
    ~key:(Kernel.content_key kernel) ~width:kernel.Kernel.width
    kernel.Kernel.boundary

let table_coefs (rt : Row_table.t) kernel =
  Kernel.coefs kernel ~lo:rt.Row_table.glo ~dims:rt.Row_table.gdims
    ~memo:(Row_table.coefs rt ~key:(Kernel.content_key kernel))

let coefs ~plan ~kernel =
  table_coefs (Plan.rows plan ~reads:(Array.of_list kernel.Kernel.reads)) kernel

let make ?values ?coefs ~native ~plan ~kernel ~rank ~ntiles ~variant ~check () =
  let tiling = plan.Plan.tiling in
  let comm = plan.Plan.comm in
  let mapping = plan.Plan.mapping in
  let counts = Plan.counts plan in
  let n = tiling.Tiling.n in
  let m = comm.Comm.m in
  let shape = Lds.shape tiling comm ~ntiles in
  let vpt = Array.init n (fun k -> tiling.Tiling.v.(k) / tiling.Tiling.c.(k)) in
  let reads = Array.of_list kernel.Kernel.reads in
  let table, geo =
    match variant with
    | Reference ->
      ( None,
        Row_table.geometry (Count_table.counter counts)
          plan.Plan.nest.Tiles_loop.Nest.space ~reads )
    | Fastpath | Native ->
      let tlo, thi = Mapping.chain mapping rank in
      if ntiles <> thi - tlo + 1 then
        invalid_arg "Walker.make: ntiles differs from the rank's chain length";
      let rt = Plan.rows plan ~reads in
      (Some rt, rt.Row_table.geo)
  in
  {
    variant;
    check;
    rank;
    kernel;
    tiling;
    comm;
    tspace = plan.Plan.tspace;
    mapping;
    counts;
    n;
    width = kernel.Kernel.width;
    shape;
    vpt;
    tshift = vpt.(m) * shape.Lds.strides.(m);
    geo;
    table;
    entry0 = Count_table.entry counts ~rank ~trel:0;
    taps =
      (match table with Some rt -> rt.Row_table.taps.(rank) | None -> [||]);
    values =
      (match (table, values) with
      | None, _ -> Fbuf.create 0
      | Some _, Some v -> v
      | Some _, None -> boundary_values ~plan ~kernel);
    coefs =
      (match (table, coefs) with
      | None, _ -> Kernel.no_coefs
      | Some _, Some c -> c
      | Some rt, None -> table_coefs rt kernel);
    native =
      (match variant with Native -> native | Reference | Fastpath -> None);
    jrow = Array.make n 0;
    jcur = Array.make n 0;
    src = Array.make n 0;
    doffs = Array.make (Array.length reads) 0;
    out = Array.make kernel.Kernel.width 0.;
    wlog = Array.make 64 0;
    wlen = 0;
  }

let variant t = t.variant
let counter t = Count_table.counter t.counts
let lds_total t = t.shape.Lds.total

(* Log that cells [start, start + len) were written. A range that starts
   inside or right after the last one extends it, so a row and the row
   that continues it take one entry. *)
let log_write t start len =
  let k = t.wlen in
  if len > 0 then
    let last = if k > 0 then t.wlog.(k - 2) else 0 in
    if k > 0 && start >= last && start <= last + t.wlog.(k - 1) then
      t.wlog.(k - 1) <- max t.wlog.(k - 1) (start + len - last)
    else begin
      if k + 2 > Array.length t.wlog then begin
        let grown = Array.make (2 * Array.length t.wlog) 0 in
        Array.blit t.wlog 0 grown 0 k;
        t.wlog <- grown
      end;
      t.wlog.(k) <- start;
      t.wlog.(k + 1) <- len;
      t.wlen <- k + 2
    end

(* the reference paths write point by point and log nothing: their
   whole buffer is reset instead *)
let reset_written t ~(la : Fbuf.t) =
  match t.variant with
  | Reference -> A1.fill la Float.nan
  | Fastpath | Native ->
    let width = t.width in
    for e = 0 to (t.wlen / 2) - 1 do
      Fbuf.fill la ~pos:(t.wlog.(2 * e) * width)
        ~len:(t.wlog.((2 * e) + 1) * width)
        Float.nan
    done;
    t.wlen <- 0

(* ---------------- reference paths (the original per-point code) ------- *)

let nan_error t j i =
  failwith
    (Printf.sprintf
       "Protocol: rank %d read uninitialised LDS cell for iteration %s \
        read %d"
       t.rank (Vec.to_string j) i)

let reference_compute t ~trel ~tile ~(la : Fbuf.t) grid =
  let n = t.n and width = t.width in
  let tiling = t.tiling and comm = t.comm in
  let points = ref 0 in
  Tile_space.iter_tile_points t.tspace ~tile (fun ~local:j' ~global:j ->
      incr points;
      let read i field =
        let d = t.geo.Row_table.reads.(i) in
        for k = 0 to n - 1 do
          t.src.(k) <- j.(k) - d.(k)
        done;
        if t.geo.Row_table.member t.src then begin
          let d' = t.geo.Row_table.reads'.(i) in
          for k = 0 to n - 1 do
            t.jcur.(k) <- j'.(k) - d'.(k)
          done;
          let j'' = Lds.map tiling comm ~t:trel t.jcur in
          let v = la.{(Lds.map_index t.shape j'' * width) + field} in
          if Float.is_nan v then nan_error t j i;
          v
        end
        else t.kernel.Kernel.boundary t.src field
      in
      t.kernel.Kernel.compute ~read ~j ~out:t.out;
      let j'' = Lds.map tiling comm ~t:trel j' in
      let cell = Lds.map_index t.shape j'' in
      for f = 0 to width - 1 do
        la.{(cell * width) + f} <- t.out.(f);
        Grid.set grid j f t.out.(f)
      done);
  !points

let reference_pack t ~trel ~tile ~lo ~(la : Fbuf.t) ~(buf : Fbuf.t) =
  let width = t.width in
  let count = ref 0 in
  Tile_space.iter_slab_points t.tspace ~tile ~lo (fun ~local:j' ~global:_ ->
      let j'' = Lds.map t.tiling t.comm ~t:trel j' in
      let cell = Lds.map_index t.shape j'' in
      for f = 0 to width - 1 do
        buf.{(!count * width) + f} <- la.{(cell * width) + f}
      done;
      incr count);
  !count

let reference_unpack t ~trel ~pred_tile ~ds ~lo ~(la : Fbuf.t) ~(buf : Fbuf.t) =
  let n = t.n and width = t.width in
  let count = ref 0 in
  Tile_space.iter_slab_points t.tspace ~tile:pred_tile ~lo
    (fun ~local:jp' ~global:_ ->
      let j'' = Lds.map t.tiling t.comm ~t:trel jp' in
      for k = 0 to n - 1 do
        j''.(k) <- j''.(k) - (ds.(k) * t.vpt.(k))
      done;
      let cell = Lds.map_index t.shape j'' in
      for f = 0 to width - 1 do
        la.{(cell * width) + f} <- buf.{(!count * width) + f}
      done;
      incr count);
  !count

(* ---------------- fast paths: replay the plan's row table ----------- *)

let get (a : Row_table.i32) i = Int32.to_int (A1.unsafe_get a i)

(* The rank's boundary cells take their values before its first tile:
   unpack and compute write only cells of points inside the space, so
   they keep them for the whole rank run. *)
let fill_boundary t (rt : Row_table.t) ~(la : Fbuf.t) =
  let width = t.width and w = t.n + 2 in
  let segs = rt.Row_table.bsegs and first = rt.Row_table.bfirst in
  let pos = ref (rt.Row_table.bcells.(t.rank) * width) in
  for i = first.(t.rank) to first.(t.rank + 1) - 1 do
    let cell = get segs (w * i) and len = get segs ((w * i) + 1) in
    log_write t cell len;
    Fbuf.blit ~src:t.values ~src_pos:!pos ~dst:la ~dst_pos:(cell * width)
      ~len:(len * width);
    pos := !pos + (len * width)
  done

let fast_compute t (rt : Row_table.t) ~trel ~(la : Fbuf.t) grid =
  let n = t.n and width = t.width and geo = t.geo in
  let kernel = t.kernel in
  let jstep = geo.Row_table.jstep in
  let gdata = Grid.data grid and gstr = Grid.strides grid in
  (* the table's grid cells index the space's bounding box: the grid
     must have that layout for the unchecked copy below *)
  let gcs = rt.Row_table.gstr in
  if
    Grid.slots grid <> width * gcs.(0) * rt.Row_table.gdims.(0)
    || not (Array.for_all2 (fun g c -> g = width * c) gstr gcs)
  then invalid_arg "Walker: the grid's layout differs from the row table's";
  (* grid slots per innermost lattice step *)
  let gstep = ref 0 in
  for k = 0 to n - 1 do
    gstep := !gstep + (gstr.(k) * jstep.(k))
  done;
  let gstep = !gstep in
  let ntaps = Array.length t.doffs in
  if trel = 0 then fill_boundary t rt ~la;
  let rows = rt.Row_table.rows in
  let e = t.entry0 + trel in
  let shift = trel * t.tshift in
  let points = ref 0 and cls = ref (-1) in
  for i = rt.Row_table.cfirst.(e) to rt.Row_table.cfirst.(e + 1) - 1 do
    let o = 4 * i in
    let base = get rows o + shift in
    let gcell = get rows (o + 1) in
    let len = get rows (o + 2) in
    let cl = get rows (o + 3) in
    if cl <> !cls then begin
      cls := cl;
      Array.blit t.taps (cl * ntaps) t.doffs 0 ntaps
    end;
    if kernel.Kernel.uses_j then Row_table.decode_global rt gcell t.jrow;
    if t.check then begin
      match Kernel.unset_read ~la ~width ~dst:base ~taps:t.doffs ~len with
      | None -> ()
      | Some (s, r) ->
        Row_table.decode_global rt gcell t.jrow;
        nan_error t (Array.mapi (fun k x -> x + (s * jstep.(k))) t.jrow) r
    end;
    points := !points + len;
    log_write t base len;
    (match t.native with
    | Some fn ->
      Native_kernel.row fn ~la ~cur:base ~taps:t.doffs ~jrow:t.jrow ~len
    | None ->
      kernel.Kernel.row ~la ~dst:base ~taps:t.doffs ~len ~j:t.jrow ~jstep
        ~coefs:t.coefs);
    (* the row's cells are final (unpack writes only halo cells), so
       they go to the grid now; both row ends were checked against the
       grid box when the table was built *)
    let g = gcell * width in
    if gstep = width then
      Fbuf.blit ~src:la ~src_pos:(base * width) ~dst:gdata ~dst_pos:g
        ~len:(len * width)
    else
      for s = 0 to len - 1 do
        for f = 0 to width - 1 do
          A1.unsafe_set gdata
            (g + (s * gstep) + f)
            (A1.unsafe_get la (((base + s) * width) + f))
        done
      done
  done;
  !points

(* The cells a message's segments [lo, hi) cover. A message whose
   buffer holds another number of cells moves nothing: the caller
   reports the mismatch. *)
let seg_cells segs lo hi =
  let total = ref 0 in
  for i = lo to hi - 1 do
    total := !total + get segs ((2 * i) + 1)
  done;
  !total

let fast_pack t rt ~trel ~dir ~(la : Fbuf.t) ~(buf : Fbuf.t) =
  let width = t.width in
  let i = ((t.entry0 + trel) * rt.Row_table.ndirs) + dir in
  let segs = rt.Row_table.ssegs in
  let lo = rt.Row_table.sfirst.(i) and hi = rt.Row_table.sfirst.(i + 1) in
  let total = seg_cells segs lo hi in
  if total * width = Fbuf.length buf then begin
    let shift = trel * t.tshift and count = ref 0 in
    for s = lo to hi - 1 do
      let cell = get segs (2 * s) + shift in
      let len = get segs ((2 * s) + 1) in
      Fbuf.blit ~src:la ~src_pos:(cell * width) ~dst:buf
        ~dst_pos:(!count * width) ~len:(len * width);
      count := !count + len
    done
  end;
  total

let fast_unpack t rt ~trel ~nth ~(la : Fbuf.t) ~(buf : Fbuf.t) =
  let width = t.width in
  let i = rt.Row_table.rbase.(t.entry0 + trel) + nth in
  let segs = rt.Row_table.usegs in
  let lo = rt.Row_table.ufirst.(i) and hi = rt.Row_table.ufirst.(i + 1) in
  let total = seg_cells segs lo hi in
  if total * width = Fbuf.length buf then begin
    let shift = trel * t.tshift and count = ref 0 in
    for s = lo to hi - 1 do
      let cell = get segs (2 * s) + shift in
      let len = get segs ((2 * s) + 1) in
      log_write t cell len;
      Fbuf.blit ~src:buf ~src_pos:(!count * width) ~dst:la
        ~dst_pos:(cell * width) ~len:(len * width);
      count := !count + len
    done
  end;
  total

(* ---------------- dispatch ------------------------------------------- *)

let compute_tile t ~trel ~tile ~la ~grid =
  match t.table with
  | None -> reference_compute t ~trel ~tile ~la grid
  | Some rt -> fast_compute t rt ~trel ~la grid

let pack_slab t ~trel ~tile ~dir ~la ~buf =
  match t.table with
  | None ->
    reference_pack t ~trel ~tile ~lo:(Count_table.slab_lo t.counts ~dir) ~la
      ~buf
  | Some rt -> fast_pack t rt ~trel ~dir ~la ~buf

let unpack_slab t ~trel ~nth (rv : Count_table.recv) ~la ~buf =
  match t.table with
  | None ->
    let pred_tile =
      Mapping.join t.mapping ~pid:t.mapping.Mapping.pids.(rv.src) ~ts:rv.tag
    in
    reference_unpack t ~trel ~pred_tile
      ~ds:(Count_table.ds t.counts ~dir:rv.dir ~ds:rv.ds)
      ~lo:(Count_table.slab_lo t.counts ~dir:rv.dir)
      ~la ~buf
  | Some rt -> fast_unpack t rt ~trel ~nth ~la ~buf
