module Vec = Tiles_util.Vec
module Ints = Tiles_util.Ints
module Intmat = Tiles_linalg.Intmat
module Polyhedron = Tiles_poly.Polyhedron
module Constr = Tiles_poly.Constr
module A1 = Bigarray.Array1

type i32 = (int32, Bigarray.int32_elt, Bigarray.c_layout) A1.t

let compiled_member space =
  let cs = Array.of_list (Polyhedron.constraints space) in
  let coeffs =
    Array.map (fun c -> Array.init (Constr.dim c) (Constr.coeff c)) cs
  in
  let consts = Array.map Constr.const cs in
  (* a plain early-exit loop: its refs stay in registers, so a call
     allocates nothing *)
  fun (j : int array) ->
    let ok = ref true and c = ref 0 in
    while !ok && !c < Array.length consts do
      let a = coeffs.(!c) in
      let acc = ref consts.(!c) in
      for k = 0 to Array.length a - 1 do
        acc := !acc + (a.(k) * j.(k))
      done;
      ok := !acc >= 0;
      incr c
    done;
    !ok

type geometry = {
  reads : Vec.t array;
  reads' : Vec.t array;
  jstep : int array;
  den : int;
  amat : int array array;
  bden : int array;
  tapshift : int array array;
  maxshift : int array;
  cslope : int array;
  member : int array -> bool;
}

let geometry (counter : Tile_space.counter) space ~reads =
  let tiling = counter.Tile_space.tiling in
  let n = tiling.Tiling.n and c = tiling.Tiling.c in
  let den = counter.Tile_space.den and q = counter.Tile_space.q in
  (* c_{n-1}·e_{n-1} is the last column of the HNF basis, hence a lattice
     vector; its image under P' = Q/den is therefore integral. *)
  let jstep =
    Array.init n (fun i ->
        let num = c.(n - 1) * q.(i).(n - 1) in
        if num mod den <> 0 then
          invalid_arg "Row_table: non-integral innermost global step";
        num / den)
  in
  let cs = Array.of_list (Polyhedron.constraints space) in
  let amat = Array.map (fun c -> Array.init n (Constr.coeff c)) cs in
  (* constraint i holds at tap r of the point with local coordinate j'
     iff pull_w_i·(vs + j') + pull_bden_i - den·(a_i·d_r) >= 0; for all
     taps at once only the largest shift binds *)
  let tapshift =
    Array.map (fun d -> Array.map (fun a -> den * Vec.dot a d) amat) reads
  in
  let maxshift =
    Array.init (Array.length amat) (fun i ->
        Array.fold_left (fun acc sh -> max acc sh.(i)) min_int tapshift)
  in
  {
    reads;
    reads' = Array.map (Intmat.apply tiling.Tiling.h') reads;
    jstep;
    den;
    amat;
    bden = Array.map (fun c -> den * Constr.const c) cs;
    tapshift;
    maxshift;
    cslope =
      Array.map (fun w -> w.(n - 1) * c.(n - 1)) counter.Tile_space.pull_w;
    member = compiled_member space;
  }

(* den·(a_i·j + b_i) for every space constraint i at the global point
   [j]: the pulled constraint's value at the TTIS point of [j], since
   pull_w_i = a_i·Q and Q·(V·tile + j') = den·j *)
let set_wdot g (j : int array) (wdot : int array) =
  for i = 0 to Array.length g.amat - 1 do
    let a = g.amat.(i) in
    let acc = ref 0 in
    for k = 0 to Array.length a - 1 do
      acc := !acc + (a.(k) * j.(k))
    done;
    wdot.(i) <- g.bden.(i) + (g.den * !acc)
  done

let row_span g ~wdot len (shift : int array) =
  let s0 = ref 0 and s1 = ref (len - 1) in
  let i = ref 0 in
  while !s0 <= !s1 && !i < Array.length wdot do
    let base = wdot.(!i) - shift.(!i) in
    let slope = g.cslope.(!i) in
    if slope > 0 then s0 := max !s0 (Ints.cdiv (- base) slope)
    else if slope < 0 then s1 := min !s1 (Ints.fdiv base (- slope))
    else if base < 0 then s0 := len;
    incr i
  done;
  (!s0, !s1)

type t = {
  geo : geometry;
  glo : int array;
  gdims : int array;
  gstr : int array;
  counts : Count_table.t;
  ndirs : int;
  cfirst : int array;
  rows : i32;
  taps : int array array;
  sfirst : int array;
  rbase : int array;
  ufirst : int array;
  ssegs : i32;
  usegs : i32;
}

let reads t = t.geo.reads

let decode_global t gcell (j : int array) =
  let x = ref gcell in
  for k = 0 to Array.length t.gstr - 1 do
    j.(k) <- t.glo.(k) + (!x / t.gstr.(k));
    x := !x mod t.gstr.(k)
  done

(* ---------------- building ---------------- *)

(* Rows and segments go to off-heap buffers that double as they fill,
   trimmed to size once the walk is done. *)
type sink = {
  width : int;  (* int32 fields per entry *)
  mutable count : int;
  mutable out : i32;
  (* segments: the one being merged, which rows that continue it
     extend *)
  mutable pstart : int;
  mutable plen : int;
}

let sink width =
  {
    width;
    count = 0;
    out = A1.create Bigarray.int32 Bigarray.c_layout (width * 256);
    pstart = 0;
    plen = 0;
  }

(* field [f] of a new entry; [f = 0] opens it *)
let put s f v =
  if v < Int32.to_int Int32.min_int || v > Int32.to_int Int32.max_int then
    failwith "Row_table: a cell index exceeds 32 bits";
  let i = (s.width * s.count) + f in
  if i >= A1.dim s.out then begin
    let grown = A1.create Bigarray.int32 Bigarray.c_layout (2 * A1.dim s.out) in
    A1.blit s.out (A1.sub grown 0 (A1.dim s.out));
    s.out <- grown
  end;
  A1.unsafe_set s.out i (Int32.of_int v)

let close s = s.count <- s.count + 1

let trimmed s =
  let a = A1.create Bigarray.int32 Bigarray.c_layout (s.width * s.count) in
  A1.blit (A1.sub s.out 0 (A1.dim a)) a;
  a

let flush s =
  if s.plen > 0 then begin
    put s 0 s.pstart;
    put s 1 s.plen;
    close s;
    s.plen <- 0
  end

let add_seg s cell len =
  if s.plen > 0 && cell = s.pstart + s.plen then s.plen <- s.plen + len
  else begin
    flush s;
    s.pstart <- cell;
    s.plen <- len
  end

let make ~counts ~(tspace : Tile_space.t) ~(mapping : Mapping.t)
    ~(comm : Comm.t) ~reads =
  let counter = Count_table.counter counts in
  let tiling = tspace.Tile_space.tiling in
  let n = tiling.Tiling.n and c = tiling.Tiling.c and v = tiling.Tiling.v in
  let geo = geometry counter tspace.Tile_space.space ~reads in
  let bbox = Polyhedron.bounding_box tspace.Tile_space.space in
  let glo = Array.map fst bbox in
  let gdims = Array.map (fun (l, h) -> h - l + 1) bbox in
  let gstr = Array.make n 1 in
  for k = n - 2 downto 0 do
    gstr.(k) <- gstr.(k + 1) * gdims.(k + 1)
  done;
  let ne = Count_table.entries counts in
  let ndirs = List.length comm.Comm.dm in
  let cfirst = Array.make (ne + 1) 0 in
  let sfirst = Array.make ((ne * ndirs) + 1) 0 in
  let rbase = Array.make (ne + 1) 0 in
  let ufirst = Array.make (Count_table.messages counts + 1) 0 in
  (* tap-delta classes, numbered as first met, by residue key; and the
     residues of each, latest first *)
  let classes = Hashtbl.create 8 and residues = ref [] in
  let rows = sink 4 and sends = sink 2 and recvs = sink 2 in
  let zero = Array.make n 0 in
  let vs = Array.make n 0 and pre = Array.make (2 * n) 0 in
  let j' = Array.make n 0 and jrow = Array.make n 0 in
  let wdot = Array.make (Array.length geo.amat) 0 in
  let last_key = ref (-1) and last_cls = ref 0 in
  let set_tile tile =
    for k = 0 to n - 1 do
      vs.(k) <- v.(k) * tile.(k);
      pre.(k) <- vs.(k)
    done
  in
  let cell0 lstr (j' : int array) =
    let acc = ref 0 in
    for k = 0 to n - 1 do
      acc := !acc + (((j'.(k) / c.(k)) + comm.Comm.off.(k)) * lstr.(k))
    done;
    !acc
  in
  let set_global (j' : int array) =
    let q = counter.Tile_space.q and den = geo.den in
    for i = 0 to n - 1 do
      let acc = ref 0 in
      for k = 0 to n - 1 do
        acc := !acc + (q.(i).(k) * (vs.(k) + j'.(k)))
      done;
      jrow.(i) <- !acc / den
    done
  in
  (* the row's first and last points must lie in the grid box: the
     walker's grid copy is then unchecked *)
  let gcell len =
    let acc = ref 0 in
    for k = 0 to n - 1 do
      let x = jrow.(k) - glo.(k) in
      let y = x + ((len - 1) * geo.jstep.(k)) in
      if x < 0 || x >= gdims.(k) || y < 0 || y >= gdims.(k) then
        invalid_arg "Row_table: row outside the grid box";
      acc := !acc + (x * gstr.(k))
    done;
    !acc
  in
  let cls (j' : int array) =
    let key = ref 0 in
    for k = 0 to n - 1 do
      key := (!key * c.(k)) + (j'.(k) mod c.(k))
    done;
    if !key <> !last_key then begin
      last_key := !key;
      last_cls :=
        match Hashtbl.find_opt classes !key with
        | Some i -> i
        | None ->
          let i = Hashtbl.length classes in
          Hashtbl.add classes !key i;
          residues := Array.map2 (fun x ck -> x mod ck) j' c :: !residues;
          i
    end;
    !last_cls
  in
  (* may a tap of some point of the tile's box leave the space? *)
  let tile_touches () =
    let pull_w = counter.Tile_space.pull_w in
    let hit = ref false in
    for i = 0 to Array.length pull_w - 1 do
      let acc =
        ref
          (counter.Tile_space.pull_bden.(i) + counter.Tile_space.boxmin.(i)
         - geo.maxshift.(i))
      in
      for k = 0 to n - 1 do
        acc := !acc + (pull_w.(i).(k) * vs.(k))
      done;
      if !acc < 0 then hit := true
    done;
    !hit
  in
  let slab s lstr ~lo ~shift =
    Tile_space.iter_slab_rows counter ~pre ~j' ~lo (fun ~j' ~len ->
        add_seg s (cell0 lstr j' - shift) len);
    flush s
  in
  let vpt = Array.init n (fun k -> v.(k) / c.(k)) in
  let nrecv = ref 0 in
  for rank = 0 to Mapping.nprocs mapping - 1 do
    let pid = Mapping.pid_of_rank mapping rank in
    let tlo, thi = Mapping.chain mapping rank in
    let shape = Lds.shape tiling comm ~ntiles:(thi - tlo + 1) in
    let lstr = shape.Lds.strides in
    for ts = tlo to thi do
      let trel = ts - tlo in
      let e = Count_table.entry counts ~rank ~trel in
      let tile = Mapping.join mapping ~pid ~ts in
      set_tile tile;
      cfirst.(e) <- rows.count;
      let touches = tile_touches () in
      Tile_space.iter_slab_rows counter ~pre ~j' ~lo:zero (fun ~j' ~len ->
          set_global j';
          let boundary =
            touches
            &&
            (set_wdot geo jrow wdot;
             let s0, s1 = row_span geo ~wdot len geo.maxshift in
             not (s0 = 0 && s1 = len - 1))
          in
          put rows 0 (cell0 lstr j');
          put rows 1 (gcell len);
          put rows 2 len;
          put rows 3 ((2 * cls j') + if boundary then 1 else 0);
          close rows);
      for d = 0 to ndirs - 1 do
        sfirst.((e * ndirs) + d) <- sends.count;
        if Count_table.slab counts ~rank ~trel ~dir:d >= 0 then
          slab sends lstr ~lo:(Count_table.slab_lo counts ~dir:d) ~shift:0
      done;
      rbase.(e) <- !nrecv;
      List.iter
        (fun (rv : Count_table.recv) ->
          ufirst.(!nrecv) <- recvs.count;
          incr nrecv;
          let pred =
            Mapping.join mapping ~pid:mapping.Mapping.pids.(rv.src) ~ts:rv.tag
          in
          set_tile pred;
          (* the slab lands shifted by -d^S tiles in this rank's array *)
          let ds = Count_table.ds counts ~dir:rv.dir ~ds:rv.ds in
          let shift = ref 0 in
          for k = 0 to n - 1 do
            shift := !shift + (ds.(k) * vpt.(k) * lstr.(k))
          done;
          slab recvs lstr ~lo:(Count_table.slab_lo counts ~dir:rv.dir)
            ~shift:!shift)
        (Count_table.recvs counts ~rank ~trel)
    done
  done;
  cfirst.(ne) <- rows.count;
  sfirst.(ne * ndirs) <- sends.count;
  rbase.(ne) <- !nrecv;
  ufirst.(!nrecv) <- recvs.count;
  let res = Array.of_list (List.rev !residues) in
  let nclass = Array.length res in
  (* per rank and class, each tap's LDS cell delta:
     sum_k fdiv(r_k - d'_k, c_k)·lstr_k *)
  let taps =
    Array.init (Mapping.nprocs mapping) (fun rank ->
        let tlo, thi = Mapping.chain mapping rank in
        let lstr = (Lds.shape tiling comm ~ntiles:(thi - tlo + 1)).Lds.strides in
        let ntaps = Array.length reads in
        let tab = Array.make (nclass * ntaps) 0 in
        for cl = 0 to nclass - 1 do
          for i = 0 to ntaps - 1 do
            let d' = geo.reads'.(i) in
            for k = 0 to n - 1 do
              tab.((cl * ntaps) + i) <-
                tab.((cl * ntaps) + i)
                + (Ints.fdiv (res.(cl).(k) - d'.(k)) c.(k) * lstr.(k))
            done
          done
        done;
        tab)
  in
  {
    geo;
    glo;
    gdims;
    gstr;
    counts;
    ndirs;
    cfirst;
    rows = trimmed rows;
    taps;
    sfirst;
    rbase;
    ufirst;
    ssegs = trimmed sends;
    usegs = trimmed recvs;
  }

let get (a : i32) i = Int32.to_int (A1.unsafe_get a i)

let iter_compute t ~rank ~trel f =
  let e = Count_table.entry t.counts ~rank ~trel in
  for i = t.cfirst.(e) to t.cfirst.(e + 1) - 1 do
    let o = 4 * i in
    let cb = get t.rows (o + 3) in
    f ~cell:(get t.rows o) ~gcell:(get t.rows (o + 1)) ~len:(get t.rows (o + 2))
      ~cls:(cb lsr 1) ~boundary:(cb land 1 = 1)
  done

let iter_segs segs lo hi f =
  for i = lo to hi - 1 do
    f ~cell:(get segs (2 * i)) ~len:(get segs ((2 * i) + 1))
  done

let iter_send t ~rank ~trel ~dir f =
  let i = (Count_table.entry t.counts ~rank ~trel * t.ndirs) + dir in
  iter_segs t.ssegs t.sfirst.(i) t.sfirst.(i + 1) f

let iter_recv t ~rank ~trel ~nth f =
  let i = t.rbase.(Count_table.entry t.counts ~rank ~trel) + nth in
  iter_segs t.usegs t.ufirst.(i) t.ufirst.(i + 1) f
