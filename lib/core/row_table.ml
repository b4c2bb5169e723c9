module Vec = Tiles_util.Vec
module Ints = Tiles_util.Ints
module Intmat = Tiles_linalg.Intmat
module Polyhedron = Tiles_poly.Polyhedron
module Constr = Tiles_poly.Constr
module Fbuf = Tiles_util.Fbuf
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

(* The constraints that some tap of the [len]-point row whose first
   point has [set_wdot] values [wdot] fails, into [act]; returns how
   many. Each constraint is linear in the step, so a row end decides. *)
let binding g ~wdot len (act : int array) =
  let nact = ref 0 in
  for i = 0 to Array.length wdot - 1 do
    let base = wdot.(i) - g.maxshift.(i) in
    if base < 0 || base + ((len - 1) * g.cslope.(i)) < 0 then begin
      act.(!nact) <- i;
      incr nact
    end
  done;
  !nact

(* The steps [s0, s1] (inclusive, empty when [s0 > s1]) of that row at
   which the binding constraints [act] hold with margin [shift.(i)]:
   with [tapshift.(r)], those whose tap [r] stays in the space. One
   integer division per constraint. *)
let row_span g ~wdot len (shift : int array) act nact =
  let s0 = ref 0 and s1 = ref (len - 1) in
  let k = ref 0 in
  while !s0 <= !s1 && !k < nact do
    let i = act.(!k) in
    let base = wdot.(i) - shift.(i) in
    let slope = g.cslope.(i) in
    if slope > 0 then begin
      let s = Ints.cdiv (- base) slope in
      if s > !s0 then s0 := s
    end
    else if slope < 0 then begin
      let s = Ints.fdiv base (- slope) in
      if s < !s1 then s1 := s
    end
    else if base < 0 then s0 := len;
    incr k
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
  bfirst : int array;
  bcells : int array;
  bsegs : i32;
  values : (string * Fbuf.t) option Atomic.t;
  coefs : (string * Fbuf.t) option Atomic.t;
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

(* entries [first, first + count) again, [delta] added to field
   [field] *)
let copy s ~first ~count ~field ~delta =
  for e = first to first + count - 1 do
    for f = 0 to s.width - 1 do
      let x = Int32.to_int (A1.unsafe_get s.out ((s.width * e) + f)) in
      put s f (if f = field then x + delta else x)
    done;
    close s
  done

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
  (* tap-delta classes, numbered as first met, by residue key *)
  let classes = Hashtbl.create 8 in
  let rows = sink 4 and sends = sink 2 and recvs = sink 2 in
  let bsegs = sink (n + 2) in
  let zero = Array.make n 0 in
  let vs = Array.make n 0 and pre = Array.make (2 * n) 0 in
  let j' = Array.make n 0 and jrow = Array.make n 0 in
  let wdot = Array.make (Array.length geo.amat) 0 in
  let act = Array.make (Array.length geo.amat) 0 in
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
          i
    end;
    !last_cls
  in
  (* does some point of the tile's box fail a constraint by margin
     [shift]? With [maxshift]: may a tap leave the space; with 0: is
     the tile clipped *)
  let tile_short shift =
    let pull_w = counter.Tile_space.pull_w in
    let hit = ref false in
    for i = 0 to Array.length pull_w - 1 do
      let acc =
        ref
          (counter.Tile_space.pull_bden.(i) + counter.Tile_space.boxmin.(i)
         - shift.(i))
      in
      for k = 0 to n - 1 do
        acc := !acc + (pull_w.(i).(k) * vs.(k))
      done;
      if !acc < 0 then hit := true
    done;
    !hit
  in
  let nocut = Array.make (Array.length geo.amat) 0 in
  (* An unclipped tile's rows and slabs are those of every unclipped
     tile of the rank, up to the grid cell: the rank's first one is
     walked, and the others copy its entries. [tmpl] maps a key to the
     (first entry, count) of the walked one; [origin0] is the grid cell
     of its origin [j' = 0]. *)
  let tmpl = Hashtbl.create 16 and origin0 = ref 0 in
  let reuse key s ~delta walk =
    match Hashtbl.find_opt tmpl key with
    | Some (first, count) -> copy s ~first ~count ~field:1 ~delta
    | None ->
      let first = s.count in
      walk ();
      Hashtbl.replace tmpl key (first, s.count - first)
  in
  (* the slab of the tile at [vs], keyed by [key] when it is
     unclipped *)
  let slab s lstr ~lo ~shift ~key =
    let walk () =
      Tile_space.iter_slab_rows counter ~pre ~j' ~lo (fun ~j' ~len ->
          add_seg s (cell0 lstr j' - shift) len);
      flush s
    in
    if tile_short nocut then walk () else reuse key s ~delta:0 walk
  in
  let vpt = Array.init n (fun k -> v.(k) / c.(k)) in
  (* The rank's out-of-space tap cells as they are met: each run of
     them keeps its first cell and that cell's point ([n + 1] ints at
     [bl]), and [mark] maps each LDS cell to the first run that holds it
     (-1: none). Marked cells span [cmin, cmax]. *)
  let bw = n + 1 in
  let bl = ref (Array.make (bw * 64) 0) and nb = ref 0 in
  let mark = ref [||] and cmin = ref max_int and cmax = ref (-1) in
  (* Per rank, the LDS cell delta of read [r] on a row of class [cl] at
     [cl·ntaps + r]: sum_k fdiv(res_k - d'_k, c_k)·lstr_k over the
     class's residues [res], filled when the rank first meets the class
     (min_int: not met) *)
  let ntaps = Array.length reads in
  let taps = Array.make (Mapping.nprocs mapping) [||] in
  let last_met = ref (-1) in
  let meet rank lstr cl (j' : int array) =
    if cl <> !last_met then begin
      last_met := cl;
      let tab = taps.(rank) in
      if Array.length tab < (cl + 1) * ntaps then begin
        let grown = Array.make ((cl + 1) * ntaps) min_int in
        Array.blit tab 0 grown 0 (Array.length tab);
        taps.(rank) <- grown
      end;
      let tab = taps.(rank) in
      if tab.(cl * ntaps) = min_int then
        Array.iteri
          (fun r (d' : int array) ->
            let acc = ref 0 in
            for k = 0 to n - 1 do
              acc :=
                !acc
                + (Ints.fdiv ((j'.(k) mod c.(k)) - d'.(k)) c.(k) * lstr.(k))
            done;
            tab.((cl * ntaps) + r) <- !acc)
          geo.reads'
    end
  in
  let add_cells ~rank ~cl ~base r a b =
    if a <= b then begin
      if bw * (!nb + 1) > Array.length !bl then begin
        let grown = Array.make (2 * Array.length !bl) 0 in
        Array.blit !bl 0 grown 0 (bw * !nb);
        bl := grown
      end;
      let o = bw * !nb and d = reads.(r) in
      let cell = base + a + taps.(rank).((cl * ntaps) + r) in
      !bl.(o) <- cell;
      for k = 0 to n - 1 do
        !bl.(o + 1 + k) <- jrow.(k) + (a * geo.jstep.(k)) - d.(k)
      done;
      let mk = !mark in
      for x = cell to cell + b - a do
        if mk.(x) < 0 then mk.(x) <- o
      done;
      if cell < !cmin then cmin := cell;
      if cell + b - a > !cmax then cmax := cell + b - a;
      incr nb
    end
  in
  let ncells = ref 0 in
  (* the current segment's first point, and the last cell's and this
     cell's points *)
  let sp = Array.make n 0 and prev = Array.make n 0 and pt = Array.make n 0 in
  (* the marked cells in order, each checked to lie outside the space; a
     segment runs on while the next cell holds the next point of the
     innermost lattice step *)
  let flush_cells () =
    let l = !bl and mk = !mark in
    let start = ref 0 and len = ref 0 in
    let emit () =
      if !len > 0 then begin
        ncells := !ncells + !len;
        put bsegs 0 !start;
        put bsegs 1 !len;
        for k = 0 to n - 1 do
          put bsegs (2 + k) sp.(k)
        done;
        close bsegs
      end
    in
    for x = !cmin to !cmax do
      let o = mk.(x) in
      if o >= 0 then begin
        mk.(x) <- -1;
        let continues = ref (!len > 0 && x = !start + !len) in
        for k = 0 to n - 1 do
          pt.(k) <- l.(o + 1 + k) + ((x - l.(o)) * geo.jstep.(k));
          if pt.(k) <> prev.(k) + geo.jstep.(k) then continues := false
        done;
        if geo.member pt then
          invalid_arg "Row_table: a boundary cell lies inside the space";
        if !continues then incr len
        else begin
          emit ();
          start := x;
          len := 1;
          Array.blit pt 0 sp 0 n
        end;
        Array.blit pt 0 prev 0 n
      end
    done;
    emit ();
    cmin := max_int;
    cmax := -1;
    nb := 0
  in
  let m = comm.Comm.m in
  let bfirst = Array.make (Mapping.nprocs mapping + 1) 0 in
  let bcells = Array.make (Mapping.nprocs mapping + 1) 0 in
  let nrecv = ref 0 in
  for rank = 0 to Mapping.nprocs mapping - 1 do
    let pid = Mapping.pid_of_rank mapping rank in
    let tlo, thi = Mapping.chain mapping rank in
    let shape = Lds.shape tiling comm ~ntiles:(thi - tlo + 1) in
    let lstr = shape.Lds.strides in
    bfirst.(rank) <- bsegs.count;
    bcells.(rank) <- !ncells;
    if Array.length !mark < shape.Lds.total then
      mark := Array.make shape.Lds.total (-1);
    last_met := -1;
    Hashtbl.reset tmpl;
    for ts = tlo to thi do
      let trel = ts - tlo in
      let e = Count_table.entry counts ~rank ~trel in
      let tile = Mapping.join mapping ~pid ~ts in
      set_tile tile;
      cfirst.(e) <- rows.count;
      let touches = tile_short geo.maxshift in
      let shift = trel * vpt.(m) * lstr.(m) in
      let walk () =
        Tile_space.iter_slab_rows counter ~pre ~j' ~lo:zero (fun ~j' ~len ->
            set_global j';
            let cell = cell0 lstr j' and cl = cls j' in
            meet rank lstr cl j';
            if touches then begin
              set_wdot geo jrow wdot;
              let nact = binding geo ~wdot len act in
              if nact > 0 then begin
                (* a boundary row: each tap's in-space steps form one
                   interval, the rest of the row reads outside *)
                let base = cell + shift in
                for r = 0 to Array.length reads - 1 do
                  let s0, s1 =
                    row_span geo ~wdot len geo.tapshift.(r) act nact
                  in
                  if s0 > s1 then add_cells ~rank ~cl ~base r 0 (len - 1)
                  else begin
                    add_cells ~rank ~cl ~base r 0 (s0 - 1);
                    add_cells ~rank ~cl ~base r (s1 + 1) (len - 1)
                  end
                done
              end
            end;
            put rows 0 cell;
            put rows 1 (gcell len);
            put rows 2 len;
            put rows 3 cl;
            close rows)
      in
      (* an unclipped tile none of whose taps leaves the space: its
         rows' grid cells move with the tile's origin *)
      if touches || tile_short nocut then walk ()
      else begin
        set_global zero;
        let origin = ref 0 in
        for k = 0 to n - 1 do
          origin := !origin + ((jrow.(k) - glo.(k)) * gstr.(k))
        done;
        if not (Hashtbl.mem tmpl `Rows) then origin0 := !origin;
        reuse `Rows rows ~delta:(!origin - !origin0) walk
      end;
      for d = 0 to ndirs - 1 do
        sfirst.((e * ndirs) + d) <- sends.count;
        if Count_table.slab counts ~rank ~trel ~dir:d >= 0 then
          slab sends lstr ~lo:(Count_table.slab_lo counts ~dir:d) ~shift:0
            ~key:(`Send d)
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
            ~shift:!shift ~key:(`Recv (rv.dir, rv.ds)))
        (Count_table.recvs counts ~rank ~trel)
    done;
    flush_cells ()
  done;
  bfirst.(Mapping.nprocs mapping) <- bsegs.count;
  bcells.(Mapping.nprocs mapping) <- !ncells;
  cfirst.(ne) <- rows.count;
  sfirst.(ne * ndirs) <- sends.count;
  rbase.(ne) <- !nrecv;
  ufirst.(!nrecv) <- recvs.count;
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
    bfirst;
    bcells;
    bsegs = trimmed bsegs;
    values = Atomic.make None;
    coefs = Atomic.make None;
  }

let get (a : i32) i = Int32.to_int (A1.unsafe_get a i)

let iter_compute t ~rank ~trel f =
  let e = Count_table.entry t.counts ~rank ~trel in
  for i = t.cfirst.(e) to t.cfirst.(e + 1) - 1 do
    let o = 4 * i in
    f ~cell:(get t.rows o) ~gcell:(get t.rows (o + 1)) ~len:(get t.rows (o + 2))
      ~cls:(get t.rows (o + 3))
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

let boundary_cells t = t.bcells.(Array.length t.bcells - 1)

let iter_boundary t ~rank f =
  let n = Array.length t.glo in
  let j = Array.make n 0 in
  for i = t.bfirst.(rank) to t.bfirst.(rank + 1) - 1 do
    let o = (n + 2) * i in
    for k = 0 to n - 1 do
      j.(k) <- get t.bsegs (o + 2 + k)
    done;
    f ~cell:(get t.bsegs o) ~len:(get t.bsegs (o + 1)) ~j
  done

(* [eval ()] kept in [slot] under [key]: computed outside any lock, so
   a domain that loses the race for the slot drops its copy *)
let keyed slot ~key eval =
  match key with
  | None -> eval ()
  | Some key ->
    let rec find () =
      match Atomic.get slot with
      | Some (k, v) when String.equal k key -> v
      | cur ->
        let v = eval () in
        if Atomic.compare_and_set slot cur (Some (key, v)) then v else find ()
    in
    find ()

(* Every rank's cells in order, [width] slots each. *)
let values t ~key ~width boundary =
  keyed t.values ~key (fun () ->
      let n = Array.length t.glo and jstep = t.geo.jstep in
      let out = Fbuf.create (width * boundary_cells t) in
      let p = Array.make n 0 and slot = ref 0 in
      for rank = 0 to Array.length t.bfirst - 2 do
        iter_boundary t ~rank (fun ~cell:_ ~len ~j ->
            for s = 0 to len - 1 do
              for k = 0 to n - 1 do
                p.(k) <- j.(k) + (s * jstep.(k))
              done;
              for f = 0 to width - 1 do
                A1.unsafe_set out !slot (boundary p f);
                incr slot
              done
            done)
      done;
      out)

let coefs t ~key eval = keyed t.coefs ~key eval
