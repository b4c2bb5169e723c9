module Vec = Tiles_util.Vec
module Fbuf = Tiles_util.Fbuf
module Ints = Tiles_util.Ints
module Intmat = Tiles_linalg.Intmat
module Polyhedron = Tiles_poly.Polyhedron
module Constr = Tiles_poly.Constr
module Tiling = Tiles_core.Tiling
module Tile_space = Tiles_core.Tile_space
module Comm = Tiles_core.Comm
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

type t = {
  variant : variant;
  check : bool;
  rank : int;
  kernel : Kernel.t;
  tiling : Tiling.t;
  comm : Comm.t;
  tspace : Tile_space.t;
  n : int;
  width : int;
  shape : Lds.shape;
  lstr : int array;  (* LDS strides, cells *)
  vpt : int array;  (* v_k / c_k *)
  tshift : int;  (* LDS cell delta per unit of trel *)
  den : int;
  q : int array array;  (* P' = Q/den *)
  jstep : int array;  (* global delta per innermost lattice step *)
  member : int array -> bool;
  reads : Vec.t array;
  reads' : Vec.t array;  (* H'·reads *)
  (* per-tap LDS cell delta tables: the delta for tap i decomposes as
     sum_k fdiv(r_k - d'_k, c_k)·lstr_k with r_k = j'_k mod c_k, so one
     lookup per dimension replaces two floored divisions. dtab.(i) is
     flat over (k, r) with per-dimension offsets [coff]. *)
  dtab : int array array;
  coff : int array;
  (* pullback of each space constraint onto TTIS coordinates: coeff rows
     are tile-independent, only the constant varies per tile (from the
     plan's {!Tile_space.counter}, like [boxmin]) *)
  pull_w : int array array;
  pull_bden : int array;
  (* per-constraint interiority data (see [tile_active] and [row_span]):
     the tap shifts den·(a_i·d_r), per tap r, and their maximum over all
     taps, the minimum of pull_w_i·j' over the local box [0, v-1], and
     the change of pull_w_i·j' per innermost lattice step *)
  tapshift : int array array;  (* tapshift.(r).(i) *)
  maxshift : int array;
  boxmin : int array;
  cslope : int array;
  (* the run's compiled row entry when [variant = Native] and it built;
     [None] runs the OCaml row body *)
  native : Native_kernel.fn option;
  (* the plan's slab chain and pullback, shared by every rank *)
  counter : Tile_space.counter;
  box_lo : int array;  (* all zeros: the unclipped slab corner *)
  (* scratch (one walker per rank; never shared across domains) *)
  vs : int array;  (* V·tile *)
  jpre : int array;  (* FM prefix: [vs | j'] (2n entries) *)
  jp : int array;  (* TTIS row cursor *)
  jrow : int array;  (* global row start *)
  jcur : int array;  (* global point cursor *)
  src : int array;  (* tap source point *)
  rres : int array;  (* per-dim residue table index for the current row *)
  act : int array;  (* indices of the tile's active constraints *)
  wdot : int array;  (* per active constraint: its value at the row start *)
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

let make ~native ~plan ~kernel ~rank ~ntiles ~variant ~check () =
  let tiling = plan.Plan.tiling in
  let comm = plan.Plan.comm in
  let tspace = plan.Plan.tspace in
  let space = plan.Plan.nest.Tiles_loop.Nest.space in
  let n = tiling.Tiling.n in
  let m = comm.Comm.m in
  let width = kernel.Kernel.width in
  let shape = Lds.shape tiling comm ~ntiles in
  let lstr = shape.Lds.strides in
  let vpt = Array.init n (fun k -> tiling.Tiling.v.(k) / tiling.Tiling.c.(k)) in
  let counter = Count_table.counter (Plan.counts plan) in
  let den = counter.Tile_space.den and q = counter.Tile_space.q in
  (* c_{n-1}·e_{n-1} is the last column of the HNF basis, hence a lattice
     vector; its image under P' = Q/den is therefore integral. *)
  let jstep =
    Array.init n (fun i ->
        let num = tiling.Tiling.c.(n - 1) * q.(i).(n - 1) in
        if num mod den <> 0 then
          invalid_arg "Walker.make: non-integral innermost global step";
        num / den)
  in
  let reads = Array.of_list kernel.Kernel.reads in
  let reads' = Array.map (Intmat.apply tiling.Tiling.h') reads in
  let coff = Array.make n 0 in
  for k = 1 to n - 1 do
    coff.(k) <- coff.(k - 1) + tiling.Tiling.c.(k - 1)
  done;
  let csum = coff.(n - 1) + tiling.Tiling.c.(n - 1) in
  let dtab =
    Array.map
      (fun d' ->
        let tab = Array.make csum 0 in
        for k = 0 to n - 1 do
          for r = 0 to tiling.Tiling.c.(k) - 1 do
            tab.(coff.(k) + r) <-
              Ints.fdiv (r - d'.(k)) tiling.Tiling.c.(k) * lstr.(k)
          done
        done;
        tab)
      reads'
  in
  let cs = Polyhedron.constraints space in
  let amat =
    Array.of_list (List.map (fun c -> Array.init n (Constr.coeff c)) cs)
  in
  let pull_w = counter.Tile_space.pull_w in
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
  let cslope =
    Array.map (fun w -> w.(n - 1) * tiling.Tiling.c.(n - 1)) pull_w
  in
  {
    variant;
    check;
    rank;
    kernel;
    tiling;
    comm;
    tspace;
    n;
    width;
    shape;
    lstr;
    vpt;
    tshift = vpt.(m) * lstr.(m);
    den;
    q;
    jstep;
    member = compiled_member space;
    reads;
    reads';
    dtab;
    coff;
    pull_w;
    pull_bden = counter.Tile_space.pull_bden;
    tapshift;
    maxshift;
    boxmin = counter.Tile_space.boxmin;
    cslope;
    native =
      (match variant with Native -> native | Reference | Fastpath -> None);
    counter;
    box_lo = Array.make n 0;
    vs = Array.make n 0;
    jpre = Array.make (2 * n) 0;
    jp = Array.make n 0;
    jrow = Array.make n 0;
    jcur = Array.make n 0;
    src = Array.make n 0;
    rres = Array.make n 0;
    act = Array.make (Array.length pull_w) 0;
    wdot = Array.make (Array.length pull_w) 0;
    doffs = Array.make (Array.length reads) 0;
    out = Array.make width 0.;
    wlog = Array.make 64 0;
    wlen = 0;
  }

let variant t = t.variant
let counter t = t.counter
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

(* LDS cell index of TTIS point [j'] at trel = 0 (Table 1 with the
   tile-relative shift split off: adding [trel * t.tshift] gives the
   cell at chain position trel). *)
let cell0 t (j' : int array) =
  let comm = t.comm and c = t.tiling.Tiling.c in
  let acc = ref 0 in
  for k = 0 to t.n - 1 do
    (* j' >= 0 inside the local box, so truncating division is floored *)
    acc := !acc + (((j'.(k) / c.(k)) + comm.Comm.off.(k)) * t.lstr.(k))
  done;
  !acc

(* Per-tap LDS cell delta for the row containing [j']: constant along the
   row because the innermost coordinate moves in multiples of c_{n-1}.
   Looked up from the residue tables ([j'] is always >= 0 inside the
   local box, so plain [mod] is the residue). *)
let set_row_doffs t (j' : int array) =
  let c = t.tiling.Tiling.c in
  for k = 0 to t.n - 1 do
    t.rres.(k) <- t.coff.(k) + (j'.(k) mod c.(k))
  done;
  for i = 0 to Array.length t.dtab - 1 do
    let tab = t.dtab.(i) in
    let acc = ref 0 in
    for k = 0 to t.n - 1 do
      acc := !acc + Array.unsafe_get tab (Array.unsafe_get t.rres k)
    done;
    t.doffs.(i) <- !acc
  done

(* Global point of TTIS row start: j = Q·(V·tile + j') / den. *)
let set_global t (j' : int array) (dst : int array) =
  let den = t.den in
  for i = 0 to t.n - 1 do
    let acc = ref 0 in
    for k = 0 to t.n - 1 do
      acc := !acc + (t.q.(i).(k) * (t.vs.(k) + j'.(k)))
    done;
    dst.(i) <- (if den = 1 then !acc else !acc / den)
  done

(* Row-wise enumeration of the slab [j' >= lo] of [tile], in
   lexicographic TTIS order (the reference walker's order, so pack
   buffers fill alike). *)
let iter_rows t ~tile ~lo f =
  for k = 0 to t.n - 1 do
    t.vs.(k) <- t.tiling.Tiling.v.(k) * tile.(k);
    t.jpre.(k) <- t.vs.(k)
  done;
  Tile_space.iter_slab_rows t.counter ~pre:t.jpre ~j':t.jp ~lo f

(* ---------------- reference paths (the original per-point code) ------- *)

let reference_compute t ~trel ~tile ~(la : Fbuf.t) grid =
  let n = t.n and width = t.width in
  let tiling = t.tiling and comm = t.comm in
  let points = ref 0 in
  Tile_space.iter_tile_points t.tspace ~tile (fun ~local:j' ~global:j ->
      incr points;
      let read i field =
        let d = t.reads.(i) in
        for k = 0 to n - 1 do
          t.src.(k) <- j.(k) - d.(k)
        done;
        if t.member t.src then begin
          let d' = t.reads'.(i) in
          for k = 0 to n - 1 do
            t.jcur.(k) <- j'.(k) - d'.(k)
          done;
          let j'' = Lds.map tiling comm ~t:trel t.jcur in
          let v = la.{(Lds.map_index t.shape j'' * width) + field} in
          if Float.is_nan v then
            failwith
              (Printf.sprintf
                 "Protocol: rank %d read uninitialised LDS cell for \
                  iteration %s read %d"
                 t.rank (Vec.to_string j) i);
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

(* ---------------- fast paths ----------------------------------------- *)

(* Which pulled constraints can go negative at some tap somewhere in
   [tile]'s bounding box? Exact integer minimisation over the local box
   [0, v-1]: the returned count is 0 exactly when every tap of every
   box point stays inside the space (the tile is interior), and
   [row_span] only needs to test the survivors — usually the one or two
   faces a boundary tile actually touches. Requires [t.vs] to be set for
   the tile. *)
let tile_active t =
  let nc = Array.length t.pull_w in
  let na = ref 0 in
  for i = 0 to nc - 1 do
    let w = t.pull_w.(i) in
    let acc = ref (t.pull_bden.(i) + t.boxmin.(i) - t.maxshift.(i)) in
    for k = 0 to t.n - 1 do
      acc := !acc + (w.(k) * t.vs.(k))
    done;
    if !acc < 0 then begin
      t.act.(!na) <- i;
      incr na
    end
  done;
  !na

(* The active constraints' values at the row starting at TTIS point [j']. *)
let set_row_wdot t (j' : int array) ~na =
  for i = 0 to na - 1 do
    let ci = t.act.(i) in
    let w = t.pull_w.(ci) in
    let acc = ref t.pull_bden.(ci) in
    for k = 0 to t.n - 1 do
      acc := !acc + (w.(k) * (t.vs.(k) + j'.(k)))
    done;
    t.wdot.(i) <- !acc
  done

(* Steps [s0, s1] (inclusive, empty when s0 > s1) of the [len]-point row
   of [set_row_wdot] at which every active constraint, shifted by
   [shift], holds: with [t.maxshift] the steps whose every tap stays in
   the space, with [t.tapshift.(r)] those whose tap r does. Each pulled
   constraint is linear in s with slope [cslope], so the range falls out
   of one integer division per active constraint — no per-point
   membership tests. *)
let row_span t len ~na (shift : int array) =
  let s0 = ref 0 and s1 = ref (len - 1) in
  let i = ref 0 in
  while !s0 <= !s1 && !i < na do
    let ci = t.act.(!i) in
    let base = t.wdot.(!i) - shift.(ci) in
    let slope = t.cslope.(ci) in
    if slope > 0 then s0 := max !s0 (Ints.cdiv (- base) slope)
    else if slope < 0 then s1 := min !s1 (Ints.fdiv base (- slope))
    else if base < 0 then s0 := len;
    incr i
  done;
  (!s0, !s1)

let nan_error t j i =
  failwith
    (Printf.sprintf
       "Protocol: rank %d read uninitialised LDS cell for iteration %s \
        read %d"
       t.rank (Vec.to_string j) i)

(* Boundary values for tap [r] at steps [a, b] of the row at LDS cell
   [base], into the tap cells still NaN. An LDS cell stands for one
   global point for the whole rank run, and unpack and compute write
   only cells of points inside the space, so a filled cell keeps its
   boundary value. *)
let fill_tap t ~(la : Fbuf.t) ~base r a b =
  let n = t.n and width = t.width in
  let d = t.reads.(r) in
  log_write t (base + a + t.doffs.(r)) (b - a + 1);
  for s = a to b do
    let slot = (base + s + t.doffs.(r)) * width in
    for f = 0 to width - 1 do
      if Float.is_nan la.{slot + f} then begin
        for k = 0 to n - 1 do
          t.jcur.(k) <- t.jrow.(k) + (s * t.jstep.(k));
          t.src.(k) <- t.jcur.(k) - d.(k)
        done;
        if t.check && t.member t.src then
          failwith
            (Printf.sprintf
               "Protocol: rank %d boundary fill of in-space cell for \
                iteration %s read %d"
               t.rank (Vec.to_string t.jcur) r);
        la.{slot + f} <- t.kernel.Kernel.boundary t.src f
      end
    done
  done

(* Does every tap of every point of the row at [j'] stay inside the
   space? Leaves the row's [wdot] set for [fill_row]. *)
let row_interior t j' len ~na =
  set_row_wdot t j' ~na;
  let s0, s1 = row_span t len ~na t.maxshift in
  s0 = 0 && s1 = len - 1

(* Fill the out-of-space tap cells of the row of the last
   [row_interior]: each tap's in-space steps form one interval. *)
let fill_row t ~la ~base len ~na =
  for r = 0 to Array.length t.reads - 1 do
    let s0, s1 = row_span t len ~na t.tapshift.(r) in
    if s0 > s1 then fill_tap t ~la ~base r 0 (len - 1)
    else begin
      fill_tap t ~la ~base r 0 (s0 - 1);
      fill_tap t ~la ~base r (s1 + 1) (len - 1)
    end
  done

let fast_compute t ~trel ~tile ~(la : Fbuf.t) grid =
  let n = t.n and width = t.width in
  let kernel = t.kernel in
  let uses_j = kernel.Kernel.uses_j in
  let points = ref 0 in
  let gdata = Grid.data grid and gstr = Grid.strides grid in
  (* grid slots per innermost lattice step *)
  let gstep = ref 0 in
  for k = 0 to n - 1 do
    t.vs.(k) <- t.tiling.Tiling.v.(k) * tile.(k);
    gstep := !gstep + (gstr.(k) * t.jstep.(k))
  done;
  let gstep = !gstep in
  let na = tile_active t in
  let rowfn = if t.check then None else kernel.Kernel.row in
  (* the compute loop's reads: unguarded, off precomputed cell deltas.
     Defined outside the row callback so the closure is allocated once
     per tile. *)
  let cur = ref 0 in
  let read i field =
    let v = A1.unsafe_get la (((!cur + t.doffs.(i)) * width) + field) in
    if t.check && Float.is_nan v then nan_error t t.jcur i;
    v
  in
  let row ~j' ~len =
    points := !points + len;
    let base = cell0 t j' + (trel * t.tshift) in
    set_global t j' t.jrow;
    set_row_doffs t j';
    log_write t base len;
    (match t.native with
    | Some fn ->
      (* native rows cover interior and boundary alike: the compiled
         body guards taps itself on boundary rows *)
      Native_kernel.row fn ~la ~cur:base ~taps:t.doffs ~jrow:t.jrow ~len
        ~interior:(na = 0 || row_interior t j' len ~na)
    | None -> (
      if na > 0 && not (row_interior t j' len ~na) then
        fill_row t ~la ~base len ~na;
      match rowfn with
      | Some rb ->
        (* width = 1 (enforced by Kernel.make), so slots = cells *)
        rb ~la ~dst:base ~taps:t.doffs ~len
      | None ->
        cur := base;
        Array.blit t.jrow 0 t.jcur 0 n;
        for _s = 1 to len do
          kernel.Kernel.compute ~read ~j:t.jcur ~out:t.out;
          let slot = !cur * width in
          for f = 0 to width - 1 do
            A1.unsafe_set la (slot + f) (Array.unsafe_get t.out f)
          done;
          incr cur;
          if uses_j || t.check then
            for k = 0 to n - 1 do
              t.jcur.(k) <- t.jcur.(k) + t.jstep.(k)
            done
        done));
    (* the row's cells are final (unpack writes only halo cells), so
       they go to the grid now, at the row start [set_global] found *)
    let g = Grid.index grid t.jrow 0 in
    if gstep = width then
      Fbuf.blit ~src:la ~src_pos:(base * width) ~dst:gdata ~dst_pos:g
        ~len:(len * width)
    else
      for s = 0 to len - 1 do
        for f = 0 to width - 1 do
          gdata.{g + (s * gstep) + f} <- la.{((base + s) * width) + f}
        done
      done
  in
  iter_rows t ~tile ~lo:t.box_lo row;
  !points

let fast_pack t ~trel ~tile ~lo ~(la : Fbuf.t) ~(buf : Fbuf.t) =
  let width = t.width in
  let count = ref 0 in
  iter_rows t ~tile ~lo (fun ~j' ~len ->
      let cell = cell0 t j' + (trel * t.tshift) in
      Fbuf.blit ~src:la ~src_pos:(cell * width) ~dst:buf
        ~dst_pos:(!count * width) ~len:(len * width);
      count := !count + len);
  !count

let fast_unpack t ~trel ~pred_tile ~ds ~lo ~(la : Fbuf.t) ~(buf : Fbuf.t) =
  let width = t.width in
  (* the received slab lands shifted by -d^S tiles: a constant cell
     delta, precomputed once per slab *)
  let dshift = ref 0 in
  for k = 0 to t.n - 1 do
    dshift := !dshift + (ds.(k) * t.vpt.(k) * t.lstr.(k))
  done;
  let shift = (trel * t.tshift) - !dshift in
  let count = ref 0 in
  iter_rows t ~tile:pred_tile ~lo (fun ~j' ~len ->
      let cell = cell0 t j' + shift in
      log_write t cell len;
      Fbuf.blit ~src:buf ~src_pos:(!count * width) ~dst:la
        ~dst_pos:(cell * width) ~len:(len * width);
      count := !count + len);
  !count

(* ---------------- dispatch ------------------------------------------- *)

let compute_tile t ~trel ~tile ~la ~grid =
  match t.variant with
  | Reference -> reference_compute t ~trel ~tile ~la grid
  | Fastpath | Native -> fast_compute t ~trel ~tile ~la grid

let pack_slab t ~trel ~tile ~lo ~la ~buf =
  match t.variant with
  | Reference -> reference_pack t ~trel ~tile ~lo ~la ~buf
  | Fastpath | Native -> fast_pack t ~trel ~tile ~lo ~la ~buf

let unpack_slab t ~trel ~pred_tile ~ds ~lo ~la ~buf =
  match t.variant with
  | Reference -> reference_unpack t ~trel ~pred_tile ~ds ~lo ~la ~buf
  | Fastpath | Native -> fast_unpack t ~trel ~pred_tile ~ds ~lo ~la ~buf
