module Poly = Tiles_poly
module Polyhedron = Tiles_poly.Polyhedron
module Constr = Tiles_poly.Constr
module Vec = Tiles_util.Vec
module Ints = Tiles_util.Ints
module Rat = Tiles_rat.Rat

type t = { tiling : Tiling.t; space : Polyhedron.t; poly : Polyhedron.t }

(* A combination the elimination built whose integer tightening can
   depend on the scales: with β, α and b its u, z and j coefficients,
   the j terms share a factor [gb] > 1. Over (j^S, j) it reads
   (α_k·v_k, b) with the constant c + β·(v − 1), which the elimination
   for that one tiling floors modulo gcd(gb, α_k·v_k); this elimination
   floored it by [rem]. Where every floor agrees, both eliminations
   combine the same constraints and agree on every constant. *)
type floor = {
  alpha : int array;
  beta : int array;
  gb : int;
  c : int;
  rem : int;
}

(* One elimination over (u, z, j) and the floors it took: exact for every
   tiling whose own floors are the same. *)
type elimination = { floors : floor list; cs : Constr.t list }

type family = {
  fspace : Polyhedron.t;
  h' : Tiles_linalg.Intmat.t;
  eliminations : elimination list Atomic.t;
}

(* Constraints over (u, z, j) ∈ Z^{3n}, as raw coefficients and constant:
   the tile-membership band 0 <= h'_k·j − z_k <= u_k, which is the
   paper's band once z_k = v_k·j^S_k and u_k = v_k − 1, plus J^n lifted
   onto the j part. *)
let family_system space (h' : Tiles_linalg.Intmat.t) =
  let n = Array.length h' in
  let lift c =
    let coeffs = Array.make (3 * n) 0 in
    for i = 0 to n - 1 do
      coeffs.((2 * n) + i) <- Constr.coeff c i
    done;
    (coeffs, Constr.const c)
  in
  let band k =
    let lo = Array.make (3 * n) 0 and hi = Array.make (3 * n) 0 in
    for i = 0 to n - 1 do
      lo.((2 * n) + i) <- h'.(k).(i);
      hi.((2 * n) + i) <- -h'.(k).(i)
    done;
    lo.(n + k) <- -1;
    hi.(n + k) <- 1;
    hi.(k) <- 1;
    [ (lo, 0); (hi, 0) ]
  in
  List.map lift (Polyhedron.constraints space)
  @ List.concat (List.init n band)

let floor_at (v : int array) fl =
  let g = ref fl.gb and c = ref fl.c in
  for k = 0 to Array.length v - 1 do
    g := Ints.gcd !g (fl.alpha.(k) * v.(k));
    c := !c + (fl.beta.(k) * (v.(k) - 1))
  done;
  Ints.fmod !c !g

(* Eliminate j as the elimination over (j^S, j) for the scales [v]
   floors, recording each floor that other scales could take otherwise *)
let eliminate_j space h' v =
  let n = Array.length h' in
  let floors = ref [] in
  let make ~coeffs ~const =
    let gb = ref 0 in
    for i = 2 * n to (3 * n) - 1 do
      gb := Ints.gcd !gb coeffs.(i)
    done;
    if !gb <= 1 then Constr.make ~coeffs ~const
    else begin
      let fl =
        {
          alpha = Array.sub coeffs n n;
          beta = Array.sub coeffs 0 n;
          gb = !gb;
          c = const;
          rem = 0;
        }
      in
      let fl = { fl with rem = floor_at v fl } in
      floors := fl :: !floors;
      Constr.make ~coeffs ~const:(const - fl.rem)
    end
  in
  let cs =
    Poly.Fourier_motzkin.eliminate_all_but ~make
      (List.map (fun (coeffs, const) -> make ~coeffs ~const)
         (family_system space h'))
      ~dim:(3 * n)
      ~keep:(List.init (2 * n) Fun.id)
  in
  { floors = List.sort_uniq compare !floors; cs }

let build_family space h' =
  if Polyhedron.dim space <> Array.length h' then
    invalid_arg "Tile_space.make: dimension";
  (* a bounded non-empty J^n has a bounded non-empty tile space, and H'
     is non-singular: so these two checks, once per family, are what
     rejects a space for every tiling of the family *)
  if Polyhedron.is_empty_rational space then
    invalid_arg "Tile_space.make: empty iteration space";
  ignore (Polyhedron.bounding_box space);
  { fspace = space; h'; eliminations = Atomic.make [] }

(* Process-wide, most recently used first, shared by every domain: the
   tuner's grids and plans, experiments and serve's plan misses all
   instantiate the few families of the shapes they try. *)
let memo_capacity = 64
let max_eliminations = 8
let memo : ((Constr.t list * Tiles_linalg.Intmat.t) * family) list ref = ref []
let memo_lock = Mutex.create ()

let family space h' =
  let key = (Polyhedron.constraints space, h') in
  let hit =
    Mutex.protect memo_lock (fun () ->
        match List.assoc_opt key !memo with
        | Some f as hit ->
          memo := (key, f) :: List.remove_assoc key !memo;
          hit
        | None -> None)
  in
  match hit with
  | Some f -> f
  | None ->
    let f = build_family space h' in
    Mutex.protect memo_lock (fun () ->
        memo :=
          (key, f)
          :: List.filteri
               (fun i _ -> i < memo_capacity - 1)
               (List.remove_assoc key !memo));
    f

(* z_k = v_k·t_k and u_k = v_k − 1 turn each constraint over (u, z) into
   one over t; then normalise, prune and drop what every t satisfies *)
let instantiate f (tiling : Tiling.t) =
  if tiling.h' <> f.h' then invalid_arg "Tile_space.instantiate: H' differs";
  let n = tiling.n and v = tiling.v in
  let exact e = List.for_all (fun fl -> floor_at v fl = fl.rem) e.floors in
  let e =
    match List.find_opt exact (Atomic.get f.eliminations) with
    | Some e -> e
    | None ->
      let e = eliminate_j f.fspace f.h' v in
      Mutex.protect memo_lock (fun () ->
          Atomic.set f.eliminations
            (e
            :: List.filteri
                 (fun i _ -> i < max_eliminations - 1)
                 (Atomic.get f.eliminations)));
      e
  in
  let subst c =
    let const = ref (Constr.const c) in
    for k = 0 to n - 1 do
      const := !const + (Constr.coeff c k * (v.(k) - 1))
    done;
    Constr.make
      ~coeffs:(Array.init n (fun k -> Constr.coeff c (n + k) * v.(k)))
      ~const:!const
  in
  let cs =
    List.filter
      (fun c -> not (Constr.is_tautology c))
      (List.map subst e.cs)
  in
  {
    tiling;
    space = f.fspace;
    poly = Polyhedron.make ~dim:n (Poly.Fourier_motzkin.prune cs);
  }

let make space (tiling : Tiling.t) = instantiate (family space tiling.h') tiling
let candidates t = Polyhedron.points t.poly
let contains t s = Polyhedron.member t.poly s

(* Fast exact P'-application: P' = Q / den with integer Q. *)
let applier_matrix (tiling : Tiling.t) =
  let den =
    Array.fold_left
      (fun acc row ->
        Array.fold_left
          (fun acc x -> Tiles_util.Ints.lcm acc (Rat.den x))
          acc row)
      1 tiling.p'
  in
  let q =
    Array.map (Array.map (fun x -> Rat.num x * (den / Rat.den x))) tiling.p'
  in
  (den, q)

let global_applier (tiling : Tiling.t) =
  let n = tiling.n in
  let den, q = applier_matrix tiling in
  fun (scaled : int array) (dst : int array) ->
    for i = 0 to n - 1 do
      let acc = ref 0 in
      for j = 0 to n - 1 do
        acc := !acc + (q.(i).(j) * scaled.(j))
      done;
      assert (!acc mod den = 0);
      dst.(i) <- !acc / den
    done

let iter_slab_points t ~tile ~lo f =
  let tiling = t.tiling in
  let n = tiling.n in
  let apply = global_applier tiling in
  let scaled = Array.make n 0 in
  let j = Array.make n 0 in
  let base = Array.init n (fun k -> tiling.v.(k) * tile.(k)) in
  Ttis.iter_from tiling ~lo (fun j' ->
      for k = 0 to n - 1 do
        scaled.(k) <- base.(k) + j'.(k)
      done;
      apply scaled j;
      if Polyhedron.member t.space j then f ~local:j' ~global:j)

let iter_tile_points t ~tile f =
  iter_slab_points t ~tile ~lo:(Array.make t.tiling.Tiling.n 0) f

let tile_iterations t tile =
  let n = ref 0 in
  iter_tile_points t ~tile (fun ~local:_ ~global:_ -> incr n);
  !n

(* ---------------- slab counting ---------------- *)

(* one FM chain level, flattened: constraint i bounds the level's
   variable with coefficient ca.(i), constant cc.(i) and prefix
   coefficients cp.(i*var .. i*var+var-1) — [Fourier_motzkin.bounds]
   walks a boxed constraint list with per-coefficient calls, far too
   slow for a per-row operation *)
type level = { ca : int array; cc : int array; cp : int array }

let compile_level cs ~var =
  let cs = Array.of_list cs in
  let nc = Array.length cs in
  let ca = Array.make nc 0 in
  let cc = Array.make nc 0 in
  let cp = Array.make (max 1 (nc * var)) 0 in
  Array.iteri
    (fun i c ->
      ca.(i) <- Constr.coeff c var;
      cc.(i) <- Constr.const c;
      for j = 0 to var - 1 do
        cp.((i * var) + j) <- Constr.coeff c j
      done)
    cs;
  { ca; cc; cp }

let slab_chain ~n ~pull_w ~pull_bden ~v =
  let nn = 2 * n in
  let pulled =
    Array.to_list
      (Array.mapi
         (fun i w ->
           Constr.make ~coeffs:(Array.append w w) ~const:pull_bden.(i))
         pull_w)
  in
  let box =
    List.concat
      (List.init n (fun k ->
           [
             Constr.lower_bound_var nn (n + k) 0;
             Constr.upper_bound_var nn (n + k) (v.(k) - 1);
           ]))
  in
  let p = Poly.Fourier_motzkin.project (pulled @ box) ~dim:nn in
  Array.init n (fun k ->
      compile_level (Poly.Fourier_motzkin.system p ~var:(n + k)) ~var:(n + k))

(* The box constraints of [slab_chain] bound every level on both sides,
   so the min_int/max_int sentinels never survive a non-empty range. *)
let level_bounds lv (pre : int array) ~var ~blo ~bhi =
  let nc = Array.length lv.ca in
  let lo = ref min_int and hi = ref max_int in
  let ok = ref true in
  for i = 0 to nc - 1 do
    let rest = ref (Array.unsafe_get lv.cc i) in
    let off = i * var in
    for j = 0 to var - 1 do
      rest :=
        !rest + (Array.unsafe_get lv.cp (off + j) * Array.unsafe_get pre j)
    done;
    let a = Array.unsafe_get lv.ca i in
    if a > 0 then begin
      let v = Tiles_util.Ints.cdiv (- !rest) a in
      if v > !lo then lo := v
    end
    else if a < 0 then begin
      let v = Tiles_util.Ints.fdiv !rest (-a) in
      if v < !hi then hi := v
    end
    else if !rest < 0 then ok := false
  done;
  if !ok && !lo <= !hi then begin
    blo := !lo;
    bhi := !hi;
    true
  end
  else false

type counter = {
  tiling : Tiling.t;
  den : int;
  q : int array array;
  pull_w : int array array;
  pull_bden : int array;
  boxmin : int array;
  chain : level array;
}

let counter (t : t) =
  let tiling = t.tiling in
  let n = tiling.Tiling.n in
  let den, q = applier_matrix tiling in
  let cs = Polyhedron.constraints t.space in
  let pull_w =
    Array.of_list
      (List.map
         (fun c ->
           Array.init n (fun k ->
               let acc = ref 0 in
               for i = 0 to n - 1 do
                 acc := !acc + (Constr.coeff c i * q.(i).(k))
               done;
               !acc))
         cs)
  in
  let pull_bden = Array.of_list (List.map (fun c -> Constr.const c * den) cs) in
  let boxmin =
    Array.map
      (fun w ->
        let acc = ref 0 in
        for k = 0 to n - 1 do
          acc := !acc + min 0 (w.(k) * (tiling.Tiling.v.(k) - 1))
        done;
        !acc)
      pull_w
  in
  {
    tiling;
    den;
    q;
    pull_w;
    pull_bden;
    boxmin;
    chain = slab_chain ~n ~pull_w ~pull_bden ~v:tiling.Tiling.v;
  }

let is_interior c tile =
  let n = c.tiling.Tiling.n in
  let ok = ref true in
  Array.iteri
    (fun i w ->
      let acc = ref (c.pull_bden.(i) + c.boxmin.(i)) in
      for k = 0 to n - 1 do
        acc := !acc + (w.(k) * c.tiling.Tiling.v.(k) * tile.(k))
      done;
      if !acc < 0 then ok := false)
    c.pull_w;
  !ok

(* The chain was projected against the full tile box; the slab clip is
   an axis-aligned lower bound, so it clamps each level's range here (a
   level emptied by the clamp is skipped by [start <= hi]). *)
let iter_slab_rows c ~pre ~j' ~lo f =
  let tiling = c.tiling in
  let n = tiling.Tiling.n and step = tiling.Tiling.c in
  let blo = ref 0 and bhi = ref 0 in
  let rec go k =
    if level_bounds c.chain.(k) pre ~var:(n + k) ~blo ~bhi then begin
      let hi = !bhi and lb = max !blo lo.(k) in
      let start =
        (* c_k = 1 admits every integer: skip the residue computation
           (it allocates and divides) on unit-step levels *)
        if step.(k) = 1 then lb
        else
          let residue =
            Tiles_linalg.Lattice.first_in_residue tiling.Tiling.lattice k j'
          in
          residue + (step.(k) * Tiles_util.Ints.cdiv (lb - residue) step.(k))
      in
      if start <= hi then
        if k = n - 1 then begin
          j'.(k) <- start;
          f ~j' ~len:(((hi - start) / step.(k)) + 1)
        end
        else begin
          let x = ref start in
          while !x <= hi do
            j'.(k) <- !x;
            pre.(n + k) <- !x;
            go (k + 1);
            x := !x + step.(k)
          done
        end
    end
  in
  go 0

let count_slab c ~tile ~lo =
  let n = c.tiling.Tiling.n in
  let pre = Array.make (2 * n) 0 in
  for k = 0 to n - 1 do
    pre.(k) <- c.tiling.Tiling.v.(k) * tile.(k)
  done;
  let count = ref 0 in
  iter_slab_rows c ~pre ~j':(Array.make n 0) ~lo (fun ~j':_ ~len ->
      count := !count + len);
  !count
