module Poly = Tiles_poly
module Polyhedron = Tiles_poly.Polyhedron
module Constr = Tiles_poly.Constr
module Vec = Tiles_util.Vec
module Rat = Tiles_rat.Rat

type t = {
  tiling : Tiling.t;
  space : Polyhedron.t;
  poly : Polyhedron.t;
  bbox : (int * int) array;
}

(* Constraints over (j^S, j) ∈ Z^{2n}:  tile-membership band
   0 <= h'_k·j − v_k·j^S_k <= v_k − 1  plus J^n lifted onto the j part. *)
let combined_system space (tiling : Tiling.t) =
  let n = tiling.n in
  let lift c =
    let coeffs = Array.make (2 * n) 0 in
    for i = 0 to n - 1 do
      coeffs.(n + i) <- Constr.coeff c i
    done;
    Constr.make ~coeffs ~const:(Constr.const c)
  in
  let band k =
    let lo = Array.make (2 * n) 0 and hi = Array.make (2 * n) 0 in
    for i = 0 to n - 1 do
      lo.(n + i) <- tiling.h'.(k).(i);
      hi.(n + i) <- -tiling.h'.(k).(i)
    done;
    lo.(k) <- -tiling.v.(k);
    hi.(k) <- tiling.v.(k);
    [ Constr.make ~coeffs:lo ~const:0;
      Constr.make ~coeffs:hi ~const:(tiling.v.(k) - 1) ]
  in
  List.map lift (Polyhedron.constraints space)
  @ List.concat (List.init n band)

let make space tiling =
  let n = Tiling.dim tiling in
  if Polyhedron.dim space <> n then invalid_arg "Tile_space.make: dimension";
  let sys = combined_system space tiling in
  let projected =
    Poly.Fourier_motzkin.eliminate_all_but sys ~dim:(2 * n)
      ~keep:(List.init n (fun i -> i))
  in
  (* restrict constraints to the first n coordinates *)
  let cs =
    List.map
      (fun c ->
        let coeffs = Array.init n (Constr.coeff c) in
        Constr.make ~coeffs ~const:(Constr.const c))
      projected
  in
  let poly = Polyhedron.make ~dim:n cs in
  let bbox = Polyhedron.bounding_box poly in
  { tiling; space; poly; bbox }

let candidates t = Polyhedron.points t.poly
let contains t s = Polyhedron.member t.poly s
let trip_count t k =
  let lo, hi = t.bbox.(k) in
  hi - lo + 1

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
