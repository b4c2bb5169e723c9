module Ints = Tiles_util.Ints

(* On a [Constr.compare]-sorted list, constraints with equal (gcd-normalised)
   coefficient vectors are adjacent with ascending constants: the first of
   each run, a·x + b >= 0 with the smallest b, implies the others. *)
let rec prune_sorted = function
  | a :: b :: tl when a.Constr.coeffs = b.Constr.coeffs -> prune_sorted (a :: tl)
  | a :: tl -> a :: prune_sorted tl
  | [] -> []

let prune cs = prune_sorted (List.sort_uniq Constr.compare cs)

let eliminate ?(make = Constr.make) cs ~var =
  let pos = ref [] and neg = ref [] and zero = ref [] in
  List.iter
    (fun c ->
      let a = Constr.coeff c var in
      if a > 0 then pos := c :: !pos
      else if a < 0 then neg := c :: !neg
      else zero := c :: !zero)
    cs;
  let combos =
    List.concat_map
      (fun p ->
        List.map
          (fun q ->
            let a = Constr.coeff p var and b = -Constr.coeff q var in
            (* b·p + a·q cancels x_var *)
            let coeffs =
              Array.init (Constr.dim p) (fun i ->
                  (b * Constr.coeff p i) + (a * Constr.coeff q i))
            in
            let const = (b * Constr.const p) + (a * Constr.const q) in
            make ~coeffs ~const)
          !neg)
      !pos
  in
  prune (List.filter (fun c -> not (Constr.is_tautology c)) (!zero @ combos))

let eliminate_all_but ?make cs ~dim ~keep =
  let rec go cs var =
    if var < 0 then cs
    else if List.mem var keep then go cs (var - 1)
    else go (eliminate ?make cs ~var) (var - 1)
  in
  go cs (dim - 1)

type projection = { dim : int; systems : Constr.t list array }

let project cs ~dim =
  let systems = Array.make (max dim 1) (prune cs) in
  for k = dim - 2 downto 0 do
    systems.(k) <- eliminate systems.(k + 1) ~var:(k + 1)
  done;
  { dim; systems }

let system p ~var =
  if var < 0 || var >= p.dim then invalid_arg "Fourier_motzkin.system";
  p.systems.(var)

type range = { mutable lo : int; mutable hi : int }

(* int comparisons: the polymorphic [max]/[min] would call the runtime *)
let raise_lo r v = if v > r.lo then r.lo <- v
let lower_hi r v = if v < r.hi then r.hi <- v

(* min_int / max_int stand for "no bound yet"; a constant contradiction
   at this prefix empties the range *)
let rec tighten cs ~var ~prefix r =
  match cs with
  | [] -> ()
  | c :: tl ->
    let a = Constr.coeff c var in
    (* rest = sum_{j<var} coeff_j * prefix_j + const; deeper variables have
       zero coefficients in S_var by construction. *)
    let rest = ref (Constr.const c) in
    for j = 0 to var - 1 do
      rest := !rest + (Constr.coeff c j * prefix.(j))
    done;
    if a > 0 then raise_lo r (Ints.cdiv (- !rest) a)
    else if a < 0 then lower_hi r (Ints.fdiv !rest (-a))
    else if !rest < 0 then begin
      raise_lo r 1;
      lower_hi r 0
    end;
    tighten tl ~var ~prefix r

let range p ~var ~prefix r =
  if Array.length prefix < var then invalid_arg "Fourier_motzkin.bounds";
  r.lo <- min_int;
  r.hi <- max_int;
  tighten p.systems.(var) ~var ~prefix r;
  if r.lo = min_int then
    failwith "Fourier_motzkin.bounds: variable unbounded below";
  if r.hi = max_int then
    failwith "Fourier_motzkin.bounds: variable unbounded above"

let bounds p ~var ~prefix =
  let r = { lo = 0; hi = 0 } in
  range p ~var ~prefix r;
  if r.lo <= r.hi then Some (r.lo, r.hi) else None
