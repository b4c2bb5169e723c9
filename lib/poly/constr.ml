module Ints = Tiles_util.Ints

type t = { coeffs : int array; const : int }

let make ~coeffs ~const =
  let g = Array.fold_left (fun acc c -> Ints.gcd acc c) 0 coeffs in
  if g = 0 then { coeffs = Array.copy coeffs; const = Ints.sign const }
  else
    { coeffs = Array.map (fun c -> c / g) coeffs;
      const = Ints.fdiv const g }

let dim c = Array.length c.coeffs
let coeff c k = c.coeffs.(k)
let const c = c.const
let equal a b = a.coeffs = b.coeffs && a.const = b.const

let compare a b =
  let c = Stdlib.compare a.coeffs b.coeffs in
  if c <> 0 then c else Stdlib.compare a.const b.const

let eval c x = Tiles_util.Vec.dot c.coeffs x + c.const
let holds c x = eval c x >= 0
let all_zero c = Array.for_all (fun v -> v = 0) c.coeffs
let is_tautology c = all_zero c && c.const >= 0
let is_contradiction c = all_zero c && c.const < 0
let ge a b = make ~coeffs:a ~const:(-b)
let le a b = make ~coeffs:(Array.map (fun x -> -x) a) ~const:b
let lower_bound_var n k b =
  let a = Array.make n 0 in
  a.(k) <- 1;
  ge a b

let upper_bound_var n k b =
  let a = Array.make n 0 in
  a.(k) <- 1;
  le a b

let pp ppf c =
  let first = ref true in
  Array.iteri
    (fun i a ->
      if a <> 0 then begin
        if !first then begin
          if a < 0 then Format.fprintf ppf "-";
          first := false
        end
        else Format.fprintf ppf (if a < 0 then " - " else " + ");
        let a = abs a in
        if a = 1 then Format.fprintf ppf "x%d" i
        else Format.fprintf ppf "%d*x%d" a i
      end)
    c.coeffs;
  if !first then Format.fprintf ppf "0";
  Format.fprintf ppf " >= %d" (-c.const)
