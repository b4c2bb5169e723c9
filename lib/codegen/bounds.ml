module Constr = Tiles_poly.Constr
open C_ast

(* const + sum coeff_j x_j restricted to j < upto (deeper coefficients are
   zero in a projected system) *)
let affine_part c ~upto ~name =
  let acc = ref (Int (Constr.const c)) in
  for j = 0 to upto - 1 do
    let a = Constr.coeff c j in
    if a <> 0 then acc := Add (!acc, Mul (Int a, Var (name j)))
  done;
  !acc

let bound_exprs cs ~var ~name ~pick =
  List.filter_map
    (fun c ->
      let a = Constr.coeff c var in
      (* bounds must come from the projected system: a constraint that
         still mentions a deeper variable cannot be turned into a bound *)
      if a <> 0 then
        for j = var + 1 to Constr.dim c - 1 do
          if Constr.coeff c j <> 0 then
            invalid_arg
              "Bounds: constraint mentions a variable deeper than the loop \
               being bounded; pass the Fourier-Motzkin projected system"
        done;
      pick a (affine_part c ~upto:var ~name))
    cs

let lower cs ~var ~name =
  let lbs =
    bound_exprs cs ~var ~name ~pick:(fun a rest ->
        if a > 0 then Some (CeilDiv (Neg rest, Int a)) else None)
  in
  match lbs with
  | [] -> failwith "Bounds.lower: variable unbounded below"
  | first :: rest -> simplify (List.fold_left (fun acc e -> Max (acc, e)) first rest)

let upper cs ~var ~name =
  let ubs =
    bound_exprs cs ~var ~name ~pick:(fun a rest ->
        if a < 0 then Some (FloorDiv (rest, Int (-a))) else None)
  in
  match ubs with
  | [] -> failwith "Bounds.upper: variable unbounded above"
  | first :: rest -> simplify (List.fold_left (fun acc e -> Min (acc, e)) first rest)


