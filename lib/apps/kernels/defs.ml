open Tiles_kir.Kir

(* the constructors as operators: float arithmetic, and the integer
   sub-language's +: -: *: %: (which parse like + - * and mod) *)
let ( + ) a b = Op (Add, a, b)
let ( - ) a b = Op (Sub, a, b)
let ( * ) a b = Op (Mul, a, b)
let ( / ) a b = Op (Div, a, b)
let ( +: ) a b = Iop (Iadd, a, b)
let ( -: ) a b = Iop (Isub, a, b)
let ( *: ) a b = Iop (Imul, a, b)
let ( %: ) a b = Iop (Imod, a, b)
let c x = Const x
let rd ?(f = 0) d = Rd (d, f)
let fj k = Float (J k)

(* A[t,i,j] := w/4·(A[t,i-1,j] + A[t,i,j-1] + A[t-1,i+1,j] + A[t-1,i,j+1])
              + (1-w)·A[t-1,i,j] *)
let sor =
  let w = c 1.2 in
  make ~name:"sor" ~dim:3
    ~out:
      [ (w / c 4.
         * (rd [| 0; 1; 0 |] + rd [| 0; 0; 1 |] + rd [| 1; -1; 0 |]
           + rd [| 1; 0; -1 |]))
        + ((c 1. - w) * rd [| 1; 0; 0 |]) ]
    ~boundary:[ c 1. + (c 0.25 * Sin ((c 0.7 * fj 1) + (c 1.3 * fj 2))) ]
    ()

let jacobi =
  make ~name:"jacobi" ~dim:3
    ~out:
      [ (rd [| 1; 0; 0 |] + rd [| 1; 1; 0 |] + rd [| 1; -1; 0 |]
        + rd [| 1; 0; 1 |] + rd [| 1; 0; -1 |])
        / c 5. ]
    ~boundary:[ c 2. + (c 0.5 * Cos ((c 0.4 * fj 1) - (c 0.9 * fj 2))) ]
    ()

(* fields X (0) and B (1); a is the static coefficient A[i,j] *)
let adi =
  let x d = rd ~f:0 d and b d = rd ~f:1 d and a = Var "a" in
  let c_, w, n = ([| 1; 0; 0 |], [| 1; 0; 1 |], [| 1; 1; 0 |]) in
  make ~name:"adi" ~dim:3
    ~lets:[ ("a", c 0.1 + (c 0.05 * Sin ((c 0.3 * fj 1) + (c 0.7 * fj 2)))) ]
    ~out:
      [ x c_ + (x w * a / b w) - (x n * a / b n);
        b c_ - (a * a / b w) - (a * a / b n) ]
    ~boundary:
      [ c 1. + (c 0.1 * Sin (c 0.5 * fj 1) * Cos (c 0.3 * fj 2));
        c 4. + (c 0.2 * Cos (c 0.2 * (fj 1 + fj 2))) ]
    ()

(* W[i,j] = a·W[i-1,j] + b·W[i-1,j-1] + c·W[i,j-1] + g(i,j) *)
let triband =
  make ~name:"triband" ~dim:2
    ~out:
      [ (c 0.45 * rd [| 1; 0 |]) + (c 0.25 * rd [| 1; 1 |])
        + (c 0.30 * rd [| 0; 1 |])
        + (c 0.01 * Float (((J 0 *: Int 13) +: (J 1 *: Int 7)) %: Int 17)) ]
    ~boundary:[ c 0.1 + (c 0.05 * Float ((J 0 -: J 1) %: Int 5)) ]
    ()

let all = [ sor; jacobi; adi; triband ]
