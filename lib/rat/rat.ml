type t = { num : int; den : int }

exception Overflow

let mul_i a b = try Tiles_util.Ints.mul_exn a b with Tiles_util.Ints.Overflow -> raise Overflow
let add_i a b = try Tiles_util.Ints.add_exn a b with Tiles_util.Ints.Overflow -> raise Overflow

let make num den =
  if den = 0 then raise Division_by_zero;
  let s = if den < 0 then -1 else 1 in
  let num = s * num and den = s * den in
  let g = Tiles_util.Ints.gcd num den in
  if g = 0 then { num = 0; den = 1 } else { num = num / g; den = den / g }

let of_int n = { num = n; den = 1 }
let zero = of_int 0
let one = of_int 1
let num t = t.num
let den t = t.den

let add a b = make (add_i (mul_i a.num b.den) (mul_i b.num a.den)) (mul_i a.den b.den)
let neg a = { a with num = -a.num }
let sub a b = add a (neg b)
let mul a b = make (mul_i a.num b.num) (mul_i a.den b.den)

let inv a =
  if a.num = 0 then raise Division_by_zero;
  make a.den a.num

let div a b = mul a (inv b)
let equal a b = a.num = b.num && a.den = b.den

let compare a b =
  (* cross-multiply; denominators are positive *)
  Stdlib.compare (mul_i a.num b.den) (mul_i b.num a.den)

let sign a = Stdlib.compare a.num 0
let is_integer a = a.den = 1
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b
let floor a = Tiles_util.Ints.fdiv a.num a.den
let ceil a = Tiles_util.Ints.cdiv a.num a.den
let to_float a = float_of_int a.num /. float_of_int a.den

let to_int_exn a =
  if a.den <> 1 then invalid_arg "Rat.to_int_exn: not an integer";
  a.num

let pp ppf a =
  if a.den = 1 then Format.fprintf ppf "%d" a.num
  else Format.fprintf ppf "%d/%d" a.num a.den

let to_string a = Format.asprintf "%a" pp a

let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
let ( ~- ) = neg
let ( = ) = equal
let ( < ) a b = compare a b < 0
let ( <= ) a b = compare a b <= 0
let ( > ) a b = compare a b > 0
let ( >= ) a b = compare a b >= 0
