type t = int array

let dim = Array.length
let zero n = Array.make n 0

let basis n k =
  if k < 0 || k >= n then invalid_arg "Vec.basis";
  let v = Array.make n 0 in
  v.(k) <- 1;
  v

let map2 f a b =
  if Array.length a <> Array.length b then invalid_arg "Vec.map2";
  Array.init (Array.length a) (fun i -> f a.(i) b.(i))

let add a b = map2 ( + ) a b
let sub a b = map2 ( - ) a b
let neg a = Array.map (fun x -> -x) a
let scale s a = Array.map (fun x -> s * x) a

let dot a b =
  if Array.length a <> Array.length b then invalid_arg "Vec.dot";
  let acc = ref 0 in
  Array.iteri (fun i x -> acc := !acc + (x * b.(i))) a;
  !acc

let equal a b = a = b

let compare_lex a b =
  if Array.length a <> Array.length b then invalid_arg "Vec.compare_lex";
  let rec go i =
    if i = Array.length a then 0
    else
      let c = compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let is_zero a = Array.for_all (fun x -> x = 0) a

let is_lex_positive a =
  let rec go i =
    if i = Array.length a then false
    else if a.(i) > 0 then true
    else if a.(i) < 0 then false
    else go (i + 1)
  in
  go 0

let sum a = Array.fold_left ( + ) 0 a
let copy = Array.copy
let to_list = Array.to_list

let pp ppf v =
  Format.fprintf ppf "(%s)"
    (String.concat ", " (List.map string_of_int (to_list v)))

let to_string v = Format.asprintf "%a" pp v

let insert v k x =
  let n = Array.length v in
  if k < 0 || k > n then invalid_arg "Vec.insert";
  Array.init (n + 1) (fun i ->
      if i < k then v.(i) else if i = k then x else v.(i - 1))

let remove v k =
  let n = Array.length v in
  if k < 0 || k >= n then invalid_arg "Vec.remove";
  Array.init (n - 1) (fun i -> if i < k then v.(i) else v.(i + 1))

let permute_to_last v k =
  let n = Array.length v in
  if k < 0 || k >= n then invalid_arg "Vec.permute_to_last";
  Array.init n (fun i ->
      if i < k then v.(i) else if i = n - 1 then v.(k) else v.(i + 1))
