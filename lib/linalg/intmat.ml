type t = int array array

let of_rows rows =
  match rows with
  | [] -> invalid_arg "Intmat.of_rows: empty"
  | first :: _ ->
    let cols = List.length first in
    if cols = 0 || List.exists (fun r -> List.length r <> cols) rows then
      invalid_arg "Intmat.of_rows: ragged rows";
    Array.of_list (List.map Array.of_list rows)

let rows m = Array.length m
let cols m = Array.length m.(0)

let of_cols columns =
  let m = of_rows columns in
  Array.init (cols m) (fun j -> Array.init (rows m) (fun i -> m.(i).(j)))

let identity n =
  Array.init n (fun i -> Array.init n (fun j -> if i = j then 1 else 0))

let is_square m = rows m = cols m
let copy m = Array.map Array.copy m
let equal (a : t) (b : t) = a = b
let col m j = Array.init (rows m) (fun i -> m.(i).(j))

let transpose m =
  Array.init (cols m) (fun j -> Array.init (rows m) (fun i -> m.(i).(j)))

let mul a b =
  if cols a <> rows b then invalid_arg "Intmat.mul: dimension mismatch";
  Array.init (rows a) (fun i ->
      Array.init (cols b) (fun j ->
          let acc = ref 0 in
          for k = 0 to cols a - 1 do
            acc := !acc + (a.(i).(k) * b.(k).(j))
          done;
          !acc))

let apply m v =
  if cols m <> Array.length v then invalid_arg "Intmat.apply";
  Array.init (rows m) (fun i -> Tiles_util.Vec.dot m.(i) v)



(* Bareiss fraction-free elimination: all intermediate divisions are exact,
   so the computation stays in the integers. *)
let det m =
  if not (is_square m) then invalid_arg "Intmat.det: not square";
  let n = rows m in
  let a = copy m in
  let sign = ref 1 in
  let prev = ref 1 in
  let result = ref None in
  (try
     for k = 0 to n - 2 do
       if a.(k).(k) = 0 then begin
         (* find a pivot row below *)
         let piv = ref (-1) in
         for i = k + 1 to n - 1 do
           if !piv = -1 && a.(i).(k) <> 0 then piv := i
         done;
         if !piv = -1 then begin
           result := Some 0;
           raise Exit
         end;
         let t = a.(k) in
         a.(k) <- a.(!piv);
         a.(!piv) <- t;
         sign := - !sign
       end;
       for i = k + 1 to n - 1 do
         for j = k + 1 to n - 1 do
           a.(i).(j) <- ((a.(i).(j) * a.(k).(k)) - (a.(i).(k) * a.(k).(j))) / !prev
         done;
         a.(i).(k) <- 0
       done;
       prev := a.(k).(k)
     done
   with Exit -> ());
  match !result with Some d -> d | None -> !sign * a.(n - 1).(n - 1)

let is_unimodular m = is_square m && abs (det m) = 1

let is_lower_triangular m =
  let ok = ref true in
  for i = 0 to rows m - 1 do
    for j = i + 1 to cols m - 1 do
      if m.(i).(j) <> 0 then ok := false
    done
  done;
  !ok

let swap_cols m j1 j2 =
  Array.iter
    (fun r ->
      let t = r.(j1) in
      r.(j1) <- r.(j2);
      r.(j2) <- t)
    m

let add_col m ~src ~dst ~factor =
  Array.iter (fun r -> r.(dst) <- r.(dst) + (factor * r.(src))) m

let neg_col m j = Array.iter (fun r -> r.(j) <- -r.(j)) m

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i r ->
      if i > 0 then Format.fprintf ppf "@,";
      Format.fprintf ppf "[%s]"
        (String.concat " " (Array.to_list (Array.map string_of_int r))))
    m;
  Format.fprintf ppf "@]"

let to_string m = Format.asprintf "%a" pp m
