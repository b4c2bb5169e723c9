module Rat = Tiles_rat.Rat

type t = Rat.t array array

let of_rows rows =
  match rows with
  | [] -> invalid_arg "Ratmat.of_rows: empty"
  | first :: _ ->
    let cols = List.length first in
    if cols = 0 || List.exists (fun r -> List.length r <> cols) rows then
      invalid_arg "Ratmat.of_rows: ragged rows";
    Array.of_list (List.map Array.of_list rows)

let of_int_rows rows = of_rows (List.map (List.map Rat.of_int) rows)
let of_intmat m = Array.map (Array.map Rat.of_int) m
let rows m = Array.length m
let cols m = Array.length m.(0)

let identity n =
  Array.init n (fun i ->
      Array.init n (fun j -> if i = j then Rat.one else Rat.zero))

let equal a b =
  rows a = rows b && cols a = cols b
  && Array.for_all2 (fun ra rb -> Array.for_all2 Rat.equal ra rb) a b

let mul a b =
  if cols a <> rows b then invalid_arg "Ratmat.mul: dimension mismatch";
  Array.init (rows a) (fun i ->
      Array.init (cols b) (fun j ->
          let acc = ref Rat.zero in
          for k = 0 to cols a - 1 do
            acc := Rat.add !acc (Rat.mul a.(i).(k) b.(k).(j))
          done;
          !acc))

let apply m v =
  if cols m <> Array.length v then invalid_arg "Ratmat.apply";
  Array.init (rows m) (fun i ->
      let acc = ref Rat.zero in
      for k = 0 to cols m - 1 do
        acc := Rat.add !acc (Rat.mul m.(i).(k) v.(k))
      done;
      !acc)

let apply_int m v = apply m (Array.map Rat.of_int v)

let with_elimination m k =
  (* Gauss-Jordan on [m | extra]; returns (det, inverse option). [k] chooses
     whether to build the inverse. *)
  let n = rows m in
  if n <> cols m then invalid_arg "Ratmat: not square";
  let a = Array.map Array.copy m in
  let inv = if k then identity n else [||] in
  let det = ref Rat.one in
  (try
     for c = 0 to n - 1 do
       (* pivot search *)
       let piv = ref (-1) in
       for i = c to n - 1 do
         if !piv = -1 && Rat.sign a.(i).(c) <> 0 then piv := i
       done;
       if !piv = -1 then begin
         det := Rat.zero;
         raise Exit
       end;
       if !piv <> c then begin
         let t = a.(c) in
         a.(c) <- a.(!piv);
         a.(!piv) <- t;
         if k then begin
           let t = inv.(c) in
           inv.(c) <- inv.(!piv);
           inv.(!piv) <- t
         end;
         det := Rat.neg !det
       end;
       let p = a.(c).(c) in
       det := Rat.mul !det p;
       let scale_row r =
         for j = 0 to n - 1 do
           r.(j) <- Rat.div r.(j) p
         done
       in
       scale_row a.(c);
       if k then scale_row inv.(c);
       for i = 0 to n - 1 do
         if i <> c && Rat.sign a.(i).(c) <> 0 then begin
           let f = a.(i).(c) in
           for j = 0 to n - 1 do
             a.(i).(j) <- Rat.sub a.(i).(j) (Rat.mul f a.(c).(j))
           done;
           if k then
             for j = 0 to n - 1 do
               inv.(i).(j) <- Rat.sub inv.(i).(j) (Rat.mul f inv.(c).(j))
             done
         end
       done
     done
   with Exit -> ());
  (!det, if k && Rat.sign !det <> 0 then Some inv else None)

let det m = fst (with_elimination m false)

let inverse m =
  match with_elimination m true with
  | _, Some inv -> inv
  | _, None -> failwith "Ratmat.inverse: singular matrix"

let is_integral m = Array.for_all (Array.for_all Rat.is_integer) m

let to_intmat_exn m =
  if not (is_integral m) then invalid_arg "Ratmat.to_intmat_exn";
  Array.map (Array.map Rat.to_int_exn) m

let row_denominator_lcm m i =
  Array.fold_left (fun acc x -> Tiles_util.Ints.lcm acc (Rat.den x)) 1 m.(i)

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i r ->
      if i > 0 then Format.fprintf ppf "@,";
      Format.fprintf ppf "[%s]"
        (String.concat " " (Array.to_list (Array.map Rat.to_string r))))
    m;
  Format.fprintf ppf "@]"

let to_string m = Format.asprintf "%a" pp m
