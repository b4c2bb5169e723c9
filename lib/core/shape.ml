module Cone = Tiles_poly.Cone
module Dependence = Tiles_loop.Dependence
module Vec = Tiles_util.Vec
module Rat = Tiles_rat.Rat
module Intmat = Tiles_linalg.Intmat

(* greedy selection of n linearly independent rays *)
let independent_subset n rays =
  let rec go chosen = function
    | [] -> List.rev chosen
    | r :: rest ->
      if List.length chosen = n then List.rev chosen
      else
        let candidate = Array.of_list (List.map Array.copy (r :: chosen)) in
        (* keep r iff the k rows r :: chosen have a non-zero k×k minor *)
        let k = Array.length candidate in
        let dims = Array.length r in
        let has_nonzero_minor =
          (* enumerate column subsets of size k *)
          let rec cols start picked =
            if List.length picked = k then
              let m =
                Array.init k (fun i ->
                    Array.of_list
                      (List.map (fun c -> candidate.(i).(c)) (List.rev picked)))
              in
              Intmat.det m <> 0
            else if start >= dims then false
            else cols (start + 1) (start :: picked) || cols (start + 1) picked
          in
          cols 0 []
        in
        if has_nonzero_minor then go (r :: chosen) rest else go chosen rest
  in
  go [] rays

(* [n] linearly independent extreme rays, time-like first, then
   lexicographically; [Failure] if the cone is not pointed or fewer than
   [n] independent rays exist *)
let cone_rows deps =
  let n = Dependence.dim deps in
  let cone = Cone.tiling_cone (Dependence.to_matrix deps) in
  let rays = Cone.extreme_rays cone in
  (* time-like first (largest first component), ties broken by descending
     lexicographic order so the selection tracks the axes: for ADI this
     yields (1,-1,-1), (0,1,0), (0,0,1) — the paper's H_nr3 row order *)
  let ordered =
    List.sort
      (fun a b ->
        let c = compare b.(0) a.(0) in
        if c <> 0 then c else Vec.compare_lex b a)
      rays
  in
  let chosen = independent_subset n ordered in
  if List.length chosen <> n then
    failwith "Shape.cone_rows: fewer than n independent extreme rays";
  chosen

let families deps =
  let n = Dependence.dim deps in
  let axis = List.init n (fun k -> Vec.basis n k) in
  let cone = match cone_rows deps with
    | rows -> Some (Array.of_list rows)
    | exception Failure _ -> None
  in
  let legal rows =
    List.for_all
      (fun r ->
        List.for_all (fun d -> Vec.dot r d >= 0) (Dependence.vectors deps))
      rows
  in
  let independent rows =
    Intmat.det (Array.of_list (List.map Array.copy rows)) <> 0
  in
  let name_of mask =
    if mask = 0 then "rect"
    else if mask = (1 lsl n) - 1 then "cone"
    else
      "mix"
      ^ String.concat ""
          (List.filter_map
             (fun k -> if mask land (1 lsl k) <> 0 then Some (string_of_int k) else None)
             (List.init n Fun.id))
  in
  let masks = List.init (1 lsl n) Fun.id in
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun mask ->
      let rows =
        List.init n (fun k ->
            if mask land (1 lsl k) <> 0 then
              match cone with Some c -> c.(k) | None -> List.nth axis k
            else List.nth axis k)
      in
      let key = List.map Array.to_list rows in
      if Hashtbl.mem seen key then None
      else begin
        Hashtbl.add seen key ();
        if legal rows && independent rows then Some (name_of mask, rows)
        else None
      end)
    masks

let from_cone deps ~factors =
  let n = Dependence.dim deps in
  if List.length factors <> n then invalid_arg "Shape.from_cone: factors";
  let rows = cone_rows deps in
  let h =
    List.map2
      (fun ray f ->
        if f <= 0 then invalid_arg "Shape.from_cone: factor <= 0";
        List.init n (fun k -> Rat.make ray.(k) f))
      rows factors
  in
  Tiling.of_rows h
