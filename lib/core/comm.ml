module Vec = Tiles_util.Vec
module Ints = Tiles_util.Ints

type t = {
  m : int;
  d' : Vec.t list;
  max_d' : int array;
  cc : int array;
  off : int array;
  ds : Vec.t list;
  dm : (Vec.t * Vec.t list) list;
}

(* D^S by exact TTIS sweep: for j in the origin tile at local coordinates
   j', iteration j + d lives in tile ⌊(j' + d')/V⌋ componentwise. Legality
   gives d' >= 0, so only points with j'_k >= cc_k = v_k − max_l d'_lk for
   some k can leave the tile: the sweep visits those faces only. A tile
   dependence in {0,1}^n is a bitmask (bit n−1−k for component k, so
   ascending masks are lexicographic vectors); [seen] records the masks
   met, without allocating per point. *)
let tile_deps (tiling : Tiling.t) d's ~cc =
  let n = tiling.n in
  let v = tiling.v in
  let d's = Array.of_list d's in
  let seen = Array.make (1 lsl n) false in
  let reach j' d' i = Ints.fdiv (j'.(i) + d'.(i)) v.(i) in
  let face k =
    Ttis.iter_from tiling
      ~lo:(Array.init n (fun i -> if i = k then cc.(k) else 0))
      (fun j' ->
        for l = 0 to Array.length d's - 1 do
          let d' = d's.(l) in
          let mask = ref 0 in
          for i = 0 to n - 1 do
            match reach j' d' i with
            | 0 -> ()
            | 1 -> mask := !mask lor (1 lsl (n - 1 - i))
            | _ ->
              failwith
                (Printf.sprintf "Comm.make: tile dependence %s outside {0,1}^n"
                   (Vec.to_string (Array.init n (reach j' d'))))
          done;
          seen.(!mask) <- true
        done)
  in
  for k = 0 to n - 1 do
    if cc.(k) < v.(k) then face k
  done;
  List.filter_map
    (fun mask ->
      if seen.(mask) then
        Some (Array.init n (fun i -> (mask lsr (n - 1 - i)) land 1))
      else None)
    (List.init ((1 lsl n) - 1) (fun i -> i + 1))

let reach tiling deps =
  let n = Tiling.dim tiling in
  if not (Tiling.legal_for tiling deps) then
    invalid_arg "Comm.reach: tiling is illegal for these dependencies (H·d < 0)";
  let d' = Tiling.transformed_deps tiling deps in
  let max_d' =
    Array.init n (fun k -> List.fold_left (fun acc v -> max acc v.(k)) 0 d')
  in
  Array.iteri
    (fun k md ->
      if md > tiling.v.(k) then
        invalid_arg
          (Printf.sprintf
             "Comm.reach: dependence reach %d exceeds tile extent v_%d = %d \
              (tile too small: D^S components would exceed 1)"
             md k tiling.v.(k)))
    max_d';
  (d', max_d')

let make tiling deps ~m =
  let n = Tiling.dim tiling in
  if m < 0 || m >= n then invalid_arg "Comm.make: bad mapping dimension";
  let d', max_d' = reach tiling deps in
  let cc = Array.init n (fun k -> tiling.v.(k) - max_d'.(k)) in
  let off =
    Array.init n (fun k ->
        if k = m then tiling.v.(k) / tiling.c.(k)
        else Ints.cdiv max_d'.(k) tiling.c.(k))
  in
  let ds = tile_deps tiling d' ~cc in
  let dm =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun dS ->
        let dm = Vec.remove dS m in
        if not (Vec.is_zero dm) then
          Hashtbl.replace tbl dm
            (dS :: (try Hashtbl.find tbl dm with Not_found -> [])))
      ds;
    (* receive order: descending d^S_m, ties in lexicographic order *)
    let recv_order a b =
      match compare b.(m) a.(m) with 0 -> Vec.compare_lex a b | c -> c
    in
    Hashtbl.fold (fun k v acc -> (k, List.sort recv_order v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> Vec.compare_lex a b)
  in
  { m; d'; max_d'; cc; off; ds; dm }

let dm_of_ds t ds = Vec.remove ds t.m

let slab_lo t ~dm =
  let n = Array.length t.cc in
  Array.init n (fun k ->
      if k = t.m then 0
      else
        let kk = if k < t.m then k else k - 1 in
        dm.(kk) * t.cc.(k))

let pp ppf t =
  Format.fprintf ppf
    "@[<v>comm (m=%d)@ D' = {%s}@ CC = %a@ off = %a@ D^S = {%s}@ D^m = {%s}@]"
    t.m
    (String.concat "; " (List.map Vec.to_string t.d'))
    Vec.pp t.cc Vec.pp t.off
    (String.concat "; " (List.map Vec.to_string t.ds))
    (String.concat "; " (List.map (fun (d, _) -> Vec.to_string d) t.dm))
