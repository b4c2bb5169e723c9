module Vec = Tiles_util.Vec
module Ints = Tiles_util.Ints
module Rat = Tiles_rat.Rat
module Polyhedron = Tiles_poly.Polyhedron
module Nest = Tiles_loop.Nest
module Shape = Tiles_core.Shape
module Tiling = Tiles_core.Tiling
module Tile_space = Tiles_core.Tile_space
module Mapping = Tiles_core.Mapping

type t = {
  shape : string;
  rows : Vec.t list;
  factors : int array;
  m : int;
}

let tiling c =
  Tiling.of_rows
    (List.mapi
       (fun k row ->
         let f = c.factors.(k) in
         if f <= 0 then invalid_arg "Candidate.tiling: factor <= 0";
         List.map (fun x -> Rat.make x f) (Array.to_list row))
       c.rows)

let label c =
  Printf.sprintf "%s m=%d f=[%s]" c.shape c.m
    (String.concat ","
       (List.map string_of_int (Array.to_list c.factors)))

(* extent of the space along hyperplane direction [row]: range of row·j
   over the bounding-box corners (an over-approximation for skewed spaces,
   which is all the grid seeding needs — the adjustment loop measures real
   process counts) *)
let direction_width bbox row =
  let n = Array.length row in
  let lo = ref 0 and hi = ref 0 in
  let rec corners k acc =
    if k = n then begin
      lo := min !lo acc;
      hi := max !hi acc
    end
    else begin
      let l, h = bbox.(k) in
      corners (k + 1) (acc + (row.(k) * l));
      corners (k + 1) (acc + (row.(k) * h))
    end
  in
  (lo := max_int);
  (hi := min_int);
  corners 0 0;
  !hi - !lo + 1

(* ordered factorisations of [budget] into [slots] positive factors *)
let rec splits budget slots =
  if slots = 0 then if budget = 1 then [ [] ] else []
  else if slots = 1 then [ [ budget ] ]
  else
    List.concat_map
      (fun d ->
        if budget mod d = 0 then
          List.map (fun rest -> d :: rest) (splits (budget / d) (slots - 1))
        else [])
      (List.init budget (fun i -> i + 1))

(* the candidates, and every factor vector whose process count [measure]
   tried, in the order tried *)
let explore ~nest ~procs ~factors ?mapping_dims () =
  if procs < 1 then invalid_arg "Candidate.generate: procs < 1";
  if factors = [] then invalid_arg "Candidate.generate: empty factor sweep";
  let n = Nest.dim nest in
  let deps = nest.Nest.deps in
  let bbox = Polyhedron.bounding_box nest.Nest.space in
  let families = Shape.families deps in
  let mapping_dims =
    match mapping_dims with
    | Some ds ->
      List.iter
        (fun m ->
          if m < 0 || m >= n then
            invalid_arg
              (Printf.sprintf
                 "mapping dimension %d out of range (nest has dimensions 0..%d)"
                 m (n - 1)))
        ds;
      ds
    | None -> List.init n Fun.id
  in
  (* measured process count of a full factor vector, trying the swept
     mapping factors in order until one constructs (the mapping factor does
     not change the non-mapping trip counts, hence not the count itself) *)
  let measure_tbl = Hashtbl.create 64 in
  let tried = ref [] in
  let measure rows m grid =
    let key = (List.map Array.to_list rows, m, Array.to_list grid) in
    match Hashtbl.find_opt measure_tbl key with
    | Some r -> r
    | None ->
      let r =
        List.find_map
          (fun fm ->
            let c = { shape = ""; rows; factors = grid; m } in
            c.factors.(m) <- fm;
            tried := { c with factors = Array.copy c.factors } :: !tried;
            match
              let t = tiling c in
              let ts = Tile_space.make nest.Nest.space t in
              Mapping.nprocs (Mapping.make ~m ts)
            with
            | p -> Some p
            | exception (Invalid_argument _ | Failure _) -> None)
          factors
      in
      Hashtbl.add measure_tbl key r;
      r
  in
  let grids = Hashtbl.create 64 in
  List.iter
    (fun (shape, rows) ->
      let rows_arr = Array.of_list rows in
      List.iter
        (fun m ->
          let non_m = List.filter (fun k -> k <> m) (List.init n Fun.id) in
          List.iter
            (fun split ->
              (* seed: per-dimension factor sized so dim k yields ~p_k
                 processes *)
              let grid = Array.make n (List.hd factors) in
              List.iter2
                (fun k p ->
                  grid.(k) <-
                    max 1 (Ints.cdiv (direction_width bbox rows_arr.(k)) p))
                non_m split;
              (* greedy local adjustment towards the exact budget, never
                 exceeding it *)
              let score g =
                match measure rows m (Array.copy g) with
                | Some p when p <= procs -> Some p
                | _ -> None
              in
              let best = ref (score grid) in
              let improved = ref true in
              while !improved && !best <> Some procs do
                improved := false;
                List.iter
                  (fun k ->
                    List.iter
                      (fun d ->
                        if !best <> Some procs then begin
                          let g = Array.copy grid in
                          g.(k) <- g.(k) + d;
                          if g.(k) >= 1 then
                            match (score g, !best) with
                            | Some p, Some b when p > b ->
                              grid.(k) <- g.(k);
                              best := Some p;
                              improved := true
                            | Some p, None ->
                              grid.(k) <- g.(k);
                              best := Some p;
                              improved := true
                            | _ -> ()
                        end)
                      [ -2; -1; 1; 2 ])
                  non_m
              done;
              match !best with
              | None -> ()
              | Some bestp ->
                (* several neighbouring grids can reach the same process
                   count with different load balance (e.g. SOR's 34 vs 35
                   split of the skewed dimension); among them keep the
                   tightest — smallest factor sum, i.e. least slack *)
                let pick = ref (Array.copy grid) in
                let sum g = Array.fold_left ( + ) 0 g in
                let rec neighbours g = function
                  | [] ->
                    if
                      sum g < sum !pick
                      && (Array.for_all2 ( = ) g !pick |> not)
                      && score g = Some bestp
                    then pick := Array.copy g
                  | k :: ks ->
                    List.iter
                      (fun d ->
                        let g' = Array.copy g in
                        g'.(k) <- g'.(k) + d;
                        if g'.(k) >= 1 then neighbours g' ks)
                      [ -2; -1; 0; 1; 2 ]
                in
                neighbours (Array.copy grid) non_m;
                let key =
                  (List.map Array.to_list rows, m, Array.to_list !pick)
                in
                if not (Hashtbl.mem grids key) then
                  Hashtbl.add grids key (shape, rows, m, !pick))
            (splits procs (List.length non_m)))
        mapping_dims)
    families;
  let out = ref [] in
  Hashtbl.iter
    (fun _ (shape, rows, m, grid) ->
      List.iter
        (fun fm ->
          let factors = Array.copy grid in
          factors.(m) <- fm;
          out := { shape; rows; factors; m } :: !out)
        (List.sort_uniq compare factors))
    grids;
  (List.sort_uniq compare !out, List.rev !tried)

let generate ~nest ~procs ~factors ?mapping_dims () =
  fst (explore ~nest ~procs ~factors ?mapping_dims ())

let measured ~nest ~procs ~factors ?mapping_dims () =
  snd (explore ~nest ~procs ~factors ?mapping_dims ())
