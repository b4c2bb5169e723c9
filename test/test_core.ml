module Tiling = Tiles_core.Tiling
module Ttis = Tiles_core.Ttis
module Tile_space = Tiles_core.Tile_space
module Mapping = Tiles_core.Mapping
module Comm = Tiles_core.Comm
module Lds = Tiles_core.Lds
module Plan = Tiles_core.Plan
module Schedule = Tiles_core.Schedule
module Nest = Tiles_loop.Nest
module Dependence = Tiles_loop.Dependence
module Polyhedron = Tiles_poly.Polyhedron
module Rat = Tiles_rat.Rat
module Vec = Tiles_util.Vec

let vec = Alcotest.testable (Fmt.of_to_string Vec.to_string) Vec.equal
let r = Rat.make
let i = Rat.of_int

(* ------------------------------------------------------------------ *)
(* Tilings used throughout: the paper's families at small factors.     *)
(* ------------------------------------------------------------------ *)

(* skewed-SOR non-rectangular tiling: rows (1/x,0,0),(0,1/y,0),(-1/z,0,1/z) *)
let sor_nr x y z =
  Tiling.of_rows
    [ [ r 1 x; i 0; i 0 ]; [ i 0; r 1 y; i 0 ]; [ r (-1) z; i 0; r 1 z ] ]

(* skewed-Jacobi non-rectangular tiling: rows (1/x,-1/2x,0),(0,1/y,0),(0,0,1/z) *)
let jacobi_nr x y z =
  Tiling.of_rows
    [ [ r 1 x; r (-1) (2 * x); i 0 ]; [ i 0; r 1 y; i 0 ]; [ i 0; i 0; r 1 z ] ]

(* ADI nr3: rows (1/x,-1/x,-1/x),(0,1/y,0),(0,0,1/z) *)
let adi_nr3 x y z =
  Tiling.of_rows
    [ [ r 1 x; r (-1) x; r (-1) x ]; [ i 0; r 1 y; i 0 ]; [ i 0; i 0; r 1 z ] ]

(* a 2D tiling with a genuinely non-trivial stride structure: H' =
   [[2,-1],[0,1]] scaled by V = diag(4,4); strides come out (1,2) *)
let oblique2d =
  Tiling.of_rows [ [ r 1 2; r (-1) 4 ]; [ i 0; r 1 4 ] ]

let skewed_sor_deps =
  Dependence.of_vectors
    [ [| 1; 1; 2 |]; [| 0; 1; 0 |]; [| 1; 0; 2 |]; [| 1; 1; 1 |]; [| 0; 0; 1 |] ]

let skewed_jacobi_deps =
  Dependence.of_vectors
    [ [| 1; 1; 1 |]; [| 1; 2; 1 |]; [| 1; 0; 1 |]; [| 1; 1; 2 |]; [| 1; 1; 0 |] ]

let adi_deps =
  Dependence.of_vectors [ [| 1; 0; 0 |]; [| 1; 1; 0 |]; [| 1; 0; 1 |] ]

(* a small skewed-SOR-shaped iteration space: t' in [1,m], i' in
   [t'+1,t'+n], j' in [2t'+1, 2t'+n] *)
let sor_space m n =
  let open Tiles_poly.Constr in
  Polyhedron.make ~dim:3
    [
      lower_bound_var 3 0 1;
      upper_bound_var 3 0 m;
      ge [| -1; 1; 0 |] 1;
      le [| -1; 1; 0 |] n;
      ge [| -2; 0; 1 |] 1;
      le [| -2; 0; 1 |] n;
    ]

let adi_space t n = Polyhedron.box [ (1, t); (1, n); (1, n) ]

(* ------------------------------------------------------------------ *)
(* Tiling construction                                                 *)
(* ------------------------------------------------------------------ *)

let test_tiling_sor_structure () =
  let t = sor_nr 2 3 4 in
  Alcotest.check vec "v" [| 2; 3; 4 |] t.Tiling.v;
  Alcotest.check vec "c" [| 1; 1; 1 |] t.Tiling.c;
  Alcotest.(check int) "tile size" 24 (Tiling.tile_size t)

let test_tiling_jacobi_structure () =
  let t = jacobi_nr 3 4 2 in
  (* v_1 = lcm(3, 6) = 6, strides (1,2,1) *)
  Alcotest.check vec "v" [| 6; 4; 2 |] t.Tiling.v;
  Alcotest.check vec "c" [| 1; 2; 1 |] t.Tiling.c;
  Alcotest.(check int) "tile size" 24 (Tiling.tile_size t);
  Alcotest.(check int) "offset a21" 1 t.Tiling.hnf.(1).(0)

let test_tiling_rectangular () =
  let t = Tiling.rectangular [ 2; 3; 4 ] in
  Alcotest.check vec "v" [| 2; 3; 4 |] t.Tiling.v;
  Alcotest.check vec "c" [| 1; 1; 1 |] t.Tiling.c;
  Alcotest.(check int) "tile size" 24 (Tiling.tile_size t)

let test_tiling_oblique2d () =
  let t = oblique2d in
  Alcotest.check vec "v" [| 4; 4 |] t.Tiling.v;
  Alcotest.check vec "c" [| 1; 2 |] t.Tiling.c;
  Alcotest.(check int) "tile size" 8 (Tiling.tile_size t)

let test_tiling_rejects_bad_divisibility () =
  (* strides (1,2) but v = (4,3): c_2 = 2 does not divide 3 *)
  let rows = [ [ r 1 2; r (-1) 4 ]; [ i 0; r 1 3 ] ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Tiling.of_rows rows);
       false
     with Invalid_argument _ -> true)

let test_tiling_rejects_singular () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Tiling.of_rows [ [ i 1; i 2 ]; [ i 2; i 4 ] ]);
       false
     with Invalid_argument _ -> true)

let test_legality () =
  Alcotest.(check bool) "sor_nr legal" true
    (Tiling.legal_for (sor_nr 2 2 4) skewed_sor_deps);
  (* a tiling with a row opposing the dependencies is illegal *)
  let bad =
    Tiling.of_rows
      [ [ r (-1) 2; i 0; i 0 ]; [ i 0; r 1 2; i 0 ]; [ i 0; i 0; r 1 2 ] ]
  in
  Alcotest.(check bool) "negative row illegal" false
    (Tiling.legal_for bad skewed_sor_deps)

(* ------------------------------------------------------------------ *)
(* TTIS                                                                *)
(* ------------------------------------------------------------------ *)

let all_tilings =
  [
    ("sor_nr 2 3 4", sor_nr 2 3 4);
    ("jacobi_nr 3 4 2", jacobi_nr 3 4 2);
    ("adi_nr3 3 2 4", adi_nr3 3 2 4);
    ("rect 2 3 4", Tiling.rectangular [ 2; 3; 4 ]);
    ("oblique2d", oblique2d);
  ]

let test_ttis_count () =
  List.iter
    (fun (name, t) ->
      Alcotest.(check int)
        (name ^ " count = tile size")
        (Tiling.tile_size t) (Ttis.count t))
    all_tilings

let test_ttis_matches_bruteforce () =
  List.iter
    (fun (name, t) ->
      let fast = ref [] and slow = ref [] in
      Ttis.iter t (fun j' -> fast := Vec.copy j' :: !fast);
      Ttis.iter_bruteforce t (fun j' -> slow := Vec.copy j' :: !slow);
      Alcotest.(check int)
        (name ^ " same points")
        0
        (compare (List.rev !fast) (List.rev !slow)))
    all_tilings

let test_ttis_incremental_matches_iter () =
  (* the paper's Fig. 2 incremental-offset scheme must enumerate exactly
     the same sequence as the triangular-solve enumeration *)
  List.iter
    (fun (name, t) ->
      let a = ref [] and b = ref [] in
      Ttis.iter t (fun j' -> a := Vec.copy j' :: !a);
      Ttis.iter_incremental t (fun j' -> b := Vec.copy j' :: !b);
      Alcotest.(check int) (name ^ " same sequence") 0 (compare !a !b))
    all_tilings

let test_shape_from_cone_adi () =
  (* automatic shape selection reconstructs the paper's H_nr3 for ADI *)
  let tiling = Tiles_core.Shape.from_cone adi_deps ~factors:[ 3; 4; 4 ] in
  let expected =
    Tiling.of_rows
      [ [ r 1 3; r (-1) 3; r (-1) 3 ]; [ i 0; r 1 4; i 0 ]; [ i 0; i 0; r 1 4 ] ]
  in
  Alcotest.(check bool) "equals nr3" true
    (Tiles_linalg.Ratmat.equal tiling.Tiling.h expected.Tiling.h)

let test_shape_from_cone_legal () =
  (* cone-derived rows are legal for the dependencies by construction *)
  List.iter
    (fun deps ->
      match Tiles_core.Shape.from_cone deps ~factors:[ 4; 4; 4 ] with
      | tiling ->
        Alcotest.(check bool) "legal" true (Tiling.legal_for tiling deps)
      | exception Invalid_argument _ -> () (* stride divisibility may fail *))
    [ adi_deps; skewed_sor_deps ]

let test_ttis_mem () =
  let t = jacobi_nr 3 4 2 in
  Alcotest.(check bool) "origin" true (Ttis.mem t [| 0; 0; 0 |]);
  (* (0,1,0) is off-lattice for H' = [[2,-1,0],[0,1,0],[0,0,1]]:
     j' = H'j means j2' = j2, j1' = 2j1 - j2 so (0,1,0) needs 2j1 = 1 *)
  Alcotest.(check bool) "hole" false (Ttis.mem t [| 0; 1; 0 |]);
  Alcotest.(check bool) "lattice point (1,1,0)" true (Ttis.mem t [| 1; 1; 0 |]);
  Alcotest.(check bool) "outside box" false (Ttis.mem t [| 6; 0; 0 |])

let test_ttis_points_are_lattice_images () =
  (* every TTIS point must be H'·j for an integer j in the origin tile *)
  let t = jacobi_nr 3 4 2 in
  Ttis.iter t (fun j' ->
      let j = Tiling.global_of t ~tile:[| 0; 0; 0 |] j' in
      Alcotest.check vec "tile_of j = 0" [| 0; 0; 0 |] (Tiling.tile_of t j);
      Alcotest.check vec "local_of roundtrip" j'
        (Tiling.local_of t ~tile:[| 0; 0; 0 |] j))

(* ------------------------------------------------------------------ *)
(* Tile space: exact partition of J^n                                  *)
(* ------------------------------------------------------------------ *)

let check_partition name space tiling =
  let ts = Tile_space.make space tiling in
  (* 1. every iteration's tile is a candidate *)
  Polyhedron.iter_points space (fun j ->
      let s = Tiling.tile_of tiling j in
      if not (Tile_space.contains ts s) then
        Alcotest.failf "%s: tile %s of %s not candidate" name
          (Vec.to_string s) (Vec.to_string j));
  (* 2. per-tile iteration counts sum to |J^n| *)
  let total =
    List.fold_left
      (fun acc s -> acc + Tile_space.tile_iterations ts s)
      0 (Tile_space.candidates ts)
  in
  Alcotest.(check int) (name ^ " partition total") (Polyhedron.count_points space) total

let test_partition_sor () = check_partition "sor" (sor_space 4 6) (sor_nr 2 3 4)
let test_partition_sor_rect () =
  check_partition "sor-rect" (sor_space 4 6) (Tiling.rectangular [ 2; 3; 4 ])
let test_partition_jacobi () =
  check_partition "jacobi" (adi_space 5 8) (jacobi_nr 3 4 2)
let test_partition_adi () = check_partition "adi" (adi_space 5 7) (adi_nr3 3 2 4)
let test_partition_oblique2d () =
  check_partition "oblique2d" (Polyhedron.box [ (0, 9); (0, 11) ]) oblique2d

let test_slab_points_fast_count () =
  (* the arithmetic (FM + range-count) path must agree with brute-force
     enumeration for every candidate tile and several slab bounds *)
  List.iter
    (fun (name, space, tiling) ->
      let ts = Tile_space.make space tiling in
      let counter = Tile_space.counter ts in
      let n = Tiling.dim tiling in
      List.iter
        (fun s ->
          List.iter
            (fun lo ->
              let brute = ref 0 in
              Tile_space.iter_slab_points ts ~tile:s ~lo
                (fun ~local:_ ~global:_ -> incr brute);
              let label =
                Printf.sprintf "%s tile %s lo %s" name (Vec.to_string s)
                  (Vec.to_string lo)
              in
              Alcotest.(check int) label !brute
                (Tile_space.count_slab counter ~tile:s ~lo);
              if Tile_space.is_interior counter s then
                Alcotest.(check int) (label ^ " interior") !brute
                  (Ttis.count_from tiling ~lo))
            [
              Array.make n 0;
              Array.init n (fun k -> if k = 0 then tiling.Tiling.v.(0) - 1 else 0);
              Array.init n (fun k -> tiling.Tiling.v.(k) / 2);
            ])
        (Tile_space.candidates ts))
    [
      ("sor", sor_space 4 6, sor_nr 2 3 4);
      ("jacobi", adi_space 5 8, jacobi_nr 3 4 2);
      ("adi", adi_space 5 7, adi_nr3 3 2 4);
      ("oblique2d", Polyhedron.box [ (0, 9); (0, 11) ], oblique2d);
    ]

let test_tile_points_lex_and_inside () =
  let space = adi_space 5 7 in
  let ts = Tile_space.make space (adi_nr3 3 2 4) in
  List.iter
    (fun s ->
      let last = ref None in
      Tile_space.iter_tile_points ts ~tile:s (fun ~local ~global ->
          Alcotest.(check bool) "inside space" true (Polyhedron.member space global);
          (match !last with
          | Some prev ->
            Alcotest.(check bool) "lexicographic" true
              (Vec.compare_lex prev local < 0)
          | None -> ());
          last := Some (Vec.copy local)))
    (Tile_space.candidates ts)

(* ------------------------------------------------------------------ *)
(* Mapping                                                             *)
(* ------------------------------------------------------------------ *)

let test_mapping_roundtrip () =
  let ts = Tile_space.make (sor_space 4 6) (sor_nr 2 3 4) in
  let mp = Mapping.make ts in
  List.iter
    (fun s ->
      let pid, t = Mapping.split mp s in
      Alcotest.check vec "join/split" s (Mapping.join mp ~pid ~ts:t);
      Alcotest.(check bool) "valid" true (Mapping.valid mp ~pid ~ts:t);
      match Mapping.rank_of_pid mp pid with
      | None -> Alcotest.fail "pid not found"
      | Some rank -> Alcotest.check vec "pid_of_rank" pid (Mapping.pid_of_rank mp rank))
    (Tile_space.candidates ts)

let test_mapping_covers_all_tiles () =
  let ts = Tile_space.make (adi_space 5 7) (adi_nr3 3 2 4) in
  let mp = Mapping.make ts in
  let from_ranks =
    List.concat (List.init (Mapping.nprocs mp) (Mapping.tiles_of_rank mp))
  in
  Alcotest.(check int) "tile counts"
    (List.length (Tile_space.candidates ts))
    (List.length from_ranks);
  let sorted = List.sort Vec.compare_lex from_ranks in
  Alcotest.(check bool) "same sets" true
    (List.equal Vec.equal sorted (Tile_space.candidates ts))

let test_mapping_max_trip () =
  (* adi_space 5 7 with adi_nr3(3,2,4): the oblique first row
     (t−i−j)/3 spans ⌊−13/3⌋..⌊3/3⌋ = 7 tile indices, more than dims 1
     (4) and 2 (2) — so the max-trip dimension is 0, matching the paper's
     choice of mapping ADI along the first dimension *)
  let ts = Tile_space.make (adi_space 5 7) (adi_nr3 3 2 4) in
  Alcotest.(check int) "m" 0 (Mapping.max_trip_dim ts);
  let mp = Mapping.make ts in
  Alcotest.(check int) "mapping uses it" 0 mp.Mapping.m

let test_mapping_override () =
  let ts = Tile_space.make (adi_space 5 7) (adi_nr3 3 2 4) in
  let mp = Mapping.make ~m:0 ts in
  Alcotest.(check int) "m forced" 0 mp.Mapping.m

(* ------------------------------------------------------------------ *)
(* Comm                                                                *)
(* ------------------------------------------------------------------ *)

let test_comm_sor () =
  let tiling = sor_nr 3 3 3 in
  let comm = Comm.make tiling skewed_sor_deps ~m:2 in
  (* D' = H'·D with H' = [[1,0,0],[0,1,0],[-1,0,1]] *)
  Alcotest.check vec "max d'" [| 1; 1; 1 |] comm.Comm.max_d';
  Alcotest.check vec "CC" [| 2; 2; 2 |] comm.Comm.cc;
  (* off_m = v_m / c_m = 3 for the mapping dimension *)
  Alcotest.check vec "off" [| 1; 1; 3 |] comm.Comm.off;
  List.iter
    (fun d ->
      Alcotest.(check bool) "D^S in {0,1}^3" true
        (Array.for_all (fun x -> x = 0 || x = 1) d))
    comm.Comm.ds

let test_comm_tile_too_small () =
  (* skewed SOR has a dependence with third component 2; for a rectangular
     tile of extent 1 in that dimension (H' = I so d' = d) the tile
     dependence would exceed 1 and must be rejected. The non-rectangular
     tiling absorbs that reach (d'_3 = −d_1 + d_3 = 1), which is exactly
     the point of choosing rows from the tiling cone. *)
  let tiling = Tiling.rectangular [ 3; 3; 1 ] in
  Alcotest.(check bool) "rect z=1 rejected" true
    (try
       ignore (Comm.make tiling skewed_sor_deps ~m:2);
       false
     with Invalid_argument _ -> true);
  (* and the non-rectangular counterpart is accepted *)
  let comm = Comm.make (sor_nr 3 3 1) skewed_sor_deps ~m:2 in
  Alcotest.(check bool) "nr z=1 ok" true (List.length comm.Comm.ds > 0)

(* Two random 3-D cases where Fourier–Motzkin blows up in the tile
   polyhedron, not in the elimination of j that builds it. *)
let c coeffs const = Tiles_poly.Constr.make ~coeffs ~const

(* x0 <= 4, x2 - x0 >= 2, x1 - x0 - x2 >= -6, x1 - x0 >= 1, x0 - x1 >= -3,
   x0 - x2 >= -4, x0 >= 2 *)
let reach_space =
  Polyhedron.make ~dim:3
    [
      c [| -1; 0; 0 |] 4;
      c [| -1; 0; 1 |] (-2);
      c [| -1; 1; -1 |] 6;
      c [| -1; 1; 0 |] (-1);
      c [| 1; -1; 0 |] 3;
      c [| 1; 0; -1 |] 4;
      c [| 1; 0; 0 |] (-2);
    ]

(* H = diag(1/v)·H' with H' = [2 3 3; 1 1 3; 1 3 -2], v = (4, 2, 3) *)
let reach_tiling () =
  Tiling.of_rows
    [
      [ r 2 4; r 3 4; r 3 4 ]; [ r 1 2; r 1 2; r 3 2 ]; [ r 1 3; i 1; r (-2) 3 ];
    ]

(* A case on which projecting the tile polyhedron takes many seconds,
   while the tiling is rejected for a reason that needs none:
   H'·(0,1,1) = (6,4,1) reaches past v_0 = 4. [Plan.make] must find that
   before it builds a tile space and its mapping. *)
let test_plan_rejects_reach_first () =
  let tiling = reach_tiling () in
  Alcotest.(check int) "tile size" 24 (Tiling.tile_size tiling);
  let deps = Dependence.of_vectors [ [| 0; 1; 1 |] ] in
  let nest = Nest.make ~name:"reach" ~space:reach_space ~deps in
  let t0 = Sys.time () in
  let msg =
    match Plan.make nest tiling with
    | _ -> Alcotest.fail "the tiling was accepted"
    | exception Invalid_argument m -> m
  in
  let secs = Sys.time () -. t0 in
  let expected = "dependence reach 6 exceeds tile extent v_0 = 4" in
  Alcotest.(check bool)
    (Printf.sprintf "%S names the reach" msg)
    true
    (Astring.String.is_infix ~affix:expected msg);
  Alcotest.(check bool)
    (Printf.sprintf "rejected in %.3f s CPU, under 1 s" secs)
    true (secs < 1.)

(* The size of the tile polyhedron on the case above and on the slow
   QCheck case {x0 <= 4, x1 <= 1, x2 <= 4, x0 >= 2, x1 >= 0, x2 >= 0,
   x1 + x2 - x0 >= -3} under H' = [3 -2 2; 3 0 -1; 1 1 -2], v = (5,4,5):
   counts, not wall time. Projecting these polyhedra (bounding box,
   mapping, candidate enumeration) takes seconds, so the candidates are
   counted by membership over the box that interval arithmetic gives
   each h'_k·j/v_k on the space's own box. *)
let test_fm_cases_pinned () =
  let seed_space =
    Polyhedron.make ~dim:3
      [
        c [| -1; 0; 0 |] 4;
        c [| 0; -1; 0 |] 1;
        c [| 0; 0; -1 |] 4;
        c [| 1; 0; 0 |] (-2);
        c [| 0; 1; 0 |] 0;
        c [| 0; 0; 1 |] 0;
        c [| -1; 1; 1 |] 3;
      ]
  in
  let seed_tiling =
    Tiling.of_rows
      [
        [ r 3 5; r (-2) 5; r 2 5 ];
        [ r 3 4; i 0; r (-1) 4 ];
        [ r 1 5; r 1 5; r (-2) 5 ];
      ]
  in
  let count (ts : Tile_space.t) =
    let tiling = ts.tiling in
    let box = Polyhedron.bounding_box ts.space in
    let range k =
      let lo = ref 0 and hi = ref 0 in
      Array.iteri
        (fun i (l, h) ->
          let a = tiling.Tiling.h'.(k).(i) in
          lo := !lo + min (a * l) (a * h);
          hi := !hi + max (a * l) (a * h))
        box;
      let v = tiling.Tiling.v.(k) in
      (Tiles_util.Ints.cdiv (!lo - v + 1) v, Tiles_util.Ints.fdiv !hi v)
    in
    let tiles = Polyhedron.box (List.init 3 range) in
    Polyhedron.fold_points tiles ~init:0 ~f:(fun n t ->
        if Tile_space.contains ts t then n + 1 else n)
  in
  List.iter
    (fun (name, space, tiling, constraints, candidates) ->
      let ts = Tile_space.make space tiling in
      Alcotest.(check int)
        (name ^ ": constraints") constraints
        (List.length (Polyhedron.constraints ts.Tile_space.poly));
      Alcotest.(check int) (name ^ ": candidates") candidates (count ts))
    [
      ("reach", reach_space, reach_tiling (), 325, 49);
      ("seed", seed_space, seed_tiling, 187, 14);
    ]

let test_comm_dm_projection () =
  let tiling = adi_nr3 3 2 4 in
  let comm = Comm.make tiling adi_deps ~m:1 in
  List.iter
    (fun (dm, dss) ->
      Alcotest.(check bool) "dm nonzero" false (Vec.is_zero dm);
      List.iter
        (fun ds ->
          Alcotest.check vec "projection consistent" dm (Comm.dm_of_ds comm ds))
        dss)
    comm.Comm.dm

(* ------------------------------------------------------------------ *)
(* LDS: map / map_inv                                                  *)
(* ------------------------------------------------------------------ *)

let test_lds_shape () =
  let tiling = jacobi_nr 3 4 2 in
  let comm = Comm.make tiling skewed_jacobi_deps ~m:0 in
  let shape = Lds.shape tiling comm ~ntiles:5 in
  (* v = (6,4,2), c = (1,2,1); per-tile cells (6,2,2); m = 0 *)
  Alcotest.(check int) "dim m cells" (comm.Comm.off.(0) + (5 * 6)) shape.Lds.dims.(0);
  Alcotest.(check int) "dim 1 cells" (comm.Comm.off.(1) + 2) shape.Lds.dims.(1);
  Alcotest.(check int) "dim 2 cells" (comm.Comm.off.(2) + 2) shape.Lds.dims.(2)

let test_lds_map_roundtrip () =
  List.iter
    (fun (name, tiling, deps, m) ->
      let comm = Comm.make tiling deps ~m in
      for t = 0 to 3 do
        Ttis.iter tiling (fun j' ->
            let j'' = Lds.map tiling comm ~t j' in
            let t', j'r = Lds.map_inv tiling comm j'' in
            Alcotest.(check int) (name ^ " tile idx") t t';
            Alcotest.check vec (name ^ " j'") j' j'r)
      done)
    [
      ("sor", sor_nr 2 3 4, skewed_sor_deps, 2);
      ("jacobi", jacobi_nr 3 4 2, skewed_jacobi_deps, 0);
      ("adi", adi_nr3 3 2 4, adi_deps, 1);
    ]

let test_lds_map_injective () =
  (* distinct (t, j') pairs map to distinct cells *)
  let tiling = jacobi_nr 3 4 2 in
  let comm = Comm.make tiling skewed_jacobi_deps ~m:0 in
  let shape = Lds.shape tiling comm ~ntiles:3 in
  let seen = Hashtbl.create 97 in
  for t = 0 to 2 do
    Ttis.iter tiling (fun j' ->
        let idx = Lds.map_index shape (Lds.map tiling comm ~t j') in
        if Hashtbl.mem seen idx then Alcotest.fail "collision";
        Hashtbl.add seen idx ())
  done;
  Alcotest.(check int) "cells used" (3 * Tiling.tile_size tiling)
    (Hashtbl.length seen)

let test_lds_halo_disjoint () =
  (* halo writes (shifted by -d^S·V) never land in the computation region
     column range of dims <> m *)
  let tiling = sor_nr 3 3 3 in
  let comm = Comm.make tiling skewed_sor_deps ~m:2 in
  List.iter
    (fun ds ->
      if not (Vec.is_zero (Comm.dm_of_ds comm ds)) then
        Ttis.iter tiling (fun j' ->
            if
              Array.for_all2
                (fun x k -> x >= k)
                (Array.mapi (fun k x -> if ds.(k) = 1 then x else max_int) j')
                (Array.mapi (fun k cc -> if ds.(k) = 1 then cc else 0) comm.Comm.cc)
            then begin
              let j'' = Lds.map tiling comm ~t:0 j' in
              Array.iteri
                (fun k x ->
                  if k <> comm.Comm.m && ds.(k) = 1 then begin
                    let shifted = x - (ds.(k) * tiling.Tiling.v.(k) / tiling.Tiling.c.(k)) in
                    Alcotest.(check bool) "halo cell" true
                      (shifted >= 0 && shifted < comm.Comm.off.(k))
                  end)
                j''
            end))
    comm.Comm.ds

let test_lds_map_inv_rejects_halo () =
  let tiling = sor_nr 3 3 3 in
  let comm = Comm.make tiling skewed_sor_deps ~m:2 in
  (* cell (0, ...) is halo storage in dimension 0 (off_0 = 1) *)
  Alcotest.(check bool) "raises" true
    (try
       ignore (Lds.map_inv tiling comm [| 0; 1; 3 |]);
       false
     with Invalid_argument _ -> true)

let test_lds_map_index_bounds () =
  let tiling = sor_nr 3 3 3 in
  let comm = Comm.make tiling skewed_sor_deps ~m:2 in
  let shape = Lds.shape tiling comm ~ntiles:2 in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Lds.map_index shape [| 999; 0; 0 |]);
       false
     with Invalid_argument _ -> true)

let test_lds_rejects_bad_ntiles () =
  let tiling = sor_nr 3 3 3 in
  let comm = Comm.make tiling skewed_sor_deps ~m:2 in
  Alcotest.check_raises "ntiles" (Invalid_argument "Lds.shape: ntiles")
    (fun () -> ignore (Lds.shape tiling comm ~ntiles:0))

let test_global_of_rejects_off_lattice () =
  (* (0,1,0) is an H'-lattice hole for the Jacobi tiling *)
  let t = jacobi_nr 3 4 2 in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Tiling.global_of t ~tile:[| 0; 0; 0 |] [| 0; 1; 0 |]);
       false
     with Invalid_argument _ -> true)

let test_tiling_rejects_nonintegral_p () =
  (* H = [[-1/2, 0], [1/3, 1/2]] passes the stride check but P is not
     integral: tile origins miss the integer grid (reproduction finding
     #2 in DESIGN.md) *)
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Tiling.of_rows [ [ r (-1) 2; i 0 ]; [ r 1 3; r 1 2 ] ]);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Plan: loc / loc_inv (Tables 1 and 2)                                *)
(* ------------------------------------------------------------------ *)

let check_loc_roundtrip name space tiling deps =
  let nest = Nest.make ~name ~space ~deps in
  let plan = Plan.make nest tiling in
  Polyhedron.iter_points space (fun j ->
      let pid, j'' = Plan.loc plan j in
      let j2 = Plan.loc_inv plan ~pid j'' in
      Alcotest.check vec (name ^ " loc roundtrip") j j2)

let test_loc_sor () = check_loc_roundtrip "sor" (sor_space 4 6) (sor_nr 2 3 4) skewed_sor_deps
let test_loc_jacobi () =
  check_loc_roundtrip "jacobi" (adi_space 5 8) (jacobi_nr 3 4 2) skewed_jacobi_deps
let test_loc_adi () = check_loc_roundtrip "adi" (adi_space 5 7) (adi_nr3 3 2 4) adi_deps

let test_loc_distinct_cells () =
  (* loc is injective per processor *)
  let nest = Nest.make ~name:"adi" ~space:(adi_space 5 7) ~deps:adi_deps in
  let plan = Plan.make nest (adi_nr3 3 2 4) in
  let seen = Hashtbl.create 997 in
  Polyhedron.iter_points (adi_space 5 7) (fun j ->
      let pid, j'' = Plan.loc plan j in
      let key = (Vec.to_list pid, Vec.to_list j'') in
      if Hashtbl.mem seen key then Alcotest.fail "loc collision";
      Hashtbl.add seen key ())

(* ------------------------------------------------------------------ *)
(* Schedule: the paper's §4.1 wavefront argument                       *)
(* ------------------------------------------------------------------ *)

let test_schedule_nonrect_fewer_steps () =
  (* same factors, same space: the non-rectangular (tiling-cone) SOR tiling
     must need strictly fewer wavefront steps than the rectangular one *)
  let space = sor_space 8 12 in
  let deps = skewed_sor_deps in
  let plan_r =
    Plan.make (Nest.make ~name:"sor-r" ~space ~deps) (Tiling.rectangular [ 4; 4; 4 ])
  in
  let plan_nr =
    Plan.make (Nest.make ~name:"sor-nr" ~space ~deps) (sor_nr 4 4 4)
  in
  Alcotest.(check bool) "fewer steps" true
    (Schedule.steps plan_nr < Schedule.steps plan_r)

let test_schedule_adi_ordering () =
  (* t_nr3 < t_nr1, t_nr2 < t_r on a space where all four are defined *)
  let space = adi_space 12 12 in
  let deps = adi_deps in
  let mk tiling = Plan.make ~m:0 (Nest.make ~name:"adi" ~space ~deps) tiling in
  let nr1 =
    Tiling.of_rows
      [ [ r 1 3; r (-1) 3; i 0 ]; [ i 0; r 1 3; i 0 ]; [ i 0; i 0; r 1 3 ] ]
  in
  let nr2 =
    Tiling.of_rows
      [ [ r 1 3; i 0; r (-1) 3 ]; [ i 0; r 1 3; i 0 ]; [ i 0; i 0; r 1 3 ] ]
  in
  let s_r = Schedule.steps (mk (Tiling.rectangular [ 3; 3; 3 ])) in
  let s_nr1 = Schedule.steps (mk nr1) in
  let s_nr2 = Schedule.steps (mk nr2) in
  let s_nr3 = Schedule.steps (mk (adi_nr3 3 3 3)) in
  Alcotest.(check bool) "nr1 < r" true (s_nr1 < s_r);
  Alcotest.(check bool) "nr2 < r" true (s_nr2 < s_r);
  Alcotest.(check bool) "nr3 < nr1" true (s_nr3 < s_nr1);
  Alcotest.(check bool) "nr3 < nr2" true (s_nr3 < s_nr2)

let () =
  Alcotest.run "tiles_core"
    [
      ( "tiling",
        [
          Alcotest.test_case "sor structure" `Quick test_tiling_sor_structure;
          Alcotest.test_case "jacobi structure" `Quick test_tiling_jacobi_structure;
          Alcotest.test_case "rectangular" `Quick test_tiling_rectangular;
          Alcotest.test_case "oblique2d" `Quick test_tiling_oblique2d;
          Alcotest.test_case "bad divisibility" `Quick test_tiling_rejects_bad_divisibility;
          Alcotest.test_case "singular" `Quick test_tiling_rejects_singular;
          Alcotest.test_case "non-integral P" `Quick test_tiling_rejects_nonintegral_p;
          Alcotest.test_case "off-lattice global_of" `Quick test_global_of_rejects_off_lattice;
          Alcotest.test_case "legality" `Quick test_legality;
        ] );
      ( "ttis",
        [
          Alcotest.test_case "count" `Quick test_ttis_count;
          Alcotest.test_case "matches bruteforce" `Quick test_ttis_matches_bruteforce;
          Alcotest.test_case "incremental offsets" `Quick test_ttis_incremental_matches_iter;
          Alcotest.test_case "shape from cone (ADI)" `Quick test_shape_from_cone_adi;
          Alcotest.test_case "shape from cone legal" `Quick test_shape_from_cone_legal;
          Alcotest.test_case "mem" `Quick test_ttis_mem;
          Alcotest.test_case "lattice images" `Quick test_ttis_points_are_lattice_images;
        ] );
      ( "tile-space",
        [
          Alcotest.test_case "partition sor" `Quick test_partition_sor;
          Alcotest.test_case "partition sor rect" `Quick test_partition_sor_rect;
          Alcotest.test_case "partition jacobi" `Quick test_partition_jacobi;
          Alcotest.test_case "partition adi" `Quick test_partition_adi;
          Alcotest.test_case "partition oblique2d" `Quick test_partition_oblique2d;
          Alcotest.test_case "slab fast count" `Quick test_slab_points_fast_count;
          Alcotest.test_case "tile points lex+inside" `Quick test_tile_points_lex_and_inside;
          Alcotest.test_case "FM cases pinned by counts" `Quick
            test_fm_cases_pinned;
        ] );
      ( "mapping",
        [
          Alcotest.test_case "roundtrip" `Quick test_mapping_roundtrip;
          Alcotest.test_case "covers all tiles" `Quick test_mapping_covers_all_tiles;
          Alcotest.test_case "max trip" `Quick test_mapping_max_trip;
          Alcotest.test_case "override" `Quick test_mapping_override;
        ] );
      ( "comm",
        [
          Alcotest.test_case "sor vectors" `Quick test_comm_sor;
          Alcotest.test_case "tile too small" `Quick test_comm_tile_too_small;
          Alcotest.test_case "dm projection" `Quick test_comm_dm_projection;
        ] );
      ( "lds",
        [
          Alcotest.test_case "shape" `Quick test_lds_shape;
          Alcotest.test_case "map roundtrip" `Quick test_lds_map_roundtrip;
          Alcotest.test_case "map injective" `Quick test_lds_map_injective;
          Alcotest.test_case "halo disjoint" `Quick test_lds_halo_disjoint;
          Alcotest.test_case "map_inv rejects halo" `Quick test_lds_map_inv_rejects_halo;
          Alcotest.test_case "map_index bounds" `Quick test_lds_map_index_bounds;
          Alcotest.test_case "bad ntiles" `Quick test_lds_rejects_bad_ntiles;
        ] );
      ( "plan",
        [
          Alcotest.test_case "loc roundtrip sor" `Quick test_loc_sor;
          Alcotest.test_case "loc roundtrip jacobi" `Quick test_loc_jacobi;
          Alcotest.test_case "loc roundtrip adi" `Quick test_loc_adi;
          Alcotest.test_case "loc injective" `Quick test_loc_distinct_cells;
          Alcotest.test_case "reach rejected before the tile space" `Quick
            test_plan_rejects_reach_first;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "nonrect fewer steps" `Quick test_schedule_nonrect_fewer_steps;
          Alcotest.test_case "adi ordering" `Quick test_schedule_adi_ordering;
        ] );
    ]
