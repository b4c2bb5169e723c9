module Constr = Tiles_poly.Constr
module FM = Tiles_poly.Fourier_motzkin
module Polyhedron = Tiles_poly.Polyhedron
module Cone = Tiles_poly.Cone
module Intmat = Tiles_linalg.Intmat
module Vec = Tiles_util.Vec

let vec = Alcotest.testable (Fmt.of_to_string Vec.to_string) Vec.equal

(* ---------- Constr ---------- *)

let test_constr_normalise () =
  (* 2x >= 3  tightens to  x >= 2 *)
  let c = Constr.ge [| 2 |] 3 in
  Alcotest.(check int) "coeff" 1 (Constr.coeff c 0);
  Alcotest.(check int) "const" (-2) (Constr.const c);
  Alcotest.(check bool) "x=2 holds" true (Constr.holds c [| 2 |]);
  Alcotest.(check bool) "x=1 fails" false (Constr.holds c [| 1 |])

let test_constr_tautology () =
  Alcotest.(check bool) "0 >= -1" true (Constr.is_tautology (Constr.ge [| 0 |] (-1)));
  Alcotest.(check bool) "0 >= 1" true (Constr.is_contradiction (Constr.ge [| 0 |] 1))

let test_constr_le () =
  let c = Constr.le [| 1; 1 |] 5 in
  Alcotest.(check bool) "(2,3)" true (Constr.holds c [| 2; 3 |]);
  Alcotest.(check bool) "(3,3)" false (Constr.holds c [| 3; 3 |])

(* ---------- Fourier–Motzkin ---------- *)

let test_fm_triangle () =
  (* x >= 0, y >= 0, x + y <= 3: eliminating y gives 0 <= x <= 3 *)
  let cs = [ Constr.ge [| 1; 0 |] 0; Constr.ge [| 0; 1 |] 0; Constr.le [| 1; 1 |] 3 ] in
  let projected = FM.eliminate cs ~var:1 in
  let p1 = Polyhedron.make ~dim:2 projected in
  Alcotest.(check bool) "x=3 in" true (Polyhedron.member p1 [| 3; 0 |]);
  Alcotest.(check bool) "x=4 out" false (Polyhedron.member p1 [| 4; 0 |]);
  Alcotest.(check bool) "x=-1 out" false (Polyhedron.member p1 [| -1; 0 |])

let test_fm_bounds () =
  let cs = [ Constr.ge [| 1; 0 |] 0; Constr.ge [| 0; 1 |] 0; Constr.le [| 1; 1 |] 3 ] in
  let proj = FM.project cs ~dim:2 in
  (match FM.bounds proj ~var:0 ~prefix:[||] with
  | Some (lo, hi) ->
    Alcotest.(check int) "x lo" 0 lo;
    Alcotest.(check int) "x hi" 3 hi
  | None -> Alcotest.fail "x range empty");
  match FM.bounds proj ~var:1 ~prefix:[| 2 |] with
  | Some (lo, hi) ->
    Alcotest.(check int) "y lo" 0 lo;
    Alcotest.(check int) "y hi" 1 hi
  | None -> Alcotest.fail "y range empty"

let test_fm_unbounded () =
  let cs = [ Constr.ge [| 1 |] 0 ] in
  let proj = FM.project cs ~dim:1 in
  Alcotest.check_raises "unbounded above"
    (Failure "Fourier_motzkin.bounds: variable unbounded above") (fun () ->
      ignore (FM.bounds proj ~var:0 ~prefix:[||]))

(* a row walk's bounds reuse one scratch range: walking ten times the
   rows allocates no more than a constant *)
let test_iter_rows_no_alloc () =
  let small = Polyhedron.box [ (0, 9); (0, 9); (0, 4) ]
  and large = Polyhedron.box [ (0, 99); (0, 9); (0, 4) ] in
  let words p =
    let before = Gc.minor_words () in
    Polyhedron.iter_rows p (fun _ _ -> ());
    Gc.minor_words () -. before
  in
  (* the first walk builds and memoises the projection *)
  ignore (words small);
  ignore (words large);
  let w1 = words small and w10 = words large in
  Alcotest.(check bool)
    (Printf.sprintf "minor words %.0f (100 rows) vs %.0f (1000 rows)" w1 w10)
    true
    (w10 -. w1 < 64.)

(* ---------- Polyhedron ---------- *)

let test_box_count () =
  let p = Polyhedron.box [ (1, 3); (0, 2) ] in
  Alcotest.(check int) "count" 9 (Polyhedron.count_points p);
  Alcotest.(check bool) "member" true (Polyhedron.member p [| 2; 1 |]);
  Alcotest.(check bool) "not member" false (Polyhedron.member p [| 0; 0 |])

let test_simplex_count () =
  (* x,y,z >= 0, x+y+z <= 3: C(6,3) = 20 points *)
  let cs =
    [
      Constr.ge [| 1; 0; 0 |] 0;
      Constr.ge [| 0; 1; 0 |] 0;
      Constr.ge [| 0; 0; 1 |] 0;
      Constr.le [| 1; 1; 1 |] 3;
    ]
  in
  let p = Polyhedron.make ~dim:3 cs in
  Alcotest.(check int) "count" 20 (Polyhedron.count_points p)

let test_empty () =
  let p = Polyhedron.make ~dim:1 [ Constr.ge [| 1 |] 5; Constr.le [| 1 |] 3 ] in
  Alcotest.(check bool) "empty" true (Polyhedron.is_empty_rational p);
  Alcotest.(check int) "no points" 0 (Polyhedron.count_points p)

let test_bounding_box () =
  let cs = [ Constr.ge [| 1; 0 |] 0; Constr.ge [| 0; 1 |] 0; Constr.le [| 2; 1 |] 7 ] in
  let p = Polyhedron.make ~dim:2 cs in
  let bb = Polyhedron.bounding_box p in
  Alcotest.(check (pair int int)) "x" (0, 3) bb.(0);
  Alcotest.(check (pair int int)) "y" (0, 7) bb.(1)

let test_enumeration_matches_membership () =
  (* every enumerated point is a member, and enumeration finds all members
     of the bounding box *)
  let cs =
    [
      Constr.ge [| 1; 0 |] (-1);
      Constr.le [| 1; 0 |] 6;
      Constr.ge [| 1; 1 |] 2;
      Constr.le [| 1; 2 |] 8;
      Constr.ge [| 0; 1 |] (-5);
    ]
  in
  let p = Polyhedron.make ~dim:2 cs in
  let pts = Polyhedron.points p in
  List.iter
    (fun x -> Alcotest.(check bool) "member" true (Polyhedron.member p x))
    pts;
  let bb = Polyhedron.bounding_box p in
  let brute = ref 0 in
  for x = fst bb.(0) to snd bb.(0) do
    for y = fst bb.(1) to snd bb.(1) do
      if Polyhedron.member p [| x; y |] then incr brute
    done
  done;
  Alcotest.(check int) "counts agree" !brute (List.length pts)

let test_skew_transform () =
  let p = Polyhedron.box [ (0, 2); (0, 2) ] in
  let t = Intmat.of_rows [ [ 1; 0 ]; [ 1; 1 ] ] in
  let q = Polyhedron.transform_unimodular t p in
  Alcotest.(check int) "same cardinality" (Polyhedron.count_points p)
    (Polyhedron.count_points q);
  Alcotest.(check bool) "image point" true (Polyhedron.member q [| 2; 4 |]);
  Alcotest.(check bool) "non-image" false (Polyhedron.member q [| 0; 3 |])

let prop_fm_soundness =
  (* points of the polyhedron project into the eliminated system *)
  QCheck.Test.make ~name:"FM projection soundness" ~count:200
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 5)
           (pair (pair (int_range (-3) 3) (int_range (-3) 3)) (int_range (-5) 5)))
        (pair (int_range (-4) 4) (int_range (-4) 4)))
    (fun (rows, (x, y)) ->
      let cs =
        List.map (fun ((a, b), c) -> Constr.ge [| a; b |] c) rows
        @ [ Constr.ge [| 1; 0 |] (-10); Constr.le [| 1; 0 |] 10;
            Constr.ge [| 0; 1 |] (-10); Constr.le [| 0; 1 |] 10 ]
      in
      let point = [| x; y |] in
      let in_full = List.for_all (fun c -> Constr.holds c point) cs in
      if not in_full then QCheck.assume_fail ()
      else
        let elim = FM.eliminate cs ~var:1 in
        List.for_all (fun c -> Constr.holds c point) elim)

(* Random 2-D and 3-D systems clipped to the box [-4, 4]^n. Each "twin"
   re-adds a row scaled by k with its constant moved, so parallel
   constraints that the elimination must prune appear from the start. *)
let arb_boxed_system =
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 3 in
      let row = pair (array_size (return n) (int_range (-3) 3)) (int_range (-6) 6) in
      let* rows = list_size (int_range 1 6) row in
      let* twins =
        list_size (int_range 0 3)
          (triple (int_range 0 5) (int_range 1 3) (int_range (-4) 4))
      in
      let twin (i, k, shift) =
        let a, b = List.nth rows (i mod List.length rows) in
        (Array.map (fun x -> k * x) a, (k * b) + shift)
      in
      return (n, rows @ List.map twin twins))
  in
  let print (n, rows) =
    Printf.sprintf "n=%d %s" n
      (String.concat "; "
         (List.map (fun (a, b) -> Printf.sprintf "%s>=%d" (Vec.to_string a) b) rows))
  in
  QCheck.make ~print gen

let prop_fm_enumeration_exact =
  (* iter_points (FM bounds) finds exactly the brute-force point set, and
     no projected system keeps two constraints with one coefficient vector *)
  QCheck.Test.make ~name:"FM enumeration exact vs brute force" ~count:300
    arb_boxed_system (fun (n, rows) ->
      let box = List.init n (fun _ -> (-4, 4)) in
      let p =
        Polyhedron.inter (Polyhedron.box box)
          (Polyhedron.make ~dim:n (List.map (fun (a, b) -> Constr.ge a b) rows))
      in
      let enumerated = Polyhedron.points p in
      let brute = ref [] in
      let x = Array.make n 0 in
      let rec go k =
        if k = n then (if Polyhedron.member p x then brute := Vec.copy x :: !brute)
        else
          for v = -4 to 4 do
            x.(k) <- v;
            go (k + 1)
          done
      in
      go 0;
      let proj = Polyhedron.projection p in
      let distinct_coeffs cs =
        let keys = List.map (fun c -> Array.init n (Constr.coeff c)) cs in
        List.length (List.sort_uniq compare keys) = List.length keys
      in
      enumerated = List.rev !brute
      && List.for_all (fun k -> distinct_coeffs (FM.system proj ~var:k))
           (List.init n Fun.id))

(* ---------- Cone ---------- *)

let test_first_orthant () =
  let c = Cone.of_constraints (Intmat.identity 3) in
  Alcotest.(check bool) "pointed" true (Cone.is_pointed c);
  let rays = Cone.extreme_rays c in
  Alcotest.(check int) "three rays" 3 (List.length rays);
  List.iter
    (fun r -> Alcotest.(check bool) "ray in cone" true (Cone.contains c r))
    rays;
  Alcotest.check vec "first ray" [| 0; 0; 1 |] (List.hd rays)

let test_tiling_cone_adi () =
  (* ADI deps: columns (1,0,0),(1,1,0),(1,0,1); the paper's cone matrix C
     rows are (1,-1,-1),(0,1,0),(0,0,1) *)
  let d = Intmat.of_cols [ [ 1; 0; 0 ]; [ 1; 1; 0 ]; [ 1; 0; 1 ] ] in
  let cone = Cone.tiling_cone d in
  Alcotest.(check bool) "pointed" true (Cone.is_pointed cone);
  let rays = Cone.extreme_rays cone in
  Alcotest.(check int) "three rays" 3 (List.length rays);
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "ray %s present" (Vec.to_string expected))
        true
        (List.exists (Vec.equal expected) rays))
    [ [| 1; -1; -1 |]; [| 0; 1; 0 |]; [| 0; 0; 1 |] ]

let test_tiling_cone_membership () =
  let d = Intmat.of_cols [ [ 1; 0; 0 ]; [ 1; 1; 0 ]; [ 1; 0; 1 ] ] in
  let cone = Cone.tiling_cone d in
  (* rectangular rows are inside the cone, and e1 is interior? e1·d = 1,1,1 > 0 *)
  Alcotest.(check bool) "e1 in" true (Cone.contains cone [| 1; 0; 0 |]);
  Alcotest.(check bool) "e1 interior" true
    (Cone.contains_in_interior cone [| 1; 0; 0 |]);
  Alcotest.(check bool) "e2 on boundary" false
    (Cone.contains_in_interior cone [| 0; 1; 0 |]);
  Alcotest.(check bool) "-e1 out" false (Cone.contains cone [| -1; 0; 0 |])

let test_cone_not_pointed () =
  (* single constraint in 2D: half-plane, contains a line *)
  let c = Cone.of_constraints (Intmat.of_rows [ [ 1; 0 ] ]) in
  Alcotest.(check bool) "not pointed" false (Cone.is_pointed c)

let prop_rays_in_cone =
  QCheck.Test.make ~name:"extreme rays lie in the cone" ~count:200
    QCheck.(
      list_of_size (Gen.int_range 3 6)
        (triple (int_range (-3) 3) (int_range (-3) 3) (int_range 0 3)))
    (fun rows ->
      let m = Intmat.of_rows (List.map (fun (a, b, c) -> [ a; b; c ]) rows) in
      let cone = Cone.of_constraints m in
      if not (Cone.is_pointed cone) then QCheck.assume_fail ()
      else
        let rays = Cone.extreme_rays cone in
        List.for_all (Cone.contains cone) rays)

(* ---------- Pspace ---------- *)

let test_pspace_instantiate_box () =
  let module Pspace = Tiles_poly.Pspace in
  let ps =
    Pspace.box ~params:[ "M"; "N" ]
      [ (([], 0), ([ ("M", 1) ], -1)); (([], 1), ([ ("N", 2) ], 0)) ]
  in
  (* 0 <= x0 <= M-1, 1 <= x1 <= 2N *)
  let p = Pspace.instantiate ps [ 4; 3 ] in
  Alcotest.(check int) "count" (4 * 6) (Polyhedron.count_points p);
  Alcotest.(check bool) "member" true (Polyhedron.member p [| 3; 6 |]);
  Alcotest.(check bool) "not member" false (Polyhedron.member p [| 4; 6 |])

let test_pspace_skew_matches_concrete () =
  let module Pspace = Tiles_poly.Pspace in
  let t = Intmat.of_rows [ [ 1; 0 ]; [ 1; 1 ] ] in
  let ps =
    Pspace.transform_unimodular t
      (Pspace.box ~params:[ "N" ]
         [ (([], 0), ([ ("N", 1) ], -1)); (([], 0), ([ ("N", 1) ], -1)) ])
  in
  let concrete =
    Polyhedron.transform_unimodular t (Polyhedron.box [ (0, 4); (0, 4) ])
  in
  let inst = Pspace.instantiate ps [ 5 ] in
  Alcotest.(check int) "same count" (Polyhedron.count_points concrete)
    (Polyhedron.count_points inst);
  List.iter
    (fun j ->
      Alcotest.(check bool) "same membership"
        (Polyhedron.member concrete (Array.of_list j))
        (Polyhedron.member inst (Array.of_list j)))
    [ [ 0; 0 ]; [ 4; 8 ]; [ 4; 3 ]; [ 2; 7 ]; [ 5; 5 ] ]

let test_pspace_var_bounds () =
  let module Pspace = Tiles_poly.Pspace in
  let ps =
    Pspace.box ~params:[ "N" ]
      [ (([], 0), ([ ("N", 1) ], -1)); (([], 0), ([ ("N", 3) ], 2)) ]
  in
  (* bounds of var 1 in terms of N only *)
  let cs = Pspace.var_bounds_system ps ~var:1 in
  List.iter
    (fun c ->
      Alcotest.(check int) "no var0 coefficient" 0 (Constr.coeff c 1))
    cs

let test_pspace_duplicate_param () =
  Alcotest.check_raises "dup" (Invalid_argument "Pspace.make: duplicate parameter")
    (fun () ->
      ignore (Tiles_poly.Pspace.make ~params:[ "N"; "N" ] ~dim:1 []))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "tiles_poly"
    [
      ( "constr",
        [
          Alcotest.test_case "normalise" `Quick test_constr_normalise;
          Alcotest.test_case "tautology" `Quick test_constr_tautology;
          Alcotest.test_case "le" `Quick test_constr_le;
        ] );
      ( "fourier-motzkin",
        [
          Alcotest.test_case "triangle" `Quick test_fm_triangle;
          Alcotest.test_case "bounds" `Quick test_fm_bounds;
          Alcotest.test_case "unbounded" `Quick test_fm_unbounded;
          Alcotest.test_case "iter_rows no allocation" `Quick
            test_iter_rows_no_alloc;
          q prop_fm_soundness;
          q prop_fm_enumeration_exact;
        ] );
      ( "polyhedron",
        [
          Alcotest.test_case "box count" `Quick test_box_count;
          Alcotest.test_case "simplex count" `Quick test_simplex_count;
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "bounding box" `Quick test_bounding_box;
          Alcotest.test_case "enumeration vs membership" `Quick
            test_enumeration_matches_membership;
          Alcotest.test_case "skew transform" `Quick test_skew_transform;
        ] );
      ( "pspace",
        [
          Alcotest.test_case "instantiate box" `Quick test_pspace_instantiate_box;
          Alcotest.test_case "skew matches concrete" `Quick test_pspace_skew_matches_concrete;
          Alcotest.test_case "var bounds" `Quick test_pspace_var_bounds;
          Alcotest.test_case "duplicate param" `Quick test_pspace_duplicate_param;
        ] );
      ( "cone",
        [
          Alcotest.test_case "first orthant" `Quick test_first_orthant;
          Alcotest.test_case "ADI tiling cone" `Quick test_tiling_cone_adi;
          Alcotest.test_case "membership" `Quick test_tiling_cone_membership;
          Alcotest.test_case "not pointed" `Quick test_cone_not_pointed;
          q prop_rays_in_cone;
        ] );
    ]
