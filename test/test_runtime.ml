module Polyhedron = Tiles_poly.Polyhedron
module Nest = Tiles_loop.Nest
module Dependence = Tiles_loop.Dependence
module Tiling = Tiles_core.Tiling
module Plan = Tiles_core.Plan
module Kernel = Tiles_runtime.Kernel
module Grid = Tiles_runtime.Grid
module Seq_exec = Tiles_runtime.Seq_exec
module Executor = Tiles_runtime.Executor
module Sim = Tiles_mpisim.Sim
module Netmodel = Tiles_mpisim.Netmodel
module Rat = Tiles_rat.Rat

let net = Netmodel.fast_ethernet_cluster

(* a simple 2-point recurrence in 2D: u[i,j] = u[i-1,j] + u[i,j-1] *)
let pascal_kernel =
  Kernel.make ~name:"pascal" ~dim:2
    ~reads:[ [| 1; 0 |]; [| 0; 1 |] ]
    ~boundary:(fun j _ -> if j.(0) = -1 && j.(1) = -1 then 0. else 1.)
    ~compute:(fun ~read ~j:_ ~out -> out.(0) <- read 0 0 +. read 1 0)
    ()

let pascal_nest w h =
  Nest.make ~name:"pascal"
    ~space:(Polyhedron.box [ (0, w - 1); (0, h - 1) ])
    ~deps:(Kernel.deps pascal_kernel)

(* ---------- Grid ---------- *)

let test_grid_basic () =
  let space = Polyhedron.box [ (0, 3); (0, 3) ] in
  let g = Grid.create space ~width:2 in
  Grid.set g [| 1; 2 |] 0 5.;
  Grid.set g [| 1; 2 |] 1 7.;
  Alcotest.(check (float 0.)) "get 0" 5. (Grid.get g [| 1; 2 |] 0);
  Alcotest.(check (float 0.)) "get 1" 7. (Grid.get g [| 1; 2 |] 1);
  Alcotest.(check bool) "unset is nan" true (Float.is_nan (Grid.get g [| 0; 0 |] 0));
  Alcotest.(check bool) "mem" true (Grid.mem g [| 3; 3 |]);
  Alcotest.(check bool) "not mem" false (Grid.mem g [| 4; 0 |])

let test_grid_reads_reach () =
  (* a skewed triangle: every tap j - d of a space point has a cell, and
     the box grows by no more than the reads reach *)
  let space =
    Polyhedron.make ~dim:2
      [
        Tiles_poly.Constr.make ~coeffs:[| 1; 0 |] ~const:0;
        Tiles_poly.Constr.make ~coeffs:[| -1; 1 |] ~const:0;
        Tiles_poly.Constr.make ~coeffs:[| 0; -1 |] ~const:5;
      ]
  in
  let reads = [ [| 1; 0 |]; [| 0; 2 |]; [| -1; 1 |] ] in
  let g = Grid.create ~reads space ~width:2 in
  Polyhedron.iter_points space (fun j ->
      List.iter
        (fun d ->
          Alcotest.(check bool) "tap has a cell" true
            (Grid.mem g (Tiles_util.Vec.sub j d)))
        reads);
  Alcotest.(check int) "box [-1, 6] x [-2, 5], two fields" (8 * 8 * 2)
    (Grid.slots g);
  Alcotest.(check int) "no reads: the bounding box" (6 * 6)
    (Grid.slots (Grid.create space ~width:1))

let test_grid_rank_mismatch () =
  let space = Polyhedron.box [ (0, 3); (0, 3) ] in
  let g = Grid.create space ~width:1 in
  let raises f =
    match f () with
    | (_ : bool) -> false
    | exception Invalid_argument msg ->
      (* the message must name both ranks, not be a generic bounds error *)
      Astring.String.is_infix ~affix:"rank 3" msg
      && Astring.String.is_infix ~affix:"rank 2" msg
  in
  Alcotest.(check bool) "mem rejects long point" true
    (raises (fun () -> Grid.mem g [| 0; 0; 0 |]));
  Alcotest.(check bool) "mem rejects short point" true
    (match Grid.mem g [| 0 |] with
    | (_ : bool) -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "index rejects mismatched point" true
    (match Grid.index g [| 0; 0; 0 |] 0 with
    | (_ : int) -> false
    | exception Invalid_argument _ -> true);
  (* matching rank still answers instead of raising *)
  Alcotest.(check bool) "mem still works" true (Grid.mem g [| 2; 2 |])

let test_grid_checksum_compensated () =
  (* Neumaier summation: 1e16 + lots of 1s + (-1e16) loses every 1 under
     naive left-to-right addition but must survive compensation; and the
     checksum must not depend on traversal/write order *)
  let space = Polyhedron.box [ (0, 9); (0, 9) ] in
  let g = Grid.create space ~width:1 in
  Polyhedron.iter_points space (fun j -> Grid.set g j 0 1.);
  Grid.set g [| 0; 0 |] 0 1e16;
  Grid.set g [| 9; 9 |] 0 (-1e16);
  (* exact sum: 98 ones + 1e16 - 1e16 = 98; naive summation returns 0 *)
  Alcotest.(check (float 0.)) "compensated" 98. (Grid.checksum g space);
  let h = Grid.create space ~width:1 in
  Polyhedron.iter_points space (fun j -> Grid.set h j 0 1.);
  Grid.set h [| 9; 9 |] 0 1e16;
  Grid.set h [| 0; 0 |] 0 (-1e16);
  (* same multiset placed in opposite corners: same checksum *)
  Alcotest.(check (float 0.)) "order independent" 98. (Grid.checksum h space)

let test_grid_diff () =
  let space = Polyhedron.box [ (0, 1); (0, 1) ] in
  let a = Grid.create space ~width:1 and b = Grid.create space ~width:1 in
  Polyhedron.iter_points space (fun j ->
      Grid.set a j 0 1.;
      Grid.set b j 0 1.);
  Alcotest.(check (float 0.)) "equal" 0. (Grid.max_abs_diff a b space);
  Grid.set b [| 1; 1 |] 0 1.5;
  Alcotest.(check (float 1e-12)) "diff" 0.5 (Grid.max_abs_diff a b space)

(* ---------- Seq_exec ---------- *)

let test_seq_pascal () =
  (* with boundary ≡ 1, u[i,j] on the diagonal grows like binomials *)
  let space = Polyhedron.box [ (0, 3); (0, 3) ] in
  let g = Seq_exec.run ~space ~kernel:pascal_kernel () in
  Alcotest.(check (float 0.)) "corner" 2. (Grid.get g [| 0; 0 |] 0);
  (* u[1,0] = u[0,0] + boundary = 2 + 1 = 3 *)
  Alcotest.(check (float 0.)) "u10" 3. (Grid.get g [| 1; 0 |] 0);
  Alcotest.(check (float 0.)) "u11" 6. (Grid.get g [| 1; 1 |] 0)

(* ---------- Kernel.skewed ---------- *)

let test_kernel_skewed_equivalence () =
  (* running the skewed kernel over the skewed space gives the same values
     at corresponding points *)
  let w, h = (5, 6) in
  let nest = pascal_nest w h in
  let t = Tiles_loop.Skew.of_factors 2 [ (1, 0, 1) ] in
  let skewed_nest = Tiles_loop.Skew.apply nest t in
  let sk = Kernel.skewed pascal_kernel t in
  let g0 = Seq_exec.run ~space:nest.Nest.space ~kernel:pascal_kernel () in
  let g1 = Seq_exec.run ~space:skewed_nest.Nest.space ~kernel:sk () in
  Polyhedron.iter_points nest.Nest.space (fun j ->
      let js = Tiles_linalg.Intmat.apply t j in
      Alcotest.(check (float 0.)) "same value" (Grid.get g0 j 0) (Grid.get g1 js 0))

(* the skewed wrappers hand the original kernel T⁻¹·j, for boundary
   and (uses_j) compute alike, and each call gets its own array *)
let test_kernel_skewed_unskews () =
  let seen = ref [] in
  let k =
    Kernel.make ~name:"probe" ~dim:3 ~reads:[ [| 1; 0; 0 |] ]
      ~boundary:(fun j _ ->
        seen := j :: !seen;
        0.)
      ~compute:(fun ~read:_ ~j ~out ->
        seen := j :: !seen;
        out.(0) <- 0.)
      ()
  in
  let t = Tiles_linalg.Intmat.of_rows [ [ 1; 0; 0 ]; [ 1; 1; 0 ]; [ 2; 1; 1 ] ] in
  let sk = Kernel.skewed k t in
  let x = [| 3; -2; 5 |] and y = [| -1; 4; 0 |] in
  ignore (sk.Kernel.boundary (Tiles_linalg.Intmat.apply t x) 0);
  sk.Kernel.compute ~read:(fun _ _ -> 0.) ~j:(Tiles_linalg.Intmat.apply t y)
    ~out:[| 0. |];
  Alcotest.(check (list (array int))) "unskewed" [ y; x ] !seen;
  Alcotest.(check bool) "fresh arrays" true
    (match !seen with [ a; b ] -> a != b | _ -> false)

(* ---------- Executor: parallel ≡ sequential ---------- *)

let check_equiv ?m name nest kernel tiling =
  let plan = Plan.make ?m nest tiling in
  let seq = Seq_exec.run ~space:nest.Nest.space ~kernel () in
  let r = Executor.run ~mode:Executor.Full ~plan ~kernel ~net () in
  (match r.Executor.grid with
  | None -> Alcotest.fail "no grid"
  | Some g ->
    Alcotest.(check (float 1e-9))
      (name ^ " parallel = sequential")
      0.
      (Grid.max_abs_diff g seq nest.Nest.space));
  Alcotest.(check int)
    (name ^ " all points computed")
    (Polyhedron.count_points nest.Nest.space)
    r.Executor.points_computed;
  r

let test_pascal_rect () =
  let nest = pascal_nest 12 9 in
  ignore (check_equiv "pascal-rect" nest pascal_kernel (Tiling.rectangular [ 3; 4 ]))

let test_pascal_oblique () =
  (* non-trivial strides in 2D: H = [[1/2,1/4],[0,1/4]] gives H' = [[2,1],[0,1]]
     with TTIS strides (1,2); legal for the (1,0),(0,1) dependencies *)
  let nest = pascal_nest 12 12 in
  let tiling =
    Tiling.of_rows
      [ [ Rat.make 1 2; Rat.make 1 4 ]; [ Rat.zero; Rat.make 1 4 ] ]
  in
  ignore (check_equiv "pascal-oblique" nest pascal_kernel tiling)

let test_pascal_speedup_sane () =
  let nest = pascal_nest 40 40 in
  let r = check_equiv "pascal-speedup" nest pascal_kernel (Tiling.rectangular [ 5; 5 ]) in
  Alcotest.(check bool) "speedup positive" true (r.Executor.speedup > 0.);
  Alcotest.(check bool) "speedup below procs" true
    (r.Executor.speedup <= 8.01)

let test_timing_full_agree () =
  (* the two executor modes must report identical virtual times *)
  let nest = pascal_nest 20 17 in
  let plan = Plan.make nest (Tiling.rectangular [ 4; 3 ]) in
  let a = Executor.run ~mode:Executor.Full ~plan ~kernel:pascal_kernel ~net () in
  let b = Executor.run ~mode:Executor.Timing ~plan ~kernel:pascal_kernel ~net () in
  Alcotest.(check (float 0.)) "same completion"
    a.Executor.stats.Sim.completion b.Executor.stats.Sim.completion;
  Alcotest.(check int) "same messages" a.Executor.stats.Sim.messages
    b.Executor.stats.Sim.messages;
  Alcotest.(check int) "same bytes" a.Executor.stats.Sim.bytes
    b.Executor.stats.Sim.bytes;
  Alcotest.(check int) "same points" a.Executor.points_computed
    b.Executor.points_computed

let test_executor_rejects_mismatched_kernel () =
  let nest = pascal_nest 6 6 in
  let plan = Plan.make nest (Tiling.rectangular [ 2; 2 ]) in
  let other =
    Kernel.make ~name:"other" ~dim:2
      ~reads:[ [| 1; 0 |] ]
      ~boundary:(fun _ _ -> 0.)
      ~compute:(fun ~read ~j:_ ~out -> out.(0) <- read 0 0)
      ()
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Executor.run ~plan ~kernel:other ~net ());
       false
     with Invalid_argument _ -> true)

let test_overlap_correct_and_not_slower () =
  (* §5 future-work schedule: results identical, completion no worse *)
  let nest = pascal_nest 40 40 in
  let plan = Plan.make nest (Tiling.rectangular [ 5; 5 ]) in
  let seq = Seq_exec.run ~space:nest.Nest.space ~kernel:pascal_kernel () in
  let blocking = Executor.run ~mode:Executor.Full ~plan ~kernel:pascal_kernel ~net () in
  let overlapped =
    Executor.run ~mode:Executor.Full ~overlap:true ~plan ~kernel:pascal_kernel
      ~net ()
  in
  (match overlapped.Executor.grid with
  | Some g ->
    Alcotest.(check (float 0.)) "still exact" 0.
      (Grid.max_abs_diff g seq nest.Nest.space)
  | None -> Alcotest.fail "no grid");
  Alcotest.(check bool) "not slower" true
    (overlapped.Executor.stats.Sim.completion
    <= blocking.Executor.stats.Sim.completion +. 1e-12)

let test_executor_ideal_net_faster () =
  let nest = pascal_nest 30 30 in
  let plan = Plan.make nest (Tiling.rectangular [ 5; 5 ]) in
  let slow = Executor.run ~mode:Executor.Timing ~plan ~kernel:pascal_kernel ~net () in
  let fast =
    Executor.run ~mode:Executor.Timing ~plan ~kernel:pascal_kernel
      ~net:Netmodel.ideal ()
  in
  Alcotest.(check bool) "ideal faster" true
    (fast.Executor.stats.Sim.completion < slow.Executor.stats.Sim.completion)

(* ---------- Shm_executor: real domains ---------- *)

let test_shm_pascal () =
  let nest = pascal_nest 30 30 in
  let plan = Plan.make nest (Tiling.rectangular [ 6; 10 ]) in
  let rc = Tiles_obs.Recorder.create ~nprocs:(Plan.nprocs plan) () in
  let r =
    Tiles_runtime.Shm_executor.run ~recorder:rc ~plan ~kernel:pascal_kernel ()
  in
  Alcotest.(check (float 0.)) "exact vs oracle" 0. r.Tiles_runtime.Shm_executor.max_abs_err;
  Alcotest.(check int) "procs" (Plan.nprocs plan) r.Tiles_runtime.Shm_executor.nprocs;
  Alcotest.(check bool) "messages sent" true (r.Tiles_runtime.Shm_executor.messages > 0);
  Alcotest.(check bool) "bytes counted" true (r.Tiles_runtime.Shm_executor.bytes > 0);
  (* counters live in the recorder too; spans only when it traces *)
  Alcotest.(check int) "stats messages" r.Tiles_runtime.Shm_executor.messages
    (Tiles_obs.Recorder.messages rc);
  Alcotest.(check bool) "untraced: no spans" true
    (Tiles_obs.Recorder.spans rc = [])

let test_shm_sor () =
  let module Sor = Tiles_apps.Sor in
  let p = Sor.make ~m_steps:8 ~size:12 in
  let nest = Sor.nest p in
  let plan = Plan.make ~m:Sor.mapping_dim nest (Sor.nonrect ~x:4 ~y:7 ~z:4) in
  let r = Tiles_runtime.Shm_executor.run ~plan ~kernel:(Sor.kernel p) () in
  Alcotest.(check (float 0.)) "exact" 0. r.Tiles_runtime.Shm_executor.max_abs_err

let test_shm_matches_sim_messages () =
  (* the domain backend exchanges exactly the same number of messages as
     the simulator backend — same protocol, different transport *)
  let nest = pascal_nest 24 24 in
  let plan = Plan.make nest (Tiling.rectangular [ 6; 6 ]) in
  let sim = Executor.run ~mode:Executor.Timing ~plan ~kernel:pascal_kernel ~net () in
  let shm = Tiles_runtime.Shm_executor.run ~plan ~kernel:pascal_kernel () in
  Alcotest.(check int) "same messages" sim.Executor.stats.Sim.messages
    shm.Tiles_runtime.Shm_executor.messages;
  Alcotest.(check int) "same bytes" sim.Executor.stats.Sim.bytes
    shm.Tiles_runtime.Shm_executor.bytes

(* the overlapped schedule is the same computation: blocking and
   overlapped shm runs must produce bit-identical grids and identical
   message/byte counters — which must also match the simulator's counters
   in overlap mode (same protocol, different transport) *)
let test_shm_overlap_matches_blocking () =
  let module Shm = Tiles_runtime.Shm_executor in
  let check name ~space ~plan ~kernel =
    let b = Shm.run ~plan ~kernel () in
    let o = Shm.run ~overlap:true ~plan ~kernel () in
    Alcotest.(check (float 0.)) (name ^ ": blocking exact") 0.
      b.Shm.max_abs_err;
    Alcotest.(check (float 0.)) (name ^ ": overlapped exact") 0.
      o.Shm.max_abs_err;
    Alcotest.(check (float 0.)) (name ^ ": grids bit-identical") 0.
      (Grid.max_abs_diff b.Shm.grid o.Shm.grid space);
    Alcotest.(check int) (name ^ ": same messages") b.Shm.messages
      o.Shm.messages;
    Alcotest.(check int) (name ^ ": same bytes") b.Shm.bytes o.Shm.bytes;
    Alcotest.(check int) (name ^ ": same points") b.Shm.points_computed
      o.Shm.points_computed;
    let sim =
      Executor.run ~mode:Executor.Timing ~overlap:true ~plan ~kernel ~net ()
    in
    Alcotest.(check int) (name ^ ": sim overlap messages agree")
      sim.Executor.stats.Sim.messages o.Shm.messages;
    Alcotest.(check int) (name ^ ": sim overlap bytes agree")
      sim.Executor.stats.Sim.bytes o.Shm.bytes
  in
  let module Sor = Tiles_apps.Sor in
  let p = Sor.make ~m_steps:8 ~size:12 in
  check "sor" ~space:(Sor.nest p).Nest.space
    ~plan:
      (Plan.make ~m:Sor.mapping_dim (Sor.nest p) (Sor.nonrect ~x:4 ~y:7 ~z:4))
    ~kernel:(Sor.kernel p);
  let module Jacobi = Tiles_apps.Jacobi in
  let p = Jacobi.make ~t_steps:6 ~size:10 in
  check "jacobi" ~space:(Jacobi.nest p).Nest.space
    ~plan:
      (Plan.make ~m:Jacobi.mapping_dim (Jacobi.nest p)
         (Jacobi.nonrect ~x:2 ~y:6 ~z:6))
    ~kernel:(Jacobi.kernel p);
  let module Adi = Tiles_apps.Adi in
  let p = Adi.make ~t_steps:6 ~size:10 in
  check "adi" ~space:(Adi.nest p).Nest.space
    ~plan:
      (Plan.make ~m:Adi.mapping_dim (Adi.nest p) (Adi.nr3 ~x:3 ~y:5 ~z:5))
    ~kernel:(Adi.kernel p)

(* a rank that raises ends the whole run at once: the ranks blocked on
   its messages stop waiting instead of sitting out the 30 s receive
   deadline, and the run re-raises the rank's own exception *)
exception Injected

let test_shm_failure_ends_run () =
  let module Sor = Tiles_apps.Sor in
  let p = Sor.make ~m_steps:12 ~size:16 in
  let plan = Plan.make ~m:Sor.mapping_dim (Sor.nest p) (Sor.nonrect ~x:3 ~y:4 ~z:4) in
  List.iter
    (fun overlap ->
      let k = Sor.kernel p in
      let calls = Atomic.make 0 in
      let kernel =
        {
          k with
          Kernel.compute =
            (fun ~read ~j ~out ->
              if Atomic.fetch_and_add calls 1 = 5 then raise Injected;
              k.Kernel.compute ~read ~j ~out);
        }
      in
      let t0 = Unix.gettimeofday () in
      let raised =
        match
          Tiles_runtime.Shm_executor.run ~walker:Tiles_runtime.Walker.Reference
            ~overlap ~plan ~kernel ()
        with
        | _ -> false
        | exception Injected -> true
      in
      let name = if overlap then "overlapped" else "blocking" in
      Alcotest.(check bool) (name ^ ": the rank's exception") true raised;
      let dt = Unix.gettimeofday () -. t0 in
      if dt >= 2. then Alcotest.failf "%s: the run took %.2fs to fail" name dt)
    [ false; true ]

(* A plan of more ranks than the runtime has domains for fails before
   the run starts any domain, with the structured error; nothing here
   spawns a domain to find the limit. *)
let test_shm_domain_cap () =
  let nest = pascal_nest 254 2 in
  let plan = Plan.make ~m:1 nest (Tiling.rectangular [ 2; 2 ]) in
  let nprocs = Tiles_core.Mapping.nprocs plan.Plan.mapping in
  Alcotest.(check bool) "at least 127 ranks" true (nprocs >= 127);
  let module Shm = Tiles_runtime.Shm_executor in
  match Shm.run ~plan ~kernel:pascal_kernel () with
  | _ -> Alcotest.fail "the run started past the domain limit"
  | exception Shm.Too_many_ranks { nprocs = n; max_domains } ->
    Alcotest.(check int) "ranks reported" nprocs n;
    Alcotest.(check int) "limit reported" Shm.max_domains max_domains;
    Alcotest.(check bool) "message names the limit" true
      (Astring.String.is_infix ~affix:"128"
         (Printexc.to_string (Shm.Too_many_ranks { nprocs; max_domains })))

(* ---------- Model ---------- *)

let test_model_predicts () =
  let nest = pascal_nest 40 40 in
  let plan = Plan.make nest (Tiling.rectangular [ 5; 5 ]) in
  let est = Tiles_runtime.Model.predict plan ~net in
  Alcotest.(check bool) "total positive" true (est.Tiles_runtime.Model.total > 0.);
  Alcotest.(check bool) "steps positive" true (est.Tiles_runtime.Model.steps > 0);
  Alcotest.(check bool) "speedup positive" true
    (est.Tiles_runtime.Model.predicted_speedup > 0.)

let test_model_ranks_sor_tilings () =
  (* the model must reproduce the paper's ordering: nonrect < rect in
     predicted completion time (same factors) *)
  let module Sor = Tiles_apps.Sor in
  let p = Sor.make ~m_steps:48 ~size:48 in
  let nest = Sor.nest p in
  let predict tiling =
    (Tiles_runtime.Model.predict (Plan.make ~m:2 nest tiling) ~net)
      .Tiles_runtime.Model.total
  in
  Alcotest.(check bool) "nonrect predicted faster" true
    (predict (Sor.nonrect ~x:24 ~y:16 ~z:8) < predict (Sor.rect ~x:24 ~y:16 ~z:8))

let test_model_best_factor () =
  let nest = pascal_nest 60 60 in
  let mk f = Plan.make nest (Tiling.rectangular [ f; f ]) in
  let f, est = Tiles_runtime.Model.best_factor mk ~factors:[ 2; 5; 10; 20 ] ~net in
  Alcotest.(check bool) "feasible factor" true (List.mem f [ 2; 5; 10; 20 ]);
  Alcotest.(check bool) "estimate sane" true (est.Tiles_runtime.Model.total > 0.);
  Alcotest.check_raises "none feasible"
    (Failure "Model.best_factor: no feasible factor") (fun () ->
      ignore
        (Tiles_runtime.Model.best_factor
           (fun _ -> failwith "nope")
           ~factors:[ 1 ] ~net))

let () =
  Alcotest.run "tiles_runtime"
    [
      ( "grid",
        [
          Alcotest.test_case "basic" `Quick test_grid_basic;
          Alcotest.test_case "rank mismatch" `Quick test_grid_rank_mismatch;
          Alcotest.test_case "reads widen the box" `Quick test_grid_reads_reach;
          Alcotest.test_case "checksum compensated" `Quick
            test_grid_checksum_compensated;
          Alcotest.test_case "diff" `Quick test_grid_diff;
        ] );
      ("seq", [ Alcotest.test_case "pascal" `Quick test_seq_pascal ]);
      ( "kernel",
        [
          Alcotest.test_case "skewed equivalence" `Quick
            test_kernel_skewed_equivalence;
          Alcotest.test_case "skewed unskews" `Quick test_kernel_skewed_unskews;
        ] );
      ( "executor",
        [
          Alcotest.test_case "pascal rect" `Quick test_pascal_rect;
          Alcotest.test_case "pascal oblique" `Quick test_pascal_oblique;
          Alcotest.test_case "speedup sane" `Quick test_pascal_speedup_sane;
          Alcotest.test_case "timing = full" `Quick test_timing_full_agree;
          Alcotest.test_case "kernel mismatch" `Quick test_executor_rejects_mismatched_kernel;
          Alcotest.test_case "ideal net faster" `Quick test_executor_ideal_net_faster;
          Alcotest.test_case "overlap correct" `Quick test_overlap_correct_and_not_slower;
        ] );
      ( "shm",
        [
          Alcotest.test_case "pascal on domains" `Quick test_shm_pascal;
          Alcotest.test_case "sor on domains" `Quick test_shm_sor;
          Alcotest.test_case "same messages as sim" `Quick test_shm_matches_sim_messages;
          Alcotest.test_case "overlap = blocking (all apps)" `Quick
            test_shm_overlap_matches_blocking;
          Alcotest.test_case "failing rank ends the run" `Quick
            test_shm_failure_ends_run;
          Alcotest.test_case "domain cap checked first" `Quick
            test_shm_domain_cap;
        ] );
      ( "model",
        [
          Alcotest.test_case "predicts" `Quick test_model_predicts;
          Alcotest.test_case "ranks tilings" `Quick test_model_ranks_sor_tilings;
          Alcotest.test_case "best factor" `Quick test_model_best_factor;
        ] );
    ]
