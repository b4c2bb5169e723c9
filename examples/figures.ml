(* Reproduce the paper's conceptual diagrams (Figures 1-3) plus an
   execution Gantt chart, as SVG files.

   Run with:  dune exec examples/figures.exe [output-dir]  *)

module Svg = Tiles_viz.Svg
module Figures = Tiles_viz.Figures
module Polyhedron = Tiles_poly.Polyhedron
module Tiling = Tiles_core.Tiling
module Comm = Tiles_core.Comm
module Plan = Tiles_core.Plan
module Kernel = Tiles_runtime.Kernel
module Executor = Tiles_runtime.Executor
module Rat = Tiles_rat.Rat

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  let save name svg =
    let path = Filename.concat dir name in
    Svg.save svg path;
    Printf.printf "wrote %s\n" path
  in
  (* an oblique 2-D tiling with non-trivial strides, like the paper's
     running example *)
  let tiling =
    Tiling.of_rows [ [ Rat.make 1 4; Rat.make 1 8 ]; [ Rat.zero; Rat.make 1 8 ] ]
  in
  let space = Polyhedron.box [ (0, 15); (0, 23) ] in

  (* Fig. 1 (left): the iteration space cut by the two hyperplane families *)
  save "fig1_tiled_space.svg" (Figures.tiled_space space tiling);

  (* Fig. 1 (right) / Fig. 2: the TTIS lattice with strides *)
  save "fig2_ttis.svg" (Figures.ttis tiling);

  (* Fig. 3: the LDS of one processor (3-tile chain) *)
  let deps =
    Tiles_loop.Dependence.of_vectors [ [| 1; 0 |]; [| 0; 1 |]; [| 1; 1 |] ]
  in
  let comm = Comm.make tiling deps ~m:0 in
  save "fig3_lds.svg" (Figures.lds tiling comm ~ntiles:3);

  (* execution Gantt of a small pipelined run *)
  let kernel =
    Kernel.make ~name:"pascal" ~dim:2
      ~reads:[ [| 1; 0 |]; [| 0; 1 |] ]
      ~boundary:(fun _ _ -> 1.)
      ~compute:(fun ~read ~j:_ ~out -> out.(0) <- read 0 0 +. read 1 0)
      ()
  in
  let nest =
    Tiles_loop.Nest.make ~name:"pascal"
      ~space:(Polyhedron.box [ (0, 95); (0, 95) ])
      ~deps:(Kernel.deps kernel)
  in
  let plan = Plan.make nest (Tiling.rectangular [ 12; 12 ]) in
  let nprocs = Plan.nprocs plan in
  (* the simulator stamps virtual time itself: the recorder's clock is 0 *)
  let rc =
    Tiles_obs.Recorder.create ~keep:Tiles_obs.Recorder.Timeline
      ~clock:(fun () -> 0.) ~nprocs ()
  in
  let r =
    Executor.run ~mode:Executor.Timing ~recorder:rc ~plan ~kernel
      ~net:Tiles_mpisim.Netmodel.fast_ethernet_cluster ()
  in
  let spans = Tiles_obs.Recorder.spans rc in
  save "gantt_pascal.svg"
    (Figures.timeline ~title:"simulated execution timeline" ~nprocs
       ~completion:r.Executor.stats.Tiles_mpisim.Sim.completion spans);
  Printf.printf "(%d ranks, %d trace spans)\n" nprocs (List.length spans)
