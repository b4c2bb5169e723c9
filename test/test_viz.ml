module Svg = Tiles_viz.Svg
module Figures = Tiles_viz.Figures
module Polyhedron = Tiles_poly.Polyhedron
module Tiling = Tiles_core.Tiling
module Comm = Tiles_core.Comm
module Plan = Tiles_core.Plan
module Kernel = Tiles_runtime.Kernel
module Executor = Tiles_runtime.Executor
module Sim = Tiles_mpisim.Sim
module Rat = Tiles_rat.Rat

let net = Tiles_mpisim.Netmodel.fast_ethernet_cluster

let count_occurrences needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i acc =
    if i + n > h then acc
    else if String.sub hay i n = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let well_formed svg =
  let s = Svg.render svg in
  Alcotest.(check int) "one svg open" 1 (count_occurrences "<svg" s);
  Alcotest.(check int) "one svg close" 1 (count_occurrences "</svg>" s);
  Alcotest.(check bool) "has viewBox" true (count_occurrences "viewBox" s = 1);
  s

let oblique =
  Tiling.of_rows [ [ Rat.make 1 4; Rat.make 1 8 ]; [ Rat.zero; Rat.make 1 8 ] ]

let test_svg_builder () =
  let svg = Svg.create ~width:100. ~height:50. in
  Svg.line svg ~x1:0. ~y1:0. ~x2:10. ~y2:10. ();
  Svg.rect svg ~x:1. ~y:1. ~w:5. ~h:5. ~fill:"#fff" ();
  Svg.circle svg ~cx:3. ~cy:3. ~r:1. ();
  Svg.text svg ~x:0. ~y:10. "a < b & c";
  Alcotest.(check int) "elements" 4 (Svg.element_count svg);
  let s = well_formed svg in
  Alcotest.(check bool) "escaped" true
    (count_occurrences "a &lt; b &amp; c" s = 1)

let test_tiled_space_figure () =
  let space = Polyhedron.box [ (0, 11); (0, 15) ] in
  let svg = Figures.tiled_space space oblique in
  let s = well_formed svg in
  (* one circle per iteration point *)
  Alcotest.(check int) "circles" (12 * 16) (count_occurrences "<circle" s)

let test_ttis_figure () =
  let svg = Figures.ttis oblique in
  let s = well_formed svg in
  (* one dot per box cell (lattice point or hole) *)
  Alcotest.(check int) "cells"
    (oblique.Tiling.v.(0) * oblique.Tiling.v.(1))
    (count_occurrences "<circle" s)

let test_lds_figure () =
  let deps =
    Tiles_loop.Dependence.of_vectors [ [| 1; 0 |]; [| 0; 1 |]; [| 1; 1 |] ]
  in
  let comm = Comm.make oblique deps ~m:0 in
  let svg = Figures.lds oblique comm ~ntiles:3 in
  ignore (well_formed svg)

let test_gantt_figure () =
  let kernel =
    Kernel.make ~name:"pascal" ~dim:2
      ~reads:[ [| 1; 0 |]; [| 0; 1 |] ]
      ~boundary:(fun _ _ -> 1.)
      ~compute:(fun ~read ~j:_ ~out -> out.(0) <- read 0 0 +. read 1 0)
      ()
  in
  let nest =
    Tiles_loop.Nest.make ~name:"pascal"
      ~space:(Polyhedron.box [ (0, 19); (0, 19) ])
      ~deps:(Kernel.deps kernel)
  in
  let plan = Plan.make nest (Tiling.rectangular [ 5; 5 ]) in
  let nprocs = Plan.nprocs plan in
  let rc =
    Tiles_obs.Recorder.create ~keep:Tiles_obs.Recorder.Timeline ~clock:(fun () -> 0.) ~nprocs ()
  in
  let r = Executor.run ~mode:Executor.Timing ~recorder:rc ~plan ~kernel ~net () in
  let trace = Tiles_obs.Recorder.spans rc in
  Alcotest.(check bool) "trace nonempty" true (trace <> []);
  (* spans are within [0, completion] and per-rank non-overlapping *)
  let by_rank = Hashtbl.create 8 in
  List.iter
    (fun ({ Sim.rank; t0; t1; _ } as s) ->
      Alcotest.(check bool) "ordered" true (t0 <= t1);
      Alcotest.(check bool) "within run" true
        (t0 >= 0. && t1 <= r.Executor.stats.Sim.completion +. 1e-12);
      let prev = try Hashtbl.find by_rank rank with Not_found -> 0. in
      Alcotest.(check bool) "no overlap" true (t0 >= prev -. 1e-12);
      Hashtbl.replace by_rank rank s.Sim.t1)
    trace;
  ignore
    (well_formed
       (Figures.timeline ~nprocs
          ~completion:r.Executor.stats.Sim.completion trace))

(* an untraced run's recorder keeps no spans, and the timeline refuses
   an empty span list *)
let test_gantt_requires_trace () =
  let rc = Tiles_obs.Recorder.create ~clock:(fun () -> 0.) ~nprocs:1 () in
  let stats =
    Sim.run ~recorder:rc ~nprocs:1 ~net (fun c _ -> c.Sim.compute 0.0)
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Figures.timeline ~nprocs:1 ~completion:stats.Sim.completion
            (Tiles_obs.Recorder.spans rc));
       false
     with Invalid_argument _ -> true)

let test_timeline_figure () =
  let module Span = Tiles_obs.Span in
  (* hand-built spans covering all five kinds across two ranks *)
  let spans =
    [
      { Span.rank = 0; t0 = 0.; t1 = 1.; kind = Span.Compute };
      { Span.rank = 0; t0 = 1.; t1 = 1.2; kind = Span.Pack };
      { Span.rank = 0; t0 = 1.2; t1 = 1.5; kind = Span.Send };
      { Span.rank = 1; t0 = 0.; t1 = 1.4; kind = Span.Wait };
      { Span.rank = 1; t0 = 1.4; t1 = 1.6; kind = Span.Unpack };
    ]
  in
  let svg = Figures.timeline ~nprocs:2 ~completion:2. spans in
  (* 5 span rects + 5 legend swatches at least *)
  Alcotest.(check bool) "enough elements" true (Svg.element_count svg >= 10);
  ignore (well_formed svg)

let test_timeline_rejects_empty () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Figures.timeline ~nprocs:1 ~completion:1. []);
       false
     with Invalid_argument _ -> true)

let test_save () =
  let svg = Figures.ttis oblique in
  let path = Filename.temp_file "tiles_viz" ".svg" in
  Svg.save svg path;
  let ic = open_in path in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "nonempty file" true (len > 100)

let () =
  Alcotest.run "tiles_viz"
    [
      ( "svg",
        [
          Alcotest.test_case "builder" `Quick test_svg_builder;
          Alcotest.test_case "save" `Quick test_save;
        ] );
      ( "figures",
        [
          Alcotest.test_case "tiled space" `Quick test_tiled_space_figure;
          Alcotest.test_case "ttis" `Quick test_ttis_figure;
          Alcotest.test_case "lds" `Quick test_lds_figure;
          Alcotest.test_case "gantt" `Quick test_gantt_figure;
          Alcotest.test_case "gantt needs trace" `Quick test_gantt_requires_trace;
          Alcotest.test_case "timeline" `Quick test_timeline_figure;
          Alcotest.test_case "timeline needs spans" `Quick
            test_timeline_rejects_empty;
        ] );
    ]
