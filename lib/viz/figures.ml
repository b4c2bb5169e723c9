module Polyhedron = Tiles_poly.Polyhedron
module Tiling = Tiles_core.Tiling
module Ttis = Tiles_core.Ttis
module Comm = Tiles_core.Comm
module Lds = Tiles_core.Lds
module Span = Tiles_obs.Span
module Critpath = Tiles_obs.Critpath
module Rat = Tiles_rat.Rat

let cell = 18.
let margin = 30.

let palette =
  [| "#7fc97f"; "#beaed4"; "#fdc086"; "#ffff99"; "#386cb0"; "#f0027f";
     "#bf5b17"; "#80b1d3"; "#fb8072"; "#b3de69" |]

let tiled_space space tiling =
  if Polyhedron.dim space <> 2 || Tiling.dim tiling <> 2 then
    invalid_arg "Figures.tiled_space: 2-D only";
  let bbox = Polyhedron.bounding_box space in
  let (x0, x1) = bbox.(0) and (y0, y1) = bbox.(1) in
  let w = float_of_int (x1 - x0 + 1) and h = float_of_int (y1 - y0 + 1) in
  let svg =
    Svg.create
      ~width:((w *. cell) +. (2. *. margin))
      ~height:((h *. cell) +. (2. *. margin))
  in
  (* screen position of iteration (i, j): i down, j right *)
  let px j = margin +. ((float_of_int (j - y0) +. 0.5) *. cell) in
  let py i = margin +. ((float_of_int (i - x0) +. 0.5) *. cell) in
  Polyhedron.iter_points space (fun p ->
      let tile = Tiling.tile_of tiling p in
      let colour_idx =
        Tiles_util.Ints.fmod ((tile.(0) * 5) + (tile.(1) * 3)) (Array.length palette)
      in
      Svg.circle svg ~cx:(px p.(1)) ~cy:(py p.(0)) ~r:(cell /. 4.)
        ~fill:palette.(colour_idx) ~stroke:"#333" ());
  (* hyperplane families: h_k·x = c for integer c over the bbox *)
  let draw_family k =
    let hk = tiling.Tiling.h.(k) in
    let a = hk.(0) and b = hk.(1) in
    (* range of c = h_k·x over the bbox corners *)
    let corners =
      [ (x0, y0); (x0, y1); (x1, y0); (x1, y1) ]
      |> List.map (fun (i, j) ->
             Rat.add
               (Rat.mul a (Rat.of_int i))
               (Rat.mul b (Rat.of_int j)))
    in
    let cmin = List.fold_left Rat.min (List.hd corners) corners in
    let cmax = List.fold_left Rat.max (List.hd corners) corners in
    for c = Rat.ceil cmin to Rat.floor cmax do
      (* the line a·i + b·j = c clipped to the bbox: parameterise by
         whichever coordinate has the non-zero coefficient *)
      let fc = Rat.of_int c in
      if Rat.sign b <> 0 then begin
        let j_of i = Rat.div (Rat.sub fc (Rat.mul a (Rat.of_int i))) b in
        let p1 = (float_of_int x0 -. 0.5, Rat.to_float (j_of x0) -. 0.0) in
        let p2 = (float_of_int x1 +. 0.5, Rat.to_float (j_of x1)) in
        Svg.line svg
          ~x1:(margin +. ((snd p1 -. float_of_int y0 +. 0.5) *. cell))
          ~y1:(margin +. ((fst p1 -. float_of_int x0 +. 0.5) *. cell))
          ~x2:(margin +. ((snd p2 -. float_of_int y0 +. 0.5) *. cell))
          ~y2:(margin +. ((fst p2 -. float_of_int x0 +. 0.5) *. cell))
          ~stroke:"#999" ~stroke_width:0.8 ~dash:"4 2" ()
      end
      else begin
        let i = Rat.to_float (Rat.div fc a) in
        Svg.line svg
          ~x1:margin
          ~y1:(margin +. ((i -. float_of_int x0 +. 0.5) *. cell))
          ~x2:(margin +. (w *. cell))
          ~y2:(margin +. ((i -. float_of_int x0 +. 0.5) *. cell))
          ~stroke:"#999" ~stroke_width:0.8 ~dash:"4 2" ()
      end
    done
  in
  draw_family 0;
  draw_family 1;
  Svg.text svg ~x:margin ~y:(margin /. 2.)
    "iteration space coloured by tile; dashed lines = tiling hyperplanes";
  svg

let ttis tiling =
  if Tiling.dim tiling <> 2 then invalid_arg "Figures.ttis: 2-D only";
  let v0 = tiling.Tiling.v.(0) and v1 = tiling.Tiling.v.(1) in
  let svg =
    Svg.create
      ~width:((float_of_int v1 *. cell) +. (2. *. margin))
      ~height:((float_of_int v0 *. cell) +. (2. *. margin))
  in
  Svg.rect svg ~x:margin ~y:margin
    ~w:(float_of_int v1 *. cell)
    ~h:(float_of_int v0 *. cell)
    ~stroke:"#333" ();
  (* holes as small grey dots, lattice points as filled circles *)
  for i = 0 to v0 - 1 do
    for j = 0 to v1 - 1 do
      let cx = margin +. ((float_of_int j +. 0.5) *. cell) in
      let cy = margin +. ((float_of_int i +. 0.5) *. cell) in
      if Ttis.mem tiling [| i; j |] then
        Svg.circle svg ~cx ~cy ~r:(cell /. 4.) ~fill:"#386cb0" ()
      else Svg.circle svg ~cx ~cy ~r:(cell /. 10.) ~fill:"#ccc" ()
    done
  done;
  Svg.text svg ~x:margin ~y:(margin /. 2.)
    (Printf.sprintf "TTIS: %d lattice points in a %d x %d box, strides (%d, %d)"
       (Tiling.tile_size tiling) v0 v1 tiling.Tiling.c.(0) tiling.Tiling.c.(1));
  svg

let lds tiling comm ~ntiles =
  if Tiling.dim tiling <> 2 then invalid_arg "Figures.lds: 2-D only";
  let shape = Lds.shape tiling comm ~ntiles in
  let d0 = shape.Lds.dims.(0) and d1 = shape.Lds.dims.(1) in
  let svg =
    Svg.create
      ~width:((float_of_int d1 *. cell) +. (2. *. margin))
      ~height:((float_of_int d0 *. cell) +. (2. *. margin))
  in
  let m = comm.Comm.m in
  for i = 0 to d0 - 1 do
    for j = 0 to d1 - 1 do
      let halo =
        i < comm.Comm.off.(0) || j < comm.Comm.off.(1)
      in
      let fill = if halo then "#fdc086" else "#ffffff" in
      Svg.rect svg
        ~x:(margin +. (float_of_int j *. cell))
        ~y:(margin +. (float_of_int i *. cell))
        ~w:cell ~h:cell ~fill ~stroke:"#888" ()
    done
  done;
  (* chain-tile separators along the mapping dimension *)
  let per_tile = tiling.Tiling.v.(m) / tiling.Tiling.c.(m) in
  for t = 0 to ntiles do
    let pos = comm.Comm.off.(m) + (t * per_tile) in
    if m = 0 then
      Svg.line svg ~x1:margin
        ~y1:(margin +. (float_of_int pos *. cell))
        ~x2:(margin +. (float_of_int d1 *. cell))
        ~y2:(margin +. (float_of_int pos *. cell))
        ~stroke:"#333" ~stroke_width:1.6 ()
    else
      Svg.line svg
        ~x1:(margin +. (float_of_int pos *. cell))
        ~y1:margin
        ~x2:(margin +. (float_of_int pos *. cell))
        ~y2:(margin +. (float_of_int d0 *. cell))
        ~stroke:"#333" ~stroke_width:1.6 ()
  done;
  Svg.text svg ~x:margin ~y:(margin /. 2.)
    (Printf.sprintf
       "LDS of one processor: %d tiles chained along dim %d; shaded = \
        communication storage"
       ntiles m);
  svg

let span_colour = function
  | Span.Compute -> "#7fc97f"
  | Span.Pack -> "#beaed4"
  | Span.Send -> "#fdc086"
  | Span.Wait -> "#d9d9d9"
  | Span.Unpack -> "#80b1d3"

let path_colour = "#e31a1c"

let timeline ?(title = "execution timeline") ?(path = []) ~nprocs ~completion
    spans =
  if spans = [] then invalid_arg "Figures.timeline: no spans";
  if completion <= 0. then invalid_arg "Figures.timeline: completion <= 0";
  let row_h = 22. and left = 60. in
  let time_w = 720. in
  let legend_y = (2. *. margin) +. (float_of_int nprocs *. row_h) in
  let svg =
    Svg.create
      ~width:(left +. time_w +. margin)
      ~height:(legend_y +. row_h)
  in
  let scale = time_w /. completion in
  List.iter
    (fun { Span.rank; t0; t1; kind } ->
      Svg.rect svg
        ~x:(left +. (t0 *. scale))
        ~y:(margin +. (float_of_int rank *. row_h) +. 2.)
        ~w:(Float.max 0.5 ((t1 -. t0) *. scale))
        ~h:(row_h -. 4.) ~fill:(span_colour kind) ())
    spans;
  (* critical-path overlay: outlined rects on the critical rank's row,
     message flights as diagonal lines hopping from the sender's row
     (wherever the previous on-path segment sat) to the receiver's *)
  let row_mid r = margin +. (float_of_int r *. row_h) +. (row_h /. 2.) in
  let prev_rank = ref None in
  List.iter
    (fun (sg : Critpath.segment) ->
      (match sg.Critpath.sg_kind with
      | Critpath.Flight ->
        let src = match !prev_rank with Some r -> r | None -> sg.sg_rank in
        Svg.line svg
          ~x1:(left +. (sg.Critpath.sg_t0 *. scale))
          ~y1:(row_mid src)
          ~x2:(left +. (sg.Critpath.sg_t1 *. scale))
          ~y2:(row_mid sg.Critpath.sg_rank)
          ~stroke:path_colour ~stroke_width:1.4 ~dash:"3 2" ()
      | Critpath.Queue ->
        (* NIC/uplink queueing: the message sits still before its hop,
           drawn flat on the sender's row where it queued *)
        let src = match !prev_rank with Some r -> r | None -> sg.sg_rank in
        Svg.line svg
          ~x1:(left +. (sg.Critpath.sg_t0 *. scale))
          ~y1:(row_mid src)
          ~x2:(left +. (sg.Critpath.sg_t1 *. scale))
          ~y2:(row_mid src)
          ~stroke:path_colour ~stroke_width:1.4 ~dash:"1 2" ()
      | Critpath.Activity _ | Critpath.Idle ->
        Svg.rect svg
          ~x:(left +. (sg.Critpath.sg_t0 *. scale))
          ~y:(margin +. (float_of_int sg.Critpath.sg_rank *. row_h) +. 1.)
          ~w:(Float.max 0.5 (Critpath.seg_duration sg *. scale))
          ~h:row_h ~stroke:path_colour ~opacity:0.9 ());
      (* a Queue segment keeps the pen on the sender's row so the
         following Flight still hops from there *)
      match sg.Critpath.sg_kind with
      | Critpath.Queue -> ()
      | _ -> prev_rank := Some sg.Critpath.sg_rank)
    path;
  for r = 0 to nprocs - 1 do
    Svg.text svg ~x:8.
      ~y:(margin +. (float_of_int r *. row_h) +. (row_h /. 2.) +. 4.)
      (Printf.sprintf "rank %d" r)
  done;
  List.iteri
    (fun i kind ->
      let x = left +. (float_of_int i *. 110.) in
      Svg.rect svg ~x ~y:(legend_y -. 10.) ~w:12. ~h:12.
        ~fill:(span_colour kind) ~stroke:"#666" ();
      Svg.text svg ~x:(x +. 16.) ~y:(legend_y +. 1.) (Span.kind_name kind))
    Span.all_kinds;
  if path <> [] then begin
    let x = left +. (float_of_int (List.length Span.all_kinds) *. 110.) in
    Svg.rect svg ~x ~y:(legend_y -. 10.) ~w:12. ~h:12. ~stroke:path_colour ();
    Svg.text svg ~x:(x +. 16.) ~y:(legend_y +. 1.) "critical path"
  end;
  Svg.text svg ~x:left ~y:(margin /. 2.)
    (Printf.sprintf "%s, %.4g s total" title completion);
  svg
