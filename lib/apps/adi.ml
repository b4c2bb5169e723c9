module Polyhedron = Tiles_poly.Polyhedron
module Nest = Tiles_loop.Nest
module Kernel = Tiles_runtime.Kernel
module Tiling = Tiles_core.Tiling
module Rat = Tiles_rat.Rat

type t = { t_steps : int; size : int }

let make ~t_steps ~size =
  if t_steps < 1 || size < 1 then invalid_arg "Adi.make";
  { t_steps; size }

let ckernel = Tiles_kernels.Defs.adi

let kernel _p = Bodies.Adi.kernel

(* 0-based iteration space; see the note in sor.ml *)
let nest p =
  Nest.make ~name:"adi"
    ~space:
      (Polyhedron.box [ (0, p.t_steps - 1); (0, p.size - 1); (0, p.size - 1) ])
    ~deps:(Kernel.deps Bodies.Adi.kernel)

let mapping_dim = 0

let r = Rat.make
let i0 = Rat.zero

let rect ~x ~y ~z = Tiling.rectangular [ x; y; z ]

let nr1 ~x ~y ~z =
  Tiling.of_rows
    [ [ r 1 x; r (-1) x; i0 ]; [ i0; r 1 y; i0 ]; [ i0; i0; r 1 z ] ]

let nr2 ~x ~y ~z =
  Tiling.of_rows
    [ [ r 1 x; i0; r (-1) x ]; [ i0; r 1 y; i0 ]; [ i0; i0; r 1 z ] ]

let nr3 ~x ~y ~z =
  Tiling.of_rows
    [ [ r 1 x; r (-1) x; r (-1) x ]; [ i0; r 1 y; i0 ]; [ i0; i0; r 1 z ] ]

let variants = [ ("rect", rect); ("nr1", nr1); ("nr2", nr2); ("nr3", nr3) ]

let creads = Bodies.Adi.kernel.Kernel.reads

(* symbolic-extent iteration space for the parametric generator *)
let pspace () =
  let b = ([], 0) in
  Tiles_poly.Pspace.box ~params:[ "T"; "N" ]
    [
      (b, ([ ("T", 1) ], -1));
      (b, ([ ("N", 1) ], -1));
      (b, ([ ("N", 1) ], -1));
    ]
