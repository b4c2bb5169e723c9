module Polyhedron = Tiles_poly.Polyhedron
module Nest = Tiles_loop.Nest
module Skew = Tiles_loop.Skew
module Kernel = Tiles_runtime.Kernel
module Tiling = Tiles_core.Tiling
module Rat = Tiles_rat.Rat

type t = { t_steps : int; size : int }

let make ~t_steps ~size =
  if t_steps < 1 || size < 1 then invalid_arg "Jacobi.make";
  { t_steps; size }

let ckernel = Tiles_kernels.Defs.jacobi

let original_kernel = Bodies.Jacobi.kernel

(* 0-based iteration space; see the note in sor.ml *)
let original_nest p =
  Nest.make ~name:"jacobi"
    ~space:
      (Polyhedron.box [ (0, p.t_steps - 1); (0, p.size - 1); (0, p.size - 1) ])
    ~deps:(Kernel.deps original_kernel)

let skew_matrix = Skew.of_factors 3 [ (1, 0, 1); (2, 0, 1) ]
let nest p = Skew.apply (original_nest p) skew_matrix
let kernel _p = Kernel.skewed original_kernel skew_matrix
let mapping_dim = 0

let r = Rat.make
let i0 = Rat.zero

let rect ~x ~y ~z = Tiling.rectangular [ x; y; z ]

let nonrect ~x ~y ~z =
  Tiling.of_rows
    [
      [ r 1 x; r (-1) (2 * x); i0 ];
      [ i0; r 1 y; i0 ];
      [ i0; i0; r 1 z ];
    ]

let variants = [ ("rect", rect); ("nonrect", nonrect) ]

let skewed_reads = (Kernel.skewed original_kernel skew_matrix).Kernel.reads

let pspace () =
  let b = ([], 0) in
  Tiles_poly.Pspace.transform_unimodular skew_matrix
    (Tiles_poly.Pspace.box ~params:[ "T"; "N" ]
       [
         (b, ([ ("T", 1) ], -1));
         (b, ([ ("N", 1) ], -1));
         (b, ([ ("N", 1) ], -1));
       ])
