module Polyhedron = Tiles_poly.Polyhedron
module Nest = Tiles_loop.Nest
module Skew = Tiles_loop.Skew
module Kernel = Tiles_runtime.Kernel
module Tiling = Tiles_core.Tiling
module Rat = Tiles_rat.Rat

type t = { m_steps : int; size : int }

let make ~m_steps ~size =
  if m_steps < 1 || size < 1 then invalid_arg "Sor.make";
  { m_steps; size }

let ckernel = Tiles_kernels.Defs.sor

let original_kernel = Bodies.Sor.kernel

(* 0-based iteration space (the paper writes 1..M; a constant shift of the
   space is immaterial and makes tile blocks align with the origin, so a
   factor equal to the extent gives exactly one tile along that axis) *)
let original_nest p =
  Nest.make ~name:"sor"
    ~space:
      (Polyhedron.box [ (0, p.m_steps - 1); (0, p.size - 1); (0, p.size - 1) ])
    ~deps:(Kernel.deps original_kernel)

let skew_matrix = Skew.of_factors 3 [ (1, 0, 1); (2, 0, 2) ]
let nest p = Skew.apply (original_nest p) skew_matrix
let kernel _p = Kernel.skewed original_kernel skew_matrix
let mapping_dim = 2

let r = Rat.make
let i0 = Rat.zero

let rect ~x ~y ~z = Tiling.rectangular [ x; y; z ]

let nonrect ~x ~y ~z =
  Tiling.of_rows
    [ [ r 1 x; i0; i0 ]; [ i0; r 1 y; i0 ]; [ r (-1) z; i0; r 1 z ] ]

let variants = [ ("rect", rect); ("nonrect", nonrect) ]

let skewed_reads = (Kernel.skewed original_kernel skew_matrix).Kernel.reads

(* the same iteration space with symbolic extents M and N, skewed like
   [nest]; one generated binary then serves every problem size *)
let pspace () =
  let b = ([], 0) in
  Tiles_poly.Pspace.transform_unimodular skew_matrix
    (Tiles_poly.Pspace.box ~params:[ "M"; "N" ]
       [
         (b, ([ ("M", 1) ], -1));
         (b, ([ ("N", 1) ], -1));
         (b, ([ ("N", 1) ], -1));
       ])
