module Polyhedron = Tiles_poly.Polyhedron
module Constr = Tiles_poly.Constr
module Nest = Tiles_loop.Nest
module Kernel = Tiles_runtime.Kernel
module Tiling = Tiles_core.Tiling
module Rat = Tiles_rat.Rat

type t = { size : int }

let make ~size =
  if size < 2 then invalid_arg "Triband.make";
  { size }

let ckernel = Tiles_kernels.Defs.triband

let kernel _p = Bodies.Triband.kernel

let nest p =
  let n = p.size in
  let space =
    Polyhedron.make ~dim:2
      [
        Constr.lower_bound_var 2 0 0;
        Constr.upper_bound_var 2 0 (n - 1);
        Constr.lower_bound_var 2 1 0;
        (* j <= i *)
        Constr.ge [| 1; -1 |] 0;
      ]
  in
  Nest.make ~name:"triband" ~space ~deps:(Kernel.deps Bodies.Triband.kernel)

let rect ~x ~y = Tiling.rectangular [ x; y ]

let oblique ~x ~y =
  Tiling.of_rows
    [ [ Rat.make 1 x; Rat.zero ]; [ Rat.make 1 y; Rat.make 1 y ] ]

let variants = [ ("rect", rect); ("oblique", oblique) ]
