module Intmat = Tiles_linalg.Intmat
module Ratmat = Tiles_linalg.Ratmat
module Rat = Tiles_rat.Rat
module Vec = Tiles_util.Vec

type t = { m : Intmat.t; offset : Vec.t }

let make ~m ~offset =
  if Intmat.rows m <> Vec.dim offset then invalid_arg "Access.make: dimensions";
  { m; offset }

let identity n = { m = Intmat.identity n; offset = Vec.zero n }
let shifted n d =
  if Vec.dim d <> n then invalid_arg "Access.shifted";
  { m = Intmat.identity n; offset = Vec.neg d }

let dependence_of_read ~write ~read =
  if not (Intmat.equal write.m read.m) then
    failwith
      "Access.dependence_of_read: non-uniform access (linear parts differ)";
  if not (Intmat.is_square write.m) || Intmat.det write.m = 0 then
    failwith "Access.dependence_of_read: write reference is not invertible";
  let minv = Ratmat.inverse (Ratmat.of_intmat write.m) in
  let diff = Vec.sub write.offset read.offset in
  let d = Ratmat.apply_int minv diff in
  if not (Array.for_all Rat.is_integer d) then
    failwith "Access.dependence_of_read: non-integral dependence";
  let d = Array.map Rat.to_int_exn d in
  if Vec.is_zero d then
    failwith "Access.dependence_of_read: read aliases the write (d = 0)";
  d

let dependencies ~write ~reads =
  Dependence.of_vectors
    (List.map (fun read -> dependence_of_read ~write ~read) reads)

let statement_nest ~name ~space ~write ~reads =
  Nest.make ~name ~space ~deps:(dependencies ~write ~reads)
