module Nest = Tiles_loop.Nest
module Tiling = Tiles_core.Tiling
module Kernel = Tiles_runtime.Kernel

type app = {
  name : string;
  instance : size1:int -> size2:int -> Nest.t * Kernel.t;
  m : int;
  variants : (string * (x:int -> y:int -> z:int -> Tiling.t)) list;
  ckernel : Tiles_codegen.Ckernel.t;
  creads : Tiles_util.Vec.t list;
  skew : Tiles_linalg.Intmat.t option;
  pspace : unit -> Tiles_poly.Pspace.t;
}

let table =
  [
    {
      name = "sor";
      instance =
        (fun ~size1 ~size2 ->
          let p = Sor.make ~m_steps:size1 ~size:size2 in
          (Sor.nest p, Sor.kernel p));
      m = Sor.mapping_dim;
      variants = Sor.variants;
      ckernel = Sor.ckernel;
      creads = Sor.skewed_reads;
      skew = Some Sor.skew_matrix;
      pspace = Sor.pspace;
    };
    {
      name = "jacobi";
      instance =
        (fun ~size1 ~size2 ->
          let p = Jacobi.make ~t_steps:size1 ~size:size2 in
          (Jacobi.nest p, Jacobi.kernel p));
      m = Jacobi.mapping_dim;
      variants = Jacobi.variants;
      ckernel = Jacobi.ckernel;
      creads = Jacobi.skewed_reads;
      skew = Some Jacobi.skew_matrix;
      pspace = Jacobi.pspace;
    };
    {
      name = "adi";
      instance =
        (fun ~size1 ~size2 ->
          let p = Adi.make ~t_steps:size1 ~size:size2 in
          (Adi.nest p, Adi.kernel p));
      m = Adi.mapping_dim;
      variants = Adi.variants;
      ckernel = Adi.ckernel;
      creads = Adi.creads;
      skew = None;
      pspace = Adi.pspace;
    };
  ]

let find name =
  match List.find_opt (fun a -> a.name = name) table with
  | Some a -> Ok a
  | None ->
    Error
      (Printf.sprintf "unknown app %S (expected %s)" name
         (String.concat " | " (List.map (fun a -> a.name) table)))

type resolved = {
  app : app;
  variant : string;
  nest : Nest.t;
  kernel : Kernel.t;
  m : int;
  tiling : Tiling.t;
}

let resolve ~app ~size1 ~size2 ~variant ~tile:(x, y, z) =
  let ( let* ) = Result.bind in
  let* () =
    if size1 < 1 || size2 < 1 then
      Error (Printf.sprintf "sizes must be >= 1 (got %d, %d)" size1 size2)
    else Ok ()
  in
  let* app = find app in
  let* mk =
    Option.to_result (List.assoc_opt variant app.variants)
      ~none:
        (Printf.sprintf "unknown %s variant %S (expected %s)" app.name variant
           (String.concat " | " (List.map fst app.variants)))
  in
  let nest, kernel = app.instance ~size1 ~size2 in
  (* an illegal or singular tiling surfaces here, as a structured
     rejection rather than a worker-side crash *)
  match mk ~x ~y ~z with
  | tiling -> Ok { app; variant; nest; kernel; m = app.m; tiling }
  | exception (Invalid_argument msg | Failure msg) -> Error msg
  | exception Division_by_zero -> Error "singular tiling (zero tile factor)"
