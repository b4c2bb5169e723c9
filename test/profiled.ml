(* The seven configurations the tuner's tile-space work was profiled on:
   the benchmark's four tunes (SOR and ADI 10/12 at 4 processes with
   factors [2; 3], Jacobi 4/6 and 4/7 at 2 processes with [2]) and SOR,
   Jacobi and ADI 24/32 at tilec tune's defaults (16 processes, factors
   2, 4, 6, 8, 10, 16, 25). *)

type config = {
  label : string;  (** e.g. "sor 10/12 procs=4 factors=2,3" *)
  file : string;  (** e.g. "sor-10-12" *)
  nest : Tiles_loop.Nest.t;
  kernel : Tiles_runtime.Kernel.t;
  procs : int;
  factors : int list;
}

let configs =
  let app name size1 size2 =
    match name with
    | "sor" ->
      let p = Tiles_apps.Sor.make ~m_steps:size1 ~size:size2 in
      (Tiles_apps.Sor.nest p, Tiles_apps.Sor.kernel p)
    | "jacobi" ->
      let p = Tiles_apps.Jacobi.make ~t_steps:size1 ~size:size2 in
      (Tiles_apps.Jacobi.nest p, Tiles_apps.Jacobi.kernel p)
    | _ ->
      let p = Tiles_apps.Adi.make ~t_steps:size1 ~size:size2 in
      (Tiles_apps.Adi.nest p, Tiles_apps.Adi.kernel p)
  in
  let defaults = [ 2; 4; 6; 8; 10; 16; 25 ] in
  List.map
    (fun (name, size1, size2, procs, factors) ->
      let nest, kernel = app name size1 size2 in
      {
        label =
          Printf.sprintf "%s %d/%d procs=%d factors=%s" name size1 size2 procs
            (String.concat "," (List.map string_of_int factors));
        file = Printf.sprintf "%s-%d-%d" name size1 size2;
        nest;
        kernel;
        procs;
        factors;
      })
    [
      ("sor", 10, 12, 4, [ 2; 3 ]);
      ("adi", 10, 12, 4, [ 2; 3 ]);
      ("jacobi", 4, 6, 2, [ 2 ]);
      ("jacobi", 4, 7, 2, [ 2 ]);
      ("sor", 24, 32, 16, defaults);
      ("jacobi", 24, 32, 16, defaults);
      ("adi", 24, 32, 16, defaults);
    ]
