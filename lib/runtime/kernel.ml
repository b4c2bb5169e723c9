module Vec = Tiles_util.Vec
module Fbuf = Tiles_util.Fbuf
module Intmat = Tiles_linalg.Intmat
module Ratmat = Tiles_linalg.Ratmat
module Ckernel = Tiles_codegen.Ckernel
module Kir = Tiles_kir.Kir

type row_body = la:Fbuf.t -> dst:int -> taps:int array -> len:int -> unit

type t = {
  name : string;
  dim : int;
  width : int;
  uses_j : bool;
  reads : Vec.t list;
  boundary : Vec.t -> int -> float;
  compute : read:(int -> int -> float) -> j:Vec.t -> out:float array -> unit;
  row : row_body option;
  ckernel : Ckernel.t option;
  (* cumulative skew applied via [skewed]; identity for unskewed kernels.
     The native emitter needs it to recover original coordinates. *)
  skew : Intmat.t;
}

let deps t = Tiles_loop.Dependence.of_vectors t.reads

let content_key t =
  Option.map
    (fun ir ->
      Marshal.to_string (ir, t.skew, t.width, t.reads) [ Marshal.No_sharing ])
    t.ckernel

let make ~name ~dim ?(width = 1) ?(uses_j = true) ?row ~reads ~boundary
    ~compute () =
  if width <= 0 then invalid_arg "Kernel.make: width";
  if reads = [] then invalid_arg "Kernel.make: no reads";
  if List.exists (fun r -> Vec.dim r <> dim) reads then
    invalid_arg "Kernel.make: read offset dimension mismatch";
  if row <> None && width <> 1 then
    invalid_arg "Kernel.make: row bodies require width = 1";
  {
    name; dim; width; uses_j; reads; boundary; compute; row; ckernel = None;
    skew = Intmat.identity dim;
  }

let of_ir ir ~compute ?row ~boundary () =
  if Option.is_some row <> Kir.has_row ir then invalid_arg "Kernel.of_ir: row";
  let k =
    make ~name:ir.Kir.name ~dim:ir.Kir.dim ~width:(Kir.width ir)
      ~uses_j:(Kir.uses_j ir) ?row ~reads:(Kir.reads ir) ~boundary ~compute ()
  in
  { k with ckernel = Some ir }

let skewed k t =
  if not (Intmat.is_unimodular t) then invalid_arg "Kernel.skewed: not unimodular";
  let tinv = Ratmat.to_intmat_exn (Ratmat.inverse (Ratmat.of_intmat t)) in
  (* T⁻¹·j by a direct loop over T⁻¹'s rows, into a fresh array per call:
     ranks on separate domains share the kernel, so no scratch *)
  let unskew j =
    let n = Array.length tinv in
    let r = Array.make n 0 in
    for i = 0 to n - 1 do
      let row = tinv.(i) in
      let acc = ref 0 in
      for c = 0 to n - 1 do
        acc := !acc + (row.(c) * j.(c))
      done;
      r.(i) <- !acc
    done;
    r
  in
  {
    k with
    name = k.name ^ "-skewed";
    reads = List.map (Intmat.apply t) k.reads;
    boundary = (fun j field -> k.boundary (unskew j) field);
    skew = Intmat.mul t k.skew;
    (* compute receives the skewed j; kernels that need original
       coordinates (e.g. ADI's coefficient array A[i,j]) must be built via
       [skewed] from a kernel that uses original coordinates — so unskew
       here too. Kernels that declare [uses_j = false] never look at j, so
       the per-point unskew (an allocation) is skipped. *)
    compute =
      (if k.uses_j then fun ~read ~j ~out -> k.compute ~read ~j:(unskew j) ~out
       else k.compute);
  }
