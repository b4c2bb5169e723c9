module Vec = Tiles_util.Vec
module Fbuf = Tiles_util.Fbuf
module Intmat = Tiles_linalg.Intmat
module Ratmat = Tiles_linalg.Ratmat
module Ckernel = Tiles_codegen.Ckernel
module Kir = Tiles_kir.Kir
module A1 = Bigarray.Array1

type coefs = { data : Fbuf.t; off : int array; str : int array array }

type row_body =
  la:Fbuf.t ->
  dst:int ->
  taps:int array ->
  len:int ->
  j:int array ->
  jstep:int array ->
  coefs:coefs ->
  unit

type t = {
  name : string;
  dim : int;
  width : int;
  uses_j : bool;
  reads : Vec.t list;
  boundary : Vec.t -> int -> float;
  compute : read:(int -> int -> float) -> j:Vec.t -> out:float array -> unit;
  row : row_body;
  statics : (int list * (int array -> float)) array;
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

(* [compute] point by point along the row; the scratch is the row's own,
   since ranks on separate domains share the kernel *)
let row_of_compute ~width compute ~(la : Fbuf.t) ~dst ~taps ~len ~j ~jstep
    ~coefs:_ =
  let out = Array.make width 0. and j = Array.copy j and cur = ref dst in
  let read r f = A1.unsafe_get la (((!cur + taps.(r)) * width) + f) in
  for _ = 1 to len do
    compute ~read ~j ~out;
    for f = 0 to width - 1 do
      A1.unsafe_set la ((!cur * width) + f) (Array.unsafe_get out f)
    done;
    incr cur;
    for k = 0 to Array.length j - 1 do
      j.(k) <- j.(k) + jstep.(k)
    done
  done

let make ~name ~dim ?(width = 1) ?(uses_j = true) ?row ~reads ~boundary
    ~compute () =
  if width <= 0 then invalid_arg "Kernel.make: width";
  if reads = [] then invalid_arg "Kernel.make: no reads";
  if List.exists (fun r -> Vec.dim r <> dim) reads then
    invalid_arg "Kernel.make: read offset dimension mismatch";
  let row =
    match row with Some row -> row | None -> row_of_compute ~width compute
  in
  {
    name; dim; width; uses_j; reads; boundary; compute; row; statics = [||];
    ckernel = None; skew = Intmat.identity dim;
  }

let unset_read ~(la : Fbuf.t) ~width ~dst ~taps ~len =
  (* tap [r] reads below the row at steps [s < -taps.(r)] only *)
  let reach = min len (-Array.fold_left min 0 taps) in
  let rec unset c f =
    f < width && (Float.is_nan la.{(c * width) + f} || unset c (f + 1))
  in
  let rec scan s r =
    if s >= reach then None
    else if r = Array.length taps then scan (s + 1) 0
    else if s + taps.(r) < 0 && unset (dst + s + taps.(r)) 0 then Some (s, r)
    else scan s (r + 1)
  in
  scan 0 0

let of_ir ir ~compute ~row ~statics ~boundary () =
  let coords = List.map snd (Kir.statics ir) in
  if Array.length statics <> List.length coords then
    invalid_arg "Kernel.of_ir: statics";
  let k =
    make ~name:ir.Kir.name ~dim:ir.Kir.dim ~width:(Kir.width ir)
      ~uses_j:(Kir.uses_j ir) ~row ~reads:(Kir.reads ir) ~boundary ~compute ()
  in
  {
    k with
    ckernel = Some ir;
    statics = Array.of_list (List.combine coords (Array.to_list statics));
  }

let inverse t = Ratmat.to_intmat_exn (Ratmat.inverse (Ratmat.of_intmat t))

(* [Σ_k str.(v).(k)·x.(k)], plus [off.(v)] for a point *)
let coef_dot c v (x : int array) =
  let s = c.str.(v) and acc = ref 0 in
  for k = 0 to Array.length s - 1 do
    acc := !acc + (s.(k) * x.(k))
  done;
  !acc

let coef_start c v j = c.off.(v) + coef_dot c v j
let coef_step = coef_dot
let no_coefs = { data = Fbuf.create 0; off = [||]; str = [||] }

let coefs ?(memo = fun f -> f ()) k ~lo ~dims =
  if k.statics = [||] then no_coefs
  else
    let n = k.dim in
    (* the box in original coordinates: the skew's inverse applied to
       [lo, lo + dims) by interval arithmetic, a cover of the space *)
    let tinv = inverse k.skew in
    let olo = Array.make n 0 and ohi = Array.make n 0 in
    for r = 0 to n - 1 do
      for c = 0 to n - 1 do
        let a = tinv.(r).(c) * lo.(c)
        and b = tinv.(r).(c) * (lo.(c) + dims.(c) - 1) in
        olo.(r) <- olo.(r) + min a b;
        ohi.(r) <- ohi.(r) + max a b
      done
    done;
    (* static let [v] row-major over its coordinates' extents, the
       tables one after another *)
    let nst = Array.length k.statics in
    let off = Array.make nst 0 and str = Array.make_matrix nst n 0 in
    let layout = { no_coefs with off; str } and size = ref 0 in
    Array.iteri
      (fun v (cs, _) ->
        let s = ref 1 in
        List.iter
          (fun c ->
            str.(v).(c) <- !s;
            s := !s * max 0 (ohi.(c) - olo.(c) + 1))
          (List.rev cs);
        off.(v) <- !size - coef_dot layout v olo;
        size := !size + !s)
      k.statics;
    let data =
      memo (fun () ->
          let data = Fbuf.create !size and j = Array.copy olo in
          Array.iteri
            (fun v (cs, f) ->
              let rec fill = function
                | [] -> Fbuf.set data (coef_start layout v j) (f j)
                | c :: rest ->
                  for x = olo.(c) to ohi.(c) do
                    j.(c) <- x;
                    fill rest
                  done
              in
              fill cs)
            k.statics;
          data)
    in
    { layout with data }

let skewed k t =
  if not (Intmat.is_unimodular t) then invalid_arg "Kernel.skewed: not unimodular";
  let tinv = inverse t in
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
    (* compute and row receive skewed coordinates; kernels that need
       original ones (e.g. ADI's coefficient array A[i,j]) must be built
       via [skewed] from a kernel that uses original coordinates — so
       unskew here too: per point for compute, per row (its first point
       and its step) for row. Kernels that declare [uses_j = false] never
       look at j, so the unskew (an allocation) is skipped. *)
    compute =
      (if k.uses_j then fun ~read ~j ~out -> k.compute ~read ~j:(unskew j) ~out
       else k.compute);
    row =
      (if k.uses_j then fun ~la ~dst ~taps ~len ~j ~jstep ~coefs ->
         k.row ~la ~dst ~taps ~len ~j:(unskew j) ~jstep:(unskew jstep) ~coefs
       else k.row);
  }
