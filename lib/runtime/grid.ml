module Polyhedron = Tiles_poly.Polyhedron
module Fbuf = Tiles_util.Fbuf
module A1 = Bigarray.Array1

type t = {
  width : int;
  lo : int array;
  dims : int array;
  strides : int array;
  data : Fbuf.t;
}

let create ?(reads = []) space ~width =
  if width <= 0 then invalid_arg "Grid.create: width";
  let bbox = Polyhedron.bounding_box space in
  let n = Array.length bbox in
  (* widen the box to the reach of the reads: [j - d] lies inside it for
     every space point [j] and read [d] *)
  let lo =
    Array.mapi
      (fun k (l, _) -> List.fold_left (fun acc d -> min acc (l - d.(k))) l reads)
      bbox
  in
  let dims =
    Array.mapi
      (fun k (_, h) ->
        List.fold_left (fun acc d -> max acc (h - d.(k))) h reads - lo.(k) + 1)
      bbox
  in
  let strides = Array.make n width in
  for k = n - 2 downto 0 do
    strides.(k) <- strides.(k + 1) * dims.(k + 1)
  done;
  let total = strides.(0) * dims.(0) in
  { width; lo; dims; strides; data = Fbuf.make total Float.nan }

let width t = t.width

let check_rank fn t j =
  if Array.length j <> Array.length t.lo then
    invalid_arg
      (Printf.sprintf "Grid.%s: point rank %d differs from grid rank %d" fn
         (Array.length j) (Array.length t.lo))

let index t j field =
  check_rank "index" t j;
  let idx = ref field in
  for k = 0 to Array.length t.lo - 1 do
    let x = j.(k) - t.lo.(k) in
    if x < 0 || x >= t.dims.(k) then invalid_arg "Grid: out of bounding box";
    idx := !idx + (t.strides.(k) * x)
  done;
  !idx

let get t j field = Fbuf.get t.data (index t j field)
let set t j field v = Fbuf.set t.data (index t j field) v
let strides t = t.strides
let data t = t.data
let slots t = Fbuf.length t.data

let mem t j =
  check_rank "mem" t j;
  let ok = ref true in
  for k = 0 to Array.length t.lo - 1 do
    let rel = j.(k) - t.lo.(k) in
    if rel < 0 || rel >= t.dims.(k) then ok := false
  done;
  !ok

let load_boxed t a =
  if Array.length a <> Fbuf.length t.data then
    invalid_arg
      (Printf.sprintf "Grid.load_boxed: %d slots given, grid has %d"
         (Array.length a) (Fbuf.length t.data));
  Array.iteri (fun i v -> Fbuf.set t.data i v) a

(* slot of field 0 at the row start [j] of a [len]-point row; both row
   ends are bounds-checked, and the row's [len·width] slots are then
   contiguous *)
let row_index t j len =
  let i = index t j 0 in
  let last = Array.length t.lo - 1 in
  if j.(last) + len - 1 - t.lo.(last) >= t.dims.(last) then
    invalid_arg "Grid: out of bounding box";
  i

let max_abs_diff a b space =
  if a.width <> b.width then invalid_arg "Grid.max_abs_diff: widths differ";
  let worst = ref 0. in
  Polyhedron.iter_rows space (fun j len ->
      (* the two boxes may differ, so each grid indexes the row itself *)
      let ia = row_index a j len and ib = row_index b j len in
      for s = 0 to (len * a.width) - 1 do
        let x = A1.unsafe_get a.data (ia + s)
        and y = A1.unsafe_get b.data (ib + s) in
        let d =
          if Float.is_nan x || Float.is_nan y then infinity
          else Float.abs (x -. y)
        in
        if d > !worst then worst := d
      done);
  !worst

(* splitmix64's finalizer: a bijection on 64-bit words *)
let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let golden = 0x9e3779b97f4a7c15L

(* slot [s] of a row starting at point [j] is field [s mod width] of
   point [j + (s / width)·e_n], so its key [lead + (j_n·width + s)·golden]
   steps by [golden] along the row; each term is a bijection of the
   slot's bits for a fixed key *)
let digest t space =
  let n = Array.length t.lo in
  let sum = ref 0L in
  Polyhedron.iter_rows space (fun j len ->
      let i0 = row_index t j len in
      let lead = ref 0L in
      for k = 0 to n - 2 do
        lead := mix (Int64.add !lead (Int64.of_int j.(k)))
      done;
      let first = Int64.of_int (j.(n - 1) * t.width) in
      let key = ref (Int64.add !lead (Int64.mul first golden)) in
      let acc = ref 0L in
      for i = i0 to i0 + (len * t.width) - 1 do
        let bits = Int64.bits_of_float (A1.unsafe_get t.data i) in
        acc := Int64.add !acc (mix (Int64.logxor bits !key));
        key := Int64.add !key golden
      done;
      sum := Int64.add !sum !acc);
  !sum

(* Neumaier compensated summation: the running error term absorbs the
   low-order bits ordinary left-to-right addition drops, so the result is
   faithful to the exact sum well past double rounding noise and — the
   property walkers rely on — stable under any traversal order of the
   same multiset of values. *)
let checksum t space =
  let sum = ref 0. and comp = ref 0. in
  Polyhedron.iter_rows space (fun j len ->
      let i0 = row_index t j len in
      for i = i0 to i0 + (len * t.width) - 1 do
        let x = A1.unsafe_get t.data i in
        let s = !sum +. x in
        if Float.abs !sum >= Float.abs x then
          comp := !comp +. ((!sum -. s) +. x)
        else comp := !comp +. ((x -. s) +. !sum);
        sum := s
      done);
  !sum +. !comp
