module A1 = Bigarray.Array1

type t = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

let create n : t = A1.create Bigarray.float64 Bigarray.c_layout n

let make n v =
  let a = create n in
  A1.fill a v;
  a

let length (a : t) = A1.dim a
let get (a : t) i = A1.get a i
let set (a : t) i v = A1.set a i v

let blit ~(src : t) ~src_pos ~(dst : t) ~dst_pos ~len =
  if
    len < 0 || src_pos < 0 || dst_pos < 0
    || src_pos + len > A1.dim src
    || dst_pos + len > A1.dim dst
  then invalid_arg "Fbuf.blit";
  (* [A1.sub] allocates a custom block per call; for the short rows the
     walkers move, a direct loop beats two allocations plus a C call *)
  if len < 32 then
    for i = 0 to len - 1 do
      A1.unsafe_set dst (dst_pos + i) (A1.unsafe_get src (src_pos + i))
    done
  else A1.blit (A1.sub src src_pos len) (A1.sub dst dst_pos len)

let fill (a : t) ~pos ~len v =
  if len < 0 || pos < 0 || pos + len > A1.dim a then invalid_arg "Fbuf.fill";
  (* as in [blit]: short ranges skip the [A1.sub] allocation *)
  if len < 32 then
    for i = pos to pos + len - 1 do
      A1.unsafe_set a i v
    done
  else A1.fill (A1.sub a pos len) v

let copy (a : t) =
  let b = create (length a) in
  A1.blit a b;
  b

let append (a : t) (b : t) =
  let la = length a and lb = length b in
  let c = create (la + lb) in
  if la > 0 then A1.blit a (A1.sub c 0 la);
  if lb > 0 then A1.blit b (A1.sub c la lb);
  c

let of_array arr =
  let a = create (Array.length arr) in
  Array.iteri (fun i v -> A1.unsafe_set a i v) arr;
  a

let to_array (a : t) = Array.init (length a) (fun i -> A1.unsafe_get a i)
