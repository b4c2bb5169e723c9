module Polyhedron = Tiles_poly.Polyhedron
module Constr = Tiles_poly.Constr
module FM = Tiles_poly.Fourier_motzkin
module Vec = Tiles_util.Vec

type t = {
  tspace : Tile_space.t;
  m : int;
  pids : Vec.t array;
  chains : (int * int) array;
}

let max_trip_dim (ts : Tile_space.t) =
  let bbox = Polyhedron.bounding_box ts.poly in
  let trips = Array.map (fun (lo, hi) -> hi - lo + 1) bbox in
  let best = ref 0 in
  for k = 1 to Array.length trips - 1 do
    if trips.(k) > trips.(!best) then best := k
  done;
  !best

(* The tile polyhedron with coordinate m moved last, so that the standard
   lexicographic projection chain enumerates (pid, t^S). *)
let permuted_poly (ts : Tile_space.t) m =
  let n = Polyhedron.dim ts.poly in
  let cs =
    List.map
      (fun c ->
        let coeffs = Vec.permute_to_last (Array.init n (Constr.coeff c)) m in
        Constr.make ~coeffs ~const:(Constr.const c))
      (Polyhedron.constraints ts.poly)
  in
  Polyhedron.make ~dim:n cs

let make ?m tspace =
  let n = Polyhedron.dim tspace.Tile_space.poly in
  if n < 2 then invalid_arg "Mapping.make: need at least 2 dimensions";
  let m = match m with Some m -> m | None -> max_trip_dim tspace in
  if m < 0 || m >= n then invalid_arg "Mapping.make: bad mapping dimension";
  let poly = permuted_poly tspace m in
  let proj = Polyhedron.projection poly in
  let pids = ref [] and chains = ref [] in
  let prefix = Array.make n 0 in
  let rec go k =
    if k = n - 1 then begin
      match FM.bounds proj ~var:k ~prefix with
      | None -> ()
      | Some (lo, hi) ->
        pids := Array.sub prefix 0 (n - 1) :: !pids;
        chains := (lo, hi) :: !chains
    end
    else
      match FM.bounds proj ~var:k ~prefix with
      | None -> ()
      | Some (lo, hi) ->
        for v = lo to hi do
          prefix.(k) <- v;
          go (k + 1)
        done
  in
  go 0;
  {
    tspace;
    m;
    pids = Array.of_list (List.rev !pids);
    chains = Array.of_list (List.rev !chains);
  }

let nprocs t = Array.length t.pids

let rank_of_pid t pid =
  (* pids are sorted lexicographically by construction: binary search *)
  let lo = ref 0 and hi = ref (Array.length t.pids - 1) in
  let found = ref None in
  while !found = None && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = Vec.compare_lex pid t.pids.(mid) in
    if c = 0 then found := Some mid
    else if c < 0 then hi := mid - 1
    else lo := mid + 1
  done;
  !found

let pid_of_rank t rank = Vec.copy t.pids.(rank)
let chain t rank = t.chains.(rank)

let to_schedule t s = Vec.permute_to_last s t.m

let of_schedule t s =
  let n = Array.length s in
  Array.init n (fun i ->
      if i < t.m then s.(i)
      else if i = t.m then s.(n - 1)
      else s.(i - 1))

let split t s =
  let sched = to_schedule t s in
  (Array.sub sched 0 (Array.length s - 1), sched.(Array.length s - 1))

let join t ~pid ~ts =
  of_schedule t (Array.append pid [| ts |])

let valid t ~pid ~ts = Tile_space.contains t.tspace (join t ~pid ~ts)

(* a chain's range is exact: every position in it is a candidate *)
let tiles_of_rank t rank =
  let pid = t.pids.(rank) in
  let lo, hi = t.chains.(rank) in
  List.init (hi - lo + 1) (fun i -> join t ~pid ~ts:(lo + i))
