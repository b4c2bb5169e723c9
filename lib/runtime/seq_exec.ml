module Polyhedron = Tiles_poly.Polyhedron
module Constr = Tiles_poly.Constr
module FM = Tiles_poly.Fourier_motzkin
module Ints = Tiles_util.Ints
module Vec = Tiles_util.Vec
module A1 = Bigarray.Array1

(* The oracle deliberately computes on a boxed [float array] (addressed
   through [Grid.index]) and publishes the result via [Grid.load_boxed]:
   it shares no storage code with the fast paths, so a bug in the
   Bigarray migration cannot cancel out of a reference comparison. *)
let reference_run ~space ~kernel =
  let n = Polyhedron.dim space in
  let grid = Grid.create space ~width:kernel.Kernel.width in
  let data = Array.make (Grid.slots grid) Float.nan in
  let reads = Array.of_list kernel.Kernel.reads in
  let src = Array.make n 0 in
  let out = Array.make kernel.Kernel.width 0. in
  Polyhedron.iter_points space (fun j ->
      let read i field =
        let d = reads.(i) in
        for k = 0 to n - 1 do
          src.(k) <- j.(k) - d.(k)
        done;
        if Polyhedron.member space src then data.(Grid.index grid src field)
        else kernel.Kernel.boundary src field
      in
      kernel.Kernel.compute ~read ~j ~out;
      for f = 0 to kernel.Kernel.width - 1 do
        data.(Grid.index grid j f) <- out.(f)
      done);
  Grid.load_boxed grid data;
  grid

(* Strength-reduced sequential walk: rows of the iteration space are
   enumerated through the Fourier–Motzkin projection chain (the innermost
   level is the original system, so whole rows are members); the grid's
   dense row-major box makes each tap's flat-index delta a global
   constant. Each row splits into three segments, the same split as
   {!Walker}'s [row_interior_span]: a boundary prefix and suffix, whose
   points may read outside the space and go through the guarded
   per-point path ([member] test per tap, [boundary] values outside),
   and the interior run between them, whose taps all land in the space
   and read with pure index arithmetic. *)
let fast_run ~check ~space ~kernel =
  let n = Polyhedron.dim space in
  let width = kernel.Kernel.width in
  let grid = Grid.create space ~width in
  let gdata = Grid.data grid in
  let gstr = Grid.strides grid in
  let reads = Array.of_list kernel.Kernel.reads in
  let member = Walker.compiled_member space in
  (* flat-index (slot) delta of tap i: constant over the whole box *)
  let deltas =
    Array.map
      (fun d ->
        let acc = ref 0 in
        for k = 0 to n - 1 do
          acc := !acc - (gstr.(k) * d.(k))
        done;
        !acc)
      reads
  in
  (* per space constraint a·x + c >= 0: the coefficients, and the
     constant less the largest tap shift max_r a·d_r. Every tap of point
     j lands in the space iff a·j + shifted >= 0 for every constraint. *)
  let cons = Array.of_list (Polyhedron.constraints space) in
  let coeffs = Array.map (fun c -> Array.init n (Constr.coeff c)) cons in
  let shifted =
    Array.map2
      (fun c a ->
        Constr.const c
        - Array.fold_left (fun acc d -> max acc (Vec.dot a d)) min_int reads)
      cons coeffs
  in
  let proj = FM.project (Polyhedron.constraints space) ~dim:n in
  let j = Array.make n 0 in
  let src = Array.make n 0 in
  let out = Array.make width 0. in
  (* the sequential walk has no LDS, so taps are *slot* deltas with the
     field folded in — a different ABI from the walker's cell deltas;
     the native row kernels therefore don't apply here and [Native]
     runs the same row bodies as [Fastpath] *)
  let row_body = if check then None else kernel.Kernel.row in
  let nan_error i =
    failwith
      (Printf.sprintf
         "Seq_exec: read of uninitialised grid cell at iteration %s read %d"
         (Vec.to_string j) i)
  in
  (* slot of the current point; the read closures below are built once
     per run and follow it *)
  let cur = ref 0 in
  let interior_read i field =
    let v = A1.unsafe_get gdata (!cur + deltas.(i) + field) in
    if check && Float.is_nan v then nan_error i;
    v
  in
  let guarded_read i field =
    let d = reads.(i) in
    for k = 0 to n - 1 do
      src.(k) <- j.(k) - d.(k)
    done;
    if member src then interior_read i field
    else kernel.Kernel.boundary src field
  in
  (* points [a, b] of the row starting at [start] with slot [g0] *)
  let points ~read ~start ~g0 a b =
    cur := g0 + (a * width);
    for s = a to b do
      j.(n - 1) <- start + s;
      kernel.Kernel.compute ~read ~j ~out;
      for f = 0 to width - 1 do
        A1.unsafe_set gdata (!cur + f) (Array.unsafe_get out f)
      done;
      cur := !cur + width
    done
  in
  (* interior steps [s0, s1] of the [len]-point row starting at [j]
     (empty when s0 > s1): each constraint is linear in the step s *)
  let interior_span len =
    let s0 = ref 0 and s1 = ref (len - 1) in
    let i = ref 0 in
    while !s0 <= !s1 && !i < Array.length coeffs do
      let a = coeffs.(!i) in
      let base = ref shifted.(!i) in
      for k = 0 to n - 1 do
        base := !base + (a.(k) * j.(k))
      done;
      let slope = a.(n - 1) in
      if slope > 0 then s0 := max !s0 (Ints.cdiv (- !base) slope)
      else if slope < 0 then s1 := min !s1 (Ints.fdiv !base (- slope))
      else if !base < 0 then s0 := len;
      incr i
    done;
    (!s0, !s1)
  in
  let do_row len =
    let start = j.(n - 1) in
    let g0 = Grid.index grid j 0 in
    let s0, s1 = interior_span len in
    if s0 > s1 then points ~read:guarded_read ~start ~g0 0 (len - 1)
    else begin
      points ~read:guarded_read ~start ~g0 0 (s0 - 1);
      (match row_body with
      | Some row ->
        (* width = 1 (enforced by Kernel.make), so slots = cells *)
        row ~la:gdata ~dst:(g0 + s0) ~taps:deltas ~len:(s1 - s0 + 1)
      | None -> points ~read:interior_read ~start ~g0 s0 s1);
      points ~read:guarded_read ~start ~g0 (s1 + 1) (len - 1)
    end
  in
  let rec go k =
    match FM.bounds proj ~var:k ~prefix:j with
    | None -> ()
    | Some (blo, bhi) ->
      if blo <= bhi then
        if k = n - 1 then begin
          j.(k) <- blo;
          do_row (bhi - blo + 1)
        end
        else
          for x = blo to bhi do
            j.(k) <- x;
            go (k + 1)
          done
  in
  go 0;
  grid

let run ?(variant = Walker.Fastpath) ?(check = false) ~space ~kernel () =
  if Polyhedron.dim space <> kernel.Kernel.dim then
    invalid_arg "Seq_exec.run: dimension";
  match variant with
  | Walker.Reference -> reference_run ~space ~kernel
  | Walker.Fastpath | Walker.Native -> fast_run ~check ~space ~kernel
