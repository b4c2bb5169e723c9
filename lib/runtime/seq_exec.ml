module Polyhedron = Tiles_poly.Polyhedron
module FM = Tiles_poly.Fourier_motzkin
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
   constant, so interior rows read with pure index arithmetic. *)
let fast_run ~check ~space ~kernel =
  let n = Polyhedron.dim space in
  let width = kernel.Kernel.width in
  let grid = Grid.create space ~width in
  let gdata = Grid.data grid in
  let gstr = Grid.strides grid in
  let reads = Array.of_list kernel.Kernel.reads in
  let nrd = Array.length reads in
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
  let proj = FM.project (Polyhedron.constraints space) ~dim:n in
  let j = Array.make n 0 in
  let jend = Array.make n 0 in
  let src = Array.make n 0 in
  let out = Array.make width 0. in
  (* the sequential walk has no LDS, so taps are *slot* deltas with the
     field folded in — a different ABI from the walker's cell deltas;
     the native row kernels therefore don't apply here and [Native]
     runs the same row bodies as [Fastpath] *)
  let row_body = if check then None else kernel.Kernel.row in
  let uses_j = kernel.Kernel.uses_j in
  let nan_error i =
    failwith
      (Printf.sprintf
         "Seq_exec: read of uninitialised grid cell at iteration %s read %d"
         (Vec.to_string j) i)
  in
  let do_row len =
    let g0 = Grid.index grid j 0 in
    Array.blit j 0 jend 0 n;
    jend.(n - 1) <- j.(n - 1) + len - 1;
    let interior = ref true in
    let i = ref 0 in
    while !interior && !i < nrd do
      let d = reads.(!i) in
      for k = 0 to n - 1 do
        src.(k) <- j.(k) - d.(k)
      done;
      if not (member src) then interior := false
      else begin
        for k = 0 to n - 1 do
          src.(k) <- jend.(k) - d.(k)
        done;
        if not (member src) then interior := false
      end;
      incr i
    done;
    if !interior && row_body <> None then
      (* width = 1 (enforced by Kernel.make), so slots = cells *)
      (Option.get row_body) ~la:gdata ~dst:g0 ~taps:deltas ~len
    else if !interior then begin
      let cur = ref g0 in
      let read i field =
        let v = A1.unsafe_get gdata (!cur + deltas.(i) + field) in
        if check && Float.is_nan v then nan_error i;
        v
      in
      for s = 0 to len - 1 do
        if uses_j || check then j.(n - 1) <- jend.(n - 1) - len + 1 + s;
        kernel.Kernel.compute ~read ~j ~out;
        for f = 0 to width - 1 do
          A1.unsafe_set gdata (!cur + f) (Array.unsafe_get out f)
        done;
        cur := !cur + width
      done;
      j.(n - 1) <- jend.(n - 1) - len + 1
    end
    else begin
      let cur = ref g0 in
      let read i field =
        let d = reads.(i) in
        for k = 0 to n - 1 do
          src.(k) <- j.(k) - d.(k)
        done;
        if member src then begin
          let v = gdata.{!cur + deltas.(i) + field} in
          if check && Float.is_nan v then nan_error i;
          v
        end
        else kernel.Kernel.boundary src field
      in
      let start = j.(n - 1) in
      for s = 0 to len - 1 do
        j.(n - 1) <- start + s;
        kernel.Kernel.compute ~read ~j ~out;
        for f = 0 to width - 1 do
          gdata.{!cur + f} <- out.(f)
        done;
        cur := !cur + width
      done;
      j.(n - 1) <- start
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

let modelled_time ~space ~net =
  float_of_int (Polyhedron.count_points space)
  *. net.Tiles_mpisim.Netmodel.flop_time
