module Polyhedron = Tiles_poly.Polyhedron
module Constr = Tiles_poly.Constr
module Ints = Tiles_util.Ints
module Vec = Tiles_util.Vec

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
   constant. The grid's box also covers the reach of the reads, so every
   tap has a cell: before a row runs, the cells of its out-of-space taps
   that are still NaN receive their boundary values, once per run, and
   the whole row then reads with pure index arithmetic. *)
let fast_run ~check ~space ~kernel =
  let n = Polyhedron.dim space in
  let width = kernel.Kernel.width in
  let grid = Grid.create ~reads:kernel.Kernel.reads space ~width in
  let gdata = Grid.data grid in
  let gstr = Grid.strides grid in
  let reads = Array.of_list kernel.Kernel.reads in
  let ntaps = Array.length reads in
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
  (* per space constraint a_i·x + c_i >= 0: the coefficients, and per tap
     r the constants c_i - a_i·d_r, so that tap r of point j lands in the
     space iff a_i·j + tapconst.(r).(i) >= 0 for every i; [shifted] takes
     the smallest constant per constraint, which holds for every tap *)
  let cons = Array.of_list (Polyhedron.constraints space) in
  let ncons = Array.length cons in
  let coeffs = Array.map (fun c -> Array.init n (Constr.coeff c)) cons in
  let tapconst =
    Array.map
      (fun d ->
        Array.init ncons (fun i -> Constr.const cons.(i) - Vec.dot coeffs.(i) d))
      reads
  in
  let shifted =
    Array.init ncons (fun i ->
        Array.fold_left (fun acc k -> min acc k.(i)) max_int tapconst)
  in
  let dot = Array.make ncons 0 in
  let j = ref [||] in
  let src = Array.make n 0 in
  (* the row body reads cell deltas (slot deltas over [width]) and steps
     the last coordinate; the static lets come from a table over the
     space's box, built once per run. The native row kernels don't apply
     here ([Native] runs the same row bodies as [Fastpath]), so a native
     parallel run is checked against an independent implementation. *)
  let ctaps = Array.map (fun d -> d / width) deltas in
  let jstep = Array.init n (fun k -> if k = n - 1 then 1 else 0) in
  let coefs =
    let bbox = Polyhedron.bounding_box space in
    Kernel.coefs kernel ~lo:(Array.map fst bbox)
      ~dims:(Array.map (fun (l, h) -> h - l + 1) bbox)
  in
  let fail what i =
    failwith
      (Printf.sprintf "Seq_exec: %s at iteration %s read %d" what
         (Vec.to_string !j) i)
  in
  (* steps s in [0, len-1] with a_i·j + k.(i) + a_i,n-1·s >= 0 for every
     constraint i (a_i·j is in [dot]): one division per constraint *)
  let span len k =
    let s0 = ref 0 and s1 = ref (len - 1) in
    let i = ref 0 in
    while !s0 <= !s1 && !i < ncons do
      let base = dot.(!i) + k.(!i) in
      let slope = coeffs.(!i).(n - 1) in
      if slope > 0 then s0 := max !s0 (Ints.cdiv (- base) slope)
      else if slope < 0 then s1 := min !s1 (Ints.fdiv base (- slope))
      else if base < 0 then s0 := len;
      incr i
    done;
    (!s0, !s1)
  in
  (* boundary values for tap r's source at steps [a, b] of the row at
     slot [g0], into the cells still NaN *)
  let fill ~start ~g0 r a b =
    let d = reads.(r) in
    for s = a to b do
      let slot = g0 + (s * width) + deltas.(r) in
      for f = 0 to width - 1 do
        if Float.is_nan gdata.{slot + f} then begin
          !j.(n - 1) <- start + s;
          for k = 0 to n - 1 do
            src.(k) <- !j.(k) - d.(k)
          done;
          if check && member src then fail "boundary fill of in-space cell" r;
          gdata.{slot + f} <- kernel.Kernel.boundary src f
        end
      done
    done
  in
  Polyhedron.iter_rows space (fun jrow len ->
      j := jrow;
      let start = jrow.(n - 1) in
      let g0 = Grid.index grid jrow 0 in
      for i = 0 to ncons - 1 do
        dot.(i) <- Vec.dot coeffs.(i) jrow
      done;
      let s0, s1 = span len shifted in
      if s0 > 0 || s1 < len - 1 then
        for r = 0 to ntaps - 1 do
          let s0, s1 = span len tapconst.(r) in
          if s0 > s1 then fill ~start ~g0 r 0 (len - 1)
          else begin
            fill ~start ~g0 r 0 (s0 - 1);
            fill ~start ~g0 r (s1 + 1) (len - 1)
          end
        done;
      let dst = g0 / width in
      if check then begin
        match Kernel.unset_read ~la:gdata ~width ~dst ~taps:ctaps ~len with
        | None -> ()
        | Some (s, r) ->
          jrow.(n - 1) <- start + s;
          fail "read of uninitialised grid cell" r
      end;
      (* [fill] moved the row's last coordinate *)
      jrow.(n - 1) <- start;
      kernel.Kernel.row ~la:gdata ~dst ~taps:ctaps ~len ~j:jrow ~jstep ~coefs);
  grid

let run ?(variant = Walker.Fastpath) ?(check = false) ~space ~kernel () =
  if Polyhedron.dim space <> kernel.Kernel.dim then
    invalid_arg "Seq_exec.run: dimension";
  match variant with
  | Walker.Reference -> reference_run ~space ~kernel
  | Walker.Fastpath | Walker.Native -> fast_run ~check ~space ~kernel

(* Verify by digest. A kernel built from IR computes what its IR, skew
   and reads say over the space its constraints bound, so that content
   (the kernel's {!Kernel.content_key} and the constraints, never a
   closure or a spec name) keys the oracle's digest. Only a
   NaN-free oracle is remembered: then a run whose digest equals it is
   bit-identical to it, and [max_abs_diff] of the two is exactly 0. Each
   entry also keeps the wall seconds of the oracle run that produced it.
   The memo is shared by every domain, most recently used first. *)
let memo_capacity = 32
let memo : (string * (int64 * float)) list ref = ref []
let memo_lock = Mutex.create ()

let memo_key ~space ~kernel =
  Option.map
    (fun k ->
      k
      ^ Marshal.to_string (Polyhedron.constraints space) [ Marshal.No_sharing ])
    (Kernel.content_key kernel)

(* callers hold [memo_lock] *)
let push key d =
  memo :=
    (key, d)
    :: List.filteri
         (fun i _ -> i < memo_capacity - 1)
         (List.remove_assoc key !memo)

let recall key =
  Mutex.protect memo_lock (fun () ->
      let d = List.assoc_opt key !memo in
      Option.iter (push key) d;
      d)

let remember key d = Mutex.protect memo_lock (fun () -> push key d)

type check = { err : float; oracle_seconds : float }

let check ~space ~kernel grid =
  let key = memo_key ~space ~kernel in
  match Option.bind key recall with
  | Some (d, oracle_seconds) when Int64.equal d (Grid.digest grid space) ->
    { err = 0.; oracle_seconds }
  | _ ->
    let t0 = Tiles_obs.Clock.monotonic () in
    let oracle = run ~space ~kernel () in
    let oracle_seconds = Tiles_obs.Clock.monotonic () -. t0 in
    let err = Grid.max_abs_diff grid oracle space in
    (* a finite error means no NaN on either side *)
    (match key with
    | Some k when Float.is_finite err ->
      remember k (Grid.digest oracle space, oracle_seconds)
    | _ -> ());
    { err; oracle_seconds }

let max_abs_err ~space ~kernel grid = (check ~space ~kernel grid).err
