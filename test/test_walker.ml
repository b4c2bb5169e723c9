(* Tests for the compiled tile-execution engine ({!Walker}): walker
   variants are bit-for-bit equivalent, the NaN-read validation knob
   behaves as documented, and corrupted slab messages surface as the
   structured {!Protocol.Slab_mismatch} error. *)

module Fbuf = Tiles_util.Fbuf
module Polyhedron = Tiles_poly.Polyhedron
module Nest = Tiles_loop.Nest
module Tiling = Tiles_core.Tiling
module Plan = Tiles_core.Plan
module Mapping = Tiles_core.Mapping
module Kernel = Tiles_runtime.Kernel
module Grid = Tiles_runtime.Grid
module Walker = Tiles_runtime.Walker
module Protocol = Tiles_runtime.Protocol
module Seq_exec = Tiles_runtime.Seq_exec
module Executor = Tiles_runtime.Executor
module Shm = Tiles_runtime.Shm_executor
module Netmodel = Tiles_mpisim.Netmodel
module Sim = Tiles_mpisim.Sim

let net = Netmodel.fast_ethernet_cluster

(* the 2-point recurrence from test_runtime: u[i,j] = u[i-1,j] + u[i,j-1] *)
let pascal_kernel =
  Kernel.make ~name:"pascal" ~dim:2
    ~reads:[ [| 1; 0 |]; [| 0; 1 |] ]
    ~boundary:(fun _ _ -> 1.)
    ~compute:(fun ~read ~j:_ ~out -> out.(0) <- read 0 0 +. read 1 0)
    ()

let pascal_nest w h =
  Nest.make ~name:"pascal"
    ~space:(Polyhedron.box [ (0, w - 1); (0, h - 1) ])
    ~deps:(Kernel.deps pascal_kernel)

(* ---------- variant naming ---------- *)

let test_variant_strings () =
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Walker.variant_to_string v ^ " roundtrips")
        true
        (Walker.variant_of_string (Walker.variant_to_string v) = Some v))
    Walker.all_variants;
  Alcotest.(check bool) "unknown rejected" true
    (Walker.variant_of_string "turbo" = None)

(* ---------- sequential walkers: bit-for-bit identical ---------- *)

let test_seq_variants_identical () =
  let check_app name space kernel =
    let reference =
      Seq_exec.run ~variant:Walker.Reference ~space ~kernel ()
    in
    List.iter
      (fun v ->
        let g = Seq_exec.run ~variant:v ~space ~kernel () in
        Alcotest.(check (float 0.))
          (name ^ ": " ^ Walker.variant_to_string v ^ " = reference")
          0.
          (Grid.max_abs_diff g reference space))
      Walker.all_variants;
    (* check mode must not change results, only add validation *)
    let checked =
      Seq_exec.run ~variant:Walker.Fastpath ~check:true ~space ~kernel ()
    in
    Alcotest.(check (float 0.))
      (name ^ ": fast+check = reference")
      0.
      (Grid.max_abs_diff checked reference space)
  in
  let module Sor = Tiles_apps.Sor in
  let p = Sor.make ~m_steps:6 ~size:10 in
  check_app "sor" (Sor.nest p).Nest.space (Sor.kernel p);
  let module Jacobi = Tiles_apps.Jacobi in
  let p = Jacobi.make ~t_steps:5 ~size:9 in
  check_app "jacobi" (Jacobi.nest p).Nest.space (Jacobi.kernel p);
  let module Adi = Tiles_apps.Adi in
  let p = Adi.make ~t_steps:5 ~size:9 in
  check_app "adi" (Adi.nest p).Nest.space (Adi.kernel p)

(* ---------- property: the sequential row split = boxed oracle ---------- *)

module Constr = Tiles_poly.Constr
module Intmat = Tiles_linalg.Intmat

(* a lexicographically positive read offset in [-2, 3]^n, so every
   in-space read of the sequential walk sees an already computed point;
   offsets along the row axis reach up to 3 *)
let gen_read n =
  QCheck.Gen.(
    let* p = int_range 0 (n - 1) in
    let* lead = int_range 1 3 in
    let* tail = list_repeat (n - 1 - p) (int_range (-2) 2) in
    return (Array.of_list (List.init p (fun _ -> 0) @ (lead :: tail))))

(* a box (last extent 1-3 about half the time: rows shorter than a tap's
   reach), optionally skewed by a unit lower-triangular matrix and
   optionally cut by one half-space that keeps its low corner *)
let gen_space n =
  QCheck.Gen.(
    let* lo = list_repeat n (int_range (-2) 2) in
    let* ext = list_repeat (n - 1) (int_range 1 6) in
    let* last = oneof [ int_range 1 3; int_range 4 9 ] in
    let box =
      Polyhedron.box (List.map2 (fun l e -> (l, l + e - 1)) lo (ext @ [ last ]))
    in
    let* skew = list_repeat (n * n) (int_range (-1) 2) in
    let* skewed = bool in
    let t =
      if skewed then
        Intmat.of_rows
          (List.init n (fun r ->
               List.init n (fun c ->
                   if r = c then 1
                   else if c < r then List.nth skew ((r * n) + c)
                   else 0)))
      else Intmat.identity n
    in
    let space = Polyhedron.transform_unimodular t box in
    let* a = list_repeat n (int_range (-2) 2) in
    let* off = int_range 0 3 in
    let* cut = bool in
    let a = Array.of_list a in
    if cut && Array.exists (( <> ) 0) a then
      let corner = Intmat.apply t (Array.of_list lo) in
      let c = off - Tiles_util.Vec.dot a corner in
      return (Polyhedron.add space (Constr.make ~coeffs:a ~const:c))
    else return space)

let rand_boundary j f =
  let n = Array.length j in
  0.5 +. (0.1 *. float_of_int ((((j.(0) * 7) + (j.(n - 1) * 3) + f) mod 11)))

(* width 1: out = 0.1 + Σ c_r·read r (+ a j term when there is no row
   body); the row body does the same float operations in the same order *)
let width1_kernel n reads coeffs ~with_row =
  let nr = Array.length coeffs in
  let compute ~read ~j ~out =
    let acc = ref 0.1 in
    for r = 0 to nr - 1 do
      acc := !acc +. (coeffs.(r) *. read r 0)
    done;
    out.(0) <-
      (if with_row then !acc
       else !acc +. (0.001 *. float_of_int j.(n - 1)))
  in
  let row ~(la : Tiles_util.Fbuf.t) ~dst ~taps ~len ~j:_ ~jstep:_ ~coefs:_ =
    for i = dst to dst + len - 1 do
      let acc = ref 0.1 in
      for r = 0 to nr - 1 do
        acc :=
          !acc +. (coeffs.(r) *. Bigarray.Array1.unsafe_get la (i + taps.(r)))
      done;
      Bigarray.Array1.unsafe_set la i !acc
    done
  in
  if with_row then
    Kernel.make ~name:"rand-row" ~dim:n ~uses_j:false ~row ~reads
      ~boundary:rand_boundary ~compute ()
  else
    Kernel.make ~name:"rand" ~dim:n ~reads ~boundary:rand_boundary ~compute ()

(* width 2, shaped like ADI: both fields read through every tap, a
   coefficient that depends on j *)
let width2_kernel n reads =
  let nr = List.length reads in
  Kernel.make ~name:"rand-adi" ~dim:n ~width:2 ~reads
    ~boundary:(fun j f -> rand_boundary j f +. (3. *. float_of_int f))
    ~compute:(fun ~read ~j ~out ->
      let a = 0.1 +. (0.01 *. float_of_int (j.(n - 1) mod 5)) in
      let x = ref (read 0 0) and b = ref (read 0 1) in
      for r = 1 to nr - 1 do
        x := !x +. (read r 0 *. a /. read r 1);
        b := !b -. (a *. a /. read r 1)
      done;
      out.(0) <- !x;
      out.(1) <- !b)
    ()

let gen_seq_case =
  QCheck.Gen.(
    let* n = int_range 2 3 in
    let* space = gen_space n in
    let* nr = int_range 1 4 in
    let* reads = list_repeat nr (gen_read n) in
    let* coeffs = list_repeat nr (float_bound_inclusive 0.3) in
    let* shape = oneofl [ `Plain; `Row; `Wide ] in
    let kernel =
      match shape with
      | `Plain -> width1_kernel n reads (Array.of_list coeffs) ~with_row:false
      | `Row -> width1_kernel n reads (Array.of_list coeffs) ~with_row:true
      | `Wide -> width2_kernel n reads
    in
    return (space, kernel))

let print_seq_case (space, kernel) =
  Format.asprintf "%a@ kernel %s reads %s" Polyhedron.pp space
    kernel.Kernel.name
    (String.concat " " (List.map Tiles_util.Vec.to_string kernel.Kernel.reads))

let prop_seq_split_bit_identical =
  QCheck.Test.make ~name:"sequential row split = reference (random spaces)"
    ~count:300
    (QCheck.make ~print:print_seq_case gen_seq_case)
    (fun (space, kernel) ->
      let reference =
        Seq_exec.run ~variant:Walker.Reference ~space ~kernel ()
      in
      List.for_all
        (fun (variant, check) ->
          Grid.max_abs_diff
            (Seq_exec.run ~variant ~check ~space ~kernel ())
            reference space
          = 0.)
        [
          (Walker.Fastpath, false); (Walker.Native, false);
          (Walker.Fastpath, true); (Walker.Native, true);
        ])

(* Out-of-space taps read boundary values that were written into the
   grid beforehand, so every row runs its row body from start to end:
   wrap SOR's body so it counts the points it covers. That count is every
   point of the space, and the space has boundary points (some tap of
   theirs leaves it), so a walk that still routes them elsewhere cannot
   pass silently. *)
let test_seq_rows_whole () =
  let module Sor = Tiles_apps.Sor in
  let p = Sor.make ~m_steps:6 ~size:10 in
  let space = (Sor.nest p).Nest.space in
  let sor = Sor.kernel p in
  let covered = ref 0 in
  let kernel =
    {
      sor with
      Kernel.row =
        (fun ~la ~dst ~taps ~len ~j ~jstep ~coefs ->
          covered := !covered + len;
          sor.Kernel.row ~la ~dst ~taps ~len ~j ~jstep ~coefs);
    }
  in
  let boundary_points =
    Polyhedron.fold_points space ~init:0 ~f:(fun acc j ->
        if
          List.exists
            (fun d -> not (Polyhedron.member space (Tiles_util.Vec.sub j d)))
            kernel.Kernel.reads
        then acc + 1
        else acc)
  in
  let g = Seq_exec.run ~space ~kernel () in
  Alcotest.(check bool) "some points are boundary points" true
    (boundary_points > 0);
  Alcotest.(check int) "row body covers every point"
    (Polyhedron.count_points space) !covered;
  Alcotest.(check (float 0.)) "and the grid is the oracle's" 0.
    (Grid.max_abs_diff g
       (Seq_exec.run ~variant:Walker.Reference ~space ~kernel ())
       space)

(* ---------- boundary cells are read once ---------- *)

module Cells = Set.Make (struct
  type t = int array * int

  let compare = compare
end)

(* [kernel] with a boundary that records every call in [calls] *)
let counting kernel =
  let calls = ref [] in
  ( calls,
    {
      kernel with
      Kernel.boundary =
        (fun j f ->
          calls := (Array.copy j, f) :: !calls;
          kernel.Kernel.boundary j f);
    } )

(* the out-of-space sources (all fields) read by the points [iter] visits *)
let out_of_space space kernel iter =
  let acc = ref Cells.empty in
  iter (fun j ->
      List.iter
        (fun d ->
          let src = Tiles_util.Vec.sub j d in
          if not (Polyhedron.member space src) then
            for f = 0 to kernel.Kernel.width - 1 do
              acc := Cells.add (src, f) !acc
            done)
        kernel.Kernel.reads);
  !acc

(* each call distinct, and the calls are exactly [expected] *)
let check_once name calls expected =
  let called = Cells.of_list calls in
  Alcotest.(check int) (name ^ ": no cell twice") (List.length calls)
    (Cells.cardinal called);
  Alcotest.(check bool) (name ^ ": exactly the out-of-space cells read") true
    (Cells.equal called expected)

(* The sequential oracle calls [boundary] once per distinct out-of-space
   cell and field it reads (skewed SOR; ADI, whose two fields are both
   read through every tap), in check mode too. *)
let test_seq_boundary_once () =
  let module Sor = Tiles_apps.Sor in
  let module Adi = Tiles_apps.Adi in
  let sor = Sor.make ~m_steps:5 ~size:8 and adi = Adi.make ~t_steps:4 ~size:7 in
  List.iter
    (fun (name, space, kernel) ->
      let expected = out_of_space space kernel (Polyhedron.iter_points space) in
      Alcotest.(check bool) (name ^ ": reads leave the space") true
        (not (Cells.is_empty expected));
      List.iter
        (fun check ->
          let calls, counted = counting kernel in
          let g = Seq_exec.run ~check ~space ~kernel:counted () in
          check_once name !calls expected;
          Alcotest.(check (float 0.)) (name ^ ": = reference") 0.
            (Grid.max_abs_diff g
               (Seq_exec.run ~variant:Walker.Reference ~space ~kernel ())
               space))
        [ false; true ])
    [
      ("sor", (Sor.nest sor).Nest.space, Sor.kernel sor);
      ("adi", (Adi.nest adi).Nest.space, Adi.kernel adi);
    ]

(* The fast walkers' boundary values call [boundary] once per cell per
   rank, in rank order, once per plan: one LDS cell stands for one
   global point for the whole rank run, and walking the ranks' chains
   calls it no more. Each rank walks its chain alone on a fresh LDS (no
   halos arrive, which changes values but not which cells are filled). *)
let test_walker_boundary_once () =
  let module Sor = Tiles_apps.Sor in
  let p = Sor.make ~m_steps:6 ~size:9 in
  let nest = Sor.nest p in
  let space = nest.Nest.space in
  let plan = Plan.make ~m:Sor.mapping_dim nest (Sor.nonrect ~x:3 ~y:4 ~z:5) in
  let mapping = plan.Plan.mapping in
  let nprocs = Mapping.nprocs mapping in
  Alcotest.(check bool) "plan is multi-rank" true (nprocs > 1);
  let calls, kernel = counting (Sor.kernel p) in
  let values = Walker.boundary_values ~plan ~kernel in
  let evaluated = ref (List.rev !calls) in
  calls := [];
  Alcotest.(check bool) "the next ask reuses them" true
    (Walker.boundary_values ~plan ~kernel == values);
  let total = ref 0 in
  for rank = 0 to nprocs - 1 do
    let pid = Mapping.pid_of_rank mapping rank in
    let tlo, thi = Mapping.chain mapping rank in
    let tiles =
      List.init (thi - tlo + 1) (fun i -> Mapping.join mapping ~pid ~ts:(tlo + i))
    in
    let w =
      Walker.make ~values ~native:None ~plan ~kernel ~rank
        ~ntiles:(List.length tiles)
        ~variant:Walker.Fastpath ~check:false ()
    in
    let la = Fbuf.make (Walker.lds_total w) Float.nan in
    let grid = Grid.create space ~width:1 in
    List.iteri
      (fun trel tile -> ignore (Walker.compute_tile w ~trel ~tile ~la ~grid))
      tiles;
    let expected =
      out_of_space space kernel (fun f ->
          List.iter
            (fun tile ->
              Tiles_core.Tile_space.iter_tile_points plan.Plan.tspace ~tile
                (fun ~local:_ ~global -> f global))
            tiles)
    in
    let mine = List.filteri (fun i _ -> i < Cells.cardinal expected) !evaluated in
    evaluated := List.filteri (fun i _ -> i >= List.length mine) !evaluated;
    check_once (Printf.sprintf "rank %d" rank) mine expected;
    total := !total + List.length mine
  done;
  Alcotest.(check int) "every value is some rank's" 0 (List.length !evaluated);
  Alcotest.(check int) "walking the chains calls boundary no more" 0
    (List.length !calls);
  Alcotest.(check bool) "some rank fills boundary cells" true (!total > 0)

(* Two Full runs of one plan compute its boundary values once. A second
   kernel with the same IR body and reads but another boundary
   expression has another content key: its run replaces the values, and
   the first kernel's next run computes its own again. Every grid equals
   its kernel's boxed reference bit for bit (compared directly, not
   through the digest memo, which shares the key). *)
let test_boundary_values_once () =
  let module Sor = Tiles_apps.Sor in
  let module Kir = Tiles_kir.Kir in
  let p = Sor.make ~m_steps:6 ~size:9 in
  let nest = Sor.nest p in
  let space = nest.Nest.space in
  let plan = Plan.make ~m:Sor.mapping_dim nest (Sor.nonrect ~x:3 ~y:4 ~z:5) in
  let counted kernel =
    let n = ref 0 in
    ( n,
      {
        kernel with
        Kernel.boundary =
          (fun j f ->
            incr n;
            kernel.Kernel.boundary j f);
      } )
  in
  let sor = Sor.kernel p in
  let ir = Option.get sor.Kernel.ckernel in
  let other =
    {
      sor with
      Kernel.ckernel =
        Some
          (Kir.make ~name:ir.Kir.name ~dim:ir.Kir.dim ~lets:ir.Kir.lets
             ~out:ir.Kir.out ~boundary:[ Kir.Const 3.5 ] ());
      boundary = (fun _ _ -> 3.5);
    }
  in
  let n1, k1 = counted sor and n2, k2 = counted other in
  (* the counted kernel runs; its uncounted original is the reference *)
  let run (kernel, reference) =
    let g =
      Option.get
        (Executor.run ~mode:Executor.Full ~plan ~kernel ~net ()).Executor.grid
    in
    Alcotest.(check (float 0.)) "= reference" 0.
      (Grid.max_abs_diff g
         (Seq_exec.run ~variant:Walker.Reference ~space ~kernel:reference ())
         space);
    g
  in
  let g1 = run (k1, sor) in
  let once = !n1 in
  Alcotest.(check bool) "the first run computes them" true (once > 0);
  ignore (run (k1, sor));
  Alcotest.(check int) "the second run reuses them" once !n1;
  let g2 = run (k2, other) in
  Alcotest.(check int) "another boundary computes its own" once !n2;
  Alcotest.(check bool) "and they matter" true
    (Grid.max_abs_diff g1 g2 space > 0.);
  ignore (run (k1, sor));
  Alcotest.(check int) "and replaced the first kernel's" (2 * once) !n1

(* ---------- NaN-read validation modes ---------- *)

(* Build a walker for a rank whose first tile needs halo data, give it a
   freshly NaN-poisoned LDS and no received slabs: the reference walker
   and the fast walkers under ~check:true must refuse the uninitialised
   read, the fast one naming the iteration and read the reference names
   although it checks whole rows before they run; the fast walker
   without check must sail through (the whole point of the knob is
   skipping that scan). *)
let test_check_modes () =
  let nest = pascal_nest 12 9 in
  let plan = Plan.make nest (Tiling.rectangular [ 3; 4 ]) in
  let mapping = plan.Plan.mapping in
  let nprocs = Mapping.nprocs mapping in
  Alcotest.(check bool) "plan is multi-rank" true (nprocs > 1);
  let rank = nprocs - 1 in
  let tlo, thi = Mapping.chain mapping rank in
  let ntiles = thi - tlo + 1 in
  let pid = Mapping.pid_of_rank mapping rank in
  let tile = Mapping.join mapping ~pid ~ts:tlo in
  let width = pascal_kernel.Kernel.width in
  let fires ~variant ~check =
    let w =
      Walker.make ~native:None ~plan ~kernel:pascal_kernel ~rank ~ntiles
        ~variant ~check ()
    in
    let la = Fbuf.make (Walker.lds_total w * width) Float.nan in
    let grid = Grid.create plan.Plan.nest.Nest.space ~width in
    match Walker.compute_tile w ~trel:0 ~tile ~la ~grid with
    | (_ : int) -> None
    | exception Failure msg -> Some msg
  in
  let reference = fires ~variant:Walker.Reference ~check:false in
  Alcotest.(check bool) "reference always validates" true
    (Option.is_some reference);
  Alcotest.(check (option string)) "fast + check names the same read"
    reference
    (fires ~variant:Walker.Fastpath ~check:true);
  Alcotest.(check (option string)) "fast without check skips validation" None
    (fires ~variant:Walker.Fastpath ~check:false)

(* ---------- native walker: build, fallback, recording ---------- *)

let test_native_modes () =
  let fallback ~plan ~kernel ~check =
    match Walker.native_row ~plan ~kernel ~check with
    | Ok _ -> None
    | Error reason -> Some reason
  in
  (* a kernel without a C body must fall back and say why *)
  let nest = pascal_nest 12 9 in
  let plan = Plan.make nest (Tiling.rectangular [ 3; 4 ]) in
  (match fallback ~plan ~kernel:pascal_kernel ~check:false with
  | Some reason ->
    Alcotest.(check bool) "reason mentions the C body" true
      (Astring.String.is_infix ~affix:"C body" reason)
  | None -> Alcotest.fail "kernel without C body must fall back");
  let module Sor = Tiles_apps.Sor in
  let p = Sor.make ~m_steps:6 ~size:9 in
  let plan2 =
    Plan.make ~m:Sor.mapping_dim (Sor.nest p) (Sor.rect ~x:3 ~y:9 ~z:9)
  in
  let kernel2 = Sor.kernel p in
  (* compiler disabled: the fallback is taken and the reason given *)
  Unix.putenv "TILEC_NO_CC" "1";
  let nocc =
    Fun.protect
      ~finally:(fun () -> Unix.putenv "TILEC_NO_CC" "")
      (fun () -> fallback ~plan:plan2 ~kernel:kernel2 ~check:false)
  in
  (match nocc with
  | Some reason ->
    Alcotest.(check bool) "reason mentions the compiler" true
      (Astring.String.is_infix ~affix:"compiler" reason)
  | None -> Alcotest.fail "TILEC_NO_CC must force the fallback");
  (* check mode validates reads in OCaml, so native must defer *)
  (match fallback ~plan:plan2 ~kernel:kernel2 ~check:true with
  | Some _ -> ()
  | None -> Alcotest.fail "check mode must fall back to the OCaml path");
  (* with a real compiler the native row builds (no fallback) and a
     full parallel run matches the boxed sequential oracle exactly *)
  if Tiles_runtime.Native_kernel.available () then begin
    Alcotest.(check (option string)) "native built" None
      (fallback ~plan:plan2 ~kernel:kernel2 ~check:false);
    let space = (Sor.nest p).Nest.space in
    let reference =
      Seq_exec.run ~variant:Walker.Reference ~space ~kernel:kernel2 ()
    in
    let r = Shm.run ~walker:Walker.Native ~plan:plan2 ~kernel:kernel2 () in
    Alcotest.(check (option string)) "run took the native path" None
      r.Shm.walker_fallback;
    Alcotest.(check (float 0.)) "native run = boxed oracle" 0.
      (Grid.max_abs_diff r.Shm.grid reference space)
  end

(* the native row is built once per run, in Protocol.prepare: its
   fallback reason is known before any rank runs, and Timing mode, which
   runs no walker, builds nothing *)
let test_prepare_native_fallback () =
  let module Sor = Tiles_apps.Sor in
  let p = Sor.make ~m_steps:6 ~size:9 in
  let plan =
    Plan.make ~m:Sor.mapping_dim (Sor.nest p) (Sor.rect ~x:3 ~y:9 ~z:9)
  in
  let prepare mode =
    Protocol.prepare ~walker:Walker.Native ~check:true ~mode ~plan
      ~kernel:(Sor.kernel p) ~flop_time:0. ~pack_time:0. ()
  in
  let full = prepare Protocol.Full in
  (match full.Protocol.fallback with
  | Some reason ->
    Alcotest.(check bool) "reason names check mode" true
      (Astring.String.is_infix ~affix:"check mode" reason)
  | None -> Alcotest.fail "check mode must fall back before any rank runs");
  Alcotest.(check (list int)) "no rank has run" [ 0 ]
    (List.sort_uniq compare (Array.to_list full.Protocol.tiles_per_rank));
  let timing = prepare Protocol.Timing in
  Alcotest.(check bool) "Timing builds no row" true
    (timing.Protocol.native = None && timing.Protocol.fallback = None)

(* ---------- structured slab mismatch ---------- *)

(* Run the protocol over an in-memory mailbox and corrupt the first
   delivered message by appending one spurious cell: the receiving rank
   must raise Slab_mismatch naming the rank, stage, direction, tile
   timestamp and both cell counts — not a bare failwith. *)
let test_slab_mismatch () =
  let nest = pascal_nest 12 9 in
  let plan = Plan.make nest (Tiling.rectangular [ 3; 4 ]) in
  let kernel = pascal_kernel in
  let width = kernel.Kernel.width in
  let shared =
    Protocol.prepare ~mode:Protocol.Full ~plan ~kernel ~flop_time:0.
      ~pack_time:0. ()
  in
  let nprocs = Mapping.nprocs plan.Plan.mapping in
  let mail : (int * int * int, Protocol.payload Queue.t) Hashtbl.t =
    Hashtbl.create 16
  in
  let tampered = ref false in
  let comms_for rank =
    {
      Protocol.send =
        (fun ~dst ~tag buf ->
          let key = (rank, dst, tag) in
          let q =
            match Hashtbl.find_opt mail key with
            | Some q -> q
            | None ->
              let q = Queue.create () in
              Hashtbl.add mail key q;
              q
          in
          Queue.add buf q);
      recv =
        (fun ~src ~tag ->
          let payload = Queue.pop (Hashtbl.find mail (src, rank, tag)) in
          match payload with
          | Protocol.Data buf when not !tampered ->
            tampered := true;
            Protocol.Data (Fbuf.append buf (Fbuf.make width 0.))
          | _ -> payload);
      compute = ignore;
      pack = ignore;
      unpack = ignore;
    }
  in
  (* every communication direction of this plan points towards higher
     ranks, so running the rank programs in rank order means each receive
     finds its message already enqueued *)
  let outcome =
    try
      for r = 0 to nprocs - 1 do
        Protocol.rank_program shared (comms_for r) r
      done;
      None
    with Protocol.Slab_mismatch m -> Some m
  in
  match outcome with
  | None -> Alcotest.fail "corrupted slab message was not detected"
  | Some m ->
    Alcotest.(check bool) "tampering happened first" true !tampered;
    Alcotest.(check bool) "unpack stage" true (m.Protocol.mm_stage = `Unpack);
    Alcotest.(check bool) "rank in range" true
      (m.Protocol.mm_rank >= 0 && m.Protocol.mm_rank < nprocs);
    Alcotest.(check int) "exactly one extra cell" (m.Protocol.mm_actual + 1)
      m.Protocol.mm_expected;
    let s = Protocol.slab_mismatch_to_string m in
    List.iter
      (fun needle ->
        Alcotest.(check bool)
          ("message mentions " ^ needle)
          true
          (Astring.String.is_infix ~affix:needle s))
      [ "rank"; "unpack"; "direction"; "t^S"; "expected" ]

(* ---------- property: fast = reference on every backend ---------- *)

type backend = Sim_backend | Shm_backend

let backend_name = function Sim_backend -> "sim" | Shm_backend -> "shm"

(* (space, plan, kernel) for a random app / tiling-variant / factor
   combination; None when the combination is infeasible (illegal tiling,
   tile too small for the dependencies, ...) *)
let build_case app vi (x, y, z) =
  let build nest mapping_dim variants kernel =
    let _, f = List.nth variants (vi mod List.length variants) in
    match Plan.make ~m:mapping_dim nest (f ~x ~y ~z) with
    | plan -> Some (nest.Nest.space, plan, kernel)
    | exception (Invalid_argument _ | Failure _) -> None
  in
  match app with
  | `Sor ->
    let module A = Tiles_apps.Sor in
    let p = A.make ~m_steps:6 ~size:9 in
    build (A.nest p) A.mapping_dim A.variants (A.kernel p)
  | `Jacobi ->
    let module A = Tiles_apps.Jacobi in
    let p = A.make ~t_steps:5 ~size:9 in
    build (A.nest p) A.mapping_dim A.variants (A.kernel p)
  | `Adi ->
    let module A = Tiles_apps.Adi in
    let p = A.make ~t_steps:5 ~size:9 in
    build (A.nest p) A.mapping_dim A.variants (A.kernel p)

let run_with backend ~overlap ~walker (plan, kernel) =
  match backend with
  | Sim_backend ->
    let r =
      Executor.run ~walker ~mode:Executor.Full ~overlap ~plan ~kernel ~net ()
    in
    ( Option.get r.Executor.grid,
      r.Executor.stats.Sim.messages,
      r.Executor.stats.Sim.bytes,
      r.Executor.points_computed )
  | Shm_backend ->
    let r = Shm.run ~walker ~overlap ~plan ~kernel () in
    (r.Shm.grid, r.Shm.messages, r.Shm.bytes, r.Shm.points_computed)

let gen_case =
  QCheck.Gen.(
    let* app = oneofl [ `Sor; `Jacobi; `Adi ] in
    let* vi = int_range 0 3 in
    let* x = int_range 3 6 in
    let* y = int_range 6 9 in
    let* z = int_range 6 9 in
    let* overlap = bool in
    let* backend = oneofl [ Sim_backend; Shm_backend ] in
    return (app, vi, (x, y, z), overlap, backend))

let print_case (app, vi, (x, y, z), overlap, backend) =
  Printf.sprintf "%s variant#%d %dx%dx%d overlap:%b backend:%s"
    (match app with `Sor -> "sor" | `Jacobi -> "jacobi" | `Adi -> "adi")
    vi x y z overlap (backend_name backend)

(* ---------- walk-plan memo ---------- *)

(* The compiled Fourier–Motzkin walk plan depends only on the pulled-back
   constraints and the tile box, which every rank of a plan shares: every
   rank's walker, built and rebuilt, enumerates rows with the one chain
   the plan's count table holds. *)
let test_plan_chain_shared () =
  let nest = pascal_nest 15 10 in
  let plan = Plan.make nest (Tiling.rectangular [ 3; 5 ]) in
  let mapping = plan.Plan.mapping in
  let nprocs = Mapping.nprocs mapping in
  Alcotest.(check bool) "plan is multi-rank" true (nprocs > 1);
  let shared =
    Tiles_core.Count_table.counter (Plan.counts plan)
  in
  let build_all () =
    List.init nprocs (fun rank ->
        let tlo, thi = Mapping.chain mapping rank in
        Walker.make ~native:None ~plan ~kernel:pascal_kernel ~rank
          ~ntiles:(thi - tlo + 1) ~variant:Walker.Fastpath ~check:false ())
  in
  let shares = List.for_all (fun w -> Walker.counter w == shared) in
  Alcotest.(check bool) "one plan for every rank" true (shares (build_all ()));
  Alcotest.(check bool) "rebuilds share it" true (shares (build_all ()))

(* The row table is built only for Full runs of the fast walkers: a
   Timing run (or a Reference one) leaves it unbuilt, a Full run
   publishes it, and a second Full run reads the same physical table. *)
let test_row_table_once () =
  let module Sor = Tiles_apps.Sor in
  let p = Sor.make ~m_steps:6 ~size:9 in
  let plan =
    Plan.make ~m:Sor.mapping_dim (Sor.nest p) (Sor.nonrect ~x:3 ~y:4 ~z:5)
  in
  let kernel = Sor.kernel p in
  let published () = Atomic.get plan.Plan.rows in
  let run ?walker mode = ignore (Executor.run ?walker ~mode ~plan ~kernel ~net ()) in
  run Executor.Timing;
  run ~walker:Walker.Reference Executor.Full;
  Alcotest.(check bool) "Timing and Reference runs build no table" true
    (Option.is_none (published ()));
  run Executor.Full;
  let first = published () in
  Alcotest.(check bool) "a Full run publishes one" true (Option.is_some first);
  run ~walker:Walker.Native Executor.Full;
  Alcotest.(check bool) "the next Full run reads the same table" true
    (Option.get (published ()) == Option.get first)

(* Two domains asking a fresh plan for its table at once get one
   physical table: the loser of the race drops its copy. *)
let test_row_table_domains () =
  let module Sor = Tiles_apps.Sor in
  let p = Sor.make ~m_steps:6 ~size:9 in
  let plan =
    Plan.make ~m:Sor.mapping_dim (Sor.nest p) (Sor.nonrect ~x:3 ~y:4 ~z:5)
  in
  let reads = Array.of_list (Sor.kernel p).Kernel.reads in
  ignore (Plan.counts plan);
  let go = Atomic.make false in
  let ask () =
    Domain.spawn (fun () ->
        while not (Atomic.get go) do
          Domain.cpu_relax ()
        done;
        Plan.rows plan ~reads)
  in
  let a = ask () and b = ask () in
  Atomic.set go true;
  let ta = Domain.join a and tb = Domain.join b in
  Alcotest.(check bool) "both domains hold one table" true (ta == tb);
  Alcotest.(check bool) "and it is the published one" true
    (Option.get (Atomic.get plan.Plan.rows) == ta)

let prop_walkers_bit_identical =
  QCheck.Test.make ~name:"fast/native = reference (grids + counters)"
    ~count:10
    (QCheck.make ~print:print_case gen_case)
    (fun (app, vi, factors, overlap, backend) ->
      match build_case app vi factors with
      | None -> QCheck.assume_fail ()
      | Some (space, plan, kernel) ->
        let gr, mr, br, pr =
          run_with backend ~overlap ~walker:Walker.Reference (plan, kernel)
        in
        List.for_all
          (fun walker ->
            let g, m, b, p =
              run_with backend ~overlap ~walker (plan, kernel)
            in
            Grid.max_abs_diff g gr space = 0.
            && m = mr && b = br && p = pr)
          [ Walker.Fastpath; Walker.Native ])

(* ---------- row bodies: every IR kernel runs as rows ---------- *)

(* unimodular skews that keep the ADI and triband dependences
   nonnegative, so rectangular tiles stay legal over the skewed space *)
let adi_skew = Intmat.of_rows [ [ 1; 0; 0 ]; [ 1; 1; 0 ]; [ 2; 1; 1 ] ]
let triband_skew = Intmat.of_rows [ [ 1; 0 ]; [ 1; 1 ] ]

let row_kernels =
  [ "sor"; "jacobi"; "adi"; "triband"; "adi-skewed"; "triband-skewed" ]

(* (space, plan, kernel) of a kernel of [Defs.all] on its app's space and
   tiling variant [vi], or of a [Kernel.skewed] copy of ADI or triband on
   the skewed space under rectangular tiles; None when infeasible *)
let row_case name vi (x, y, z) =
  let module Sor = Tiles_apps.Sor in
  let module Jacobi = Tiles_apps.Jacobi in
  let module Adi = Tiles_apps.Adi in
  let module Triband = Tiles_apps.Triband in
  let pick vs = snd (List.nth vs (vi mod List.length vs)) in
  let skewed (nest : Nest.t) t kernel =
    let kernel = Kernel.skewed kernel t in
    let space = Polyhedron.transform_unimodular t nest.Nest.space in
    (Nest.make ~name:kernel.Kernel.name ~space ~deps:(Kernel.deps kernel), kernel)
  in
  let adi = Adi.make ~t_steps:5 ~size:8 and tri = Triband.make ~size:14 in
  let nest, kernel, m, tiling =
    match name with
    | "sor" ->
      let p = Sor.make ~m_steps:5 ~size:8 in
      ( Sor.nest p, Sor.kernel p, Sor.mapping_dim,
        fun () -> pick Sor.variants ~x ~y ~z )
    | "jacobi" ->
      let p = Jacobi.make ~t_steps:5 ~size:8 in
      ( Jacobi.nest p, Jacobi.kernel p, Jacobi.mapping_dim,
        fun () -> pick Jacobi.variants ~x ~y ~z )
    | "adi" ->
      ( Adi.nest adi, Adi.kernel adi, Adi.mapping_dim,
        fun () -> pick Adi.variants ~x ~y ~z )
    | "triband" ->
      ( Triband.nest tri, Triband.kernel tri, 0,
        fun () -> pick Triband.variants ~x:y ~y:z )
    | "adi-skewed" ->
      let nest, k = skewed (Adi.nest adi) adi_skew (Adi.kernel adi) in
      (nest, k, 0, fun () -> Tiling.rectangular [ x; y; z ])
    | _ ->
      let nest, k = skewed (Triband.nest tri) triband_skew (Triband.kernel tri) in
      (nest, k, 0, fun () -> Tiling.rectangular [ y; z ])
  in
  match Plan.make ~m nest (tiling ()) with
  | plan -> Some (nest.Nest.space, plan, kernel)
  | exception (Invalid_argument _ | Failure _) -> None

(* law: for every IR kernel, skewed copies included, fast Full runs on
   both backends in both schedules and the sequential fast walk, all of
   which run the kernel's row body, equal the boxed reference oracle bit
   for bit *)
let prop_row_bodies =
  QCheck.Test.make ~name:"row bodies = reference (every IR kernel, skewed too)"
    ~count:24
    (QCheck.make
       ~print:(fun (name, vi, (x, y, z)) ->
         Printf.sprintf "%s variant#%d %dx%dx%d" name vi x y z)
       QCheck.Gen.(
         triple (oneofl row_kernels) (int_range 0 3)
           (triple (int_range 2 5) (int_range 3 7) (int_range 3 7))))
    (fun (name, vi, factors) ->
      match row_case name vi factors with
      | None -> QCheck.assume_fail ()
      | Some (space, plan, kernel) ->
        let reference =
          Seq_exec.run ~variant:Walker.Reference ~space ~kernel ()
        in
        let same g = Grid.max_abs_diff g reference space = 0. in
        same (Seq_exec.run ~space ~kernel ())
        && List.for_all
             (fun (backend, overlap) ->
               let g, _, _, _ =
                 run_with backend ~overlap ~walker:Walker.Fastpath
                   (plan, kernel)
               in
               same g)
             [
               (Sim_backend, false); (Sim_backend, true);
               (Shm_backend, false); (Shm_backend, true);
             ])

(* ADI's static-let table is evaluated once per (plan, kernel), one
   evaluation per entry: Full runs on the sim and on shm (whose ranks run
   on other domains) reuse the table [Protocol.prepare] forced, and two
   domains asking at once hold one table. Every grid is the boxed
   reference's. *)
let test_coefs_once () =
  let module Adi = Tiles_apps.Adi in
  let size = 9 in
  let p = Adi.make ~t_steps:5 ~size in
  let nest = Adi.nest p in
  let space = nest.Nest.space in
  let adi = Adi.kernel p in
  let evals = Atomic.make 0 in
  let kernel =
    {
      adi with
      Kernel.statics =
        Array.map
          (fun (cs, f) ->
            ( cs,
              fun j ->
                Atomic.incr evals;
                f j ))
          adi.Kernel.statics;
    }
  in
  let reference = Seq_exec.run ~variant:Walker.Reference ~space ~kernel:adi () in
  (* a shm run checks its grid against the oracle's digest, which its
     fast walk (with a table of its own) computes once per problem:
     remember it now, through the uncounted kernel of the same content,
     so the counts below are the walkers' alone *)
  ignore (Seq_exec.check ~space ~kernel:adi reference);
  let plan () = Plan.make ~m:Adi.mapping_dim nest (Adi.nr3 ~x:3 ~y:4 ~z:4) in
  let p1 = plan () in
  let check_run name g =
    Alcotest.(check (float 0.)) (name ^ " = reference") 0.
      (Grid.max_abs_diff g reference space)
  in
  let sim () =
    Option.get
      (Executor.run ~mode:Executor.Full ~plan:p1 ~kernel ~net ()).Executor.grid
  in
  check_run "first sim run" (sim ());
  (* J1 × J2 over the space's box *)
  Alcotest.(check int) "one evaluation per entry" (size * size)
    (Atomic.get evals);
  check_run "second sim run" (sim ());
  check_run "shm run" (Shm.run ~plan:p1 ~kernel ()).Shm.grid;
  check_run "shm overlap run"
    (Shm.run ~overlap:true ~plan:p1 ~kernel ()).Shm.grid;
  Alcotest.(check int) "later runs evaluate nothing" (size * size)
    (Atomic.get evals);
  Alcotest.(check bool) "the next ask reuses the table" true
    ((Walker.coefs ~plan:p1 ~kernel).Kernel.data
    == (Walker.coefs ~plan:p1 ~kernel).Kernel.data);
  let p2 = plan () in
  ignore (Plan.rows p2 ~reads:(Array.of_list kernel.Kernel.reads));
  let go = Atomic.make false in
  let ask () =
    Domain.spawn (fun () ->
        while not (Atomic.get go) do
          Domain.cpu_relax ()
        done;
        (Walker.coefs ~plan:p2 ~kernel).Kernel.data)
  in
  let a = ask () and b = ask () in
  Atomic.set go true;
  let da = Domain.join a and db = Domain.join b in
  Alcotest.(check bool) "racing domains hold one table" true (da == db);
  Alcotest.(check bool) "another plan evaluates its own" true
    (Atomic.get evals >= 2 * size * size)

(* the Reference walker tests membership on every tap, and check-mode
   fills on every filled source: a call must not allocate, so minor
   words may not grow with the number of calls *)
let test_member_no_alloc () =
  let member = Walker.compiled_member (Polyhedron.box [ (0, 9); (0, 9); (0, 9) ]) in
  (* inside, and outside on the first constraint (early exit) *)
  let points = [| [| 3; 4; 5 |]; [| -1; 4; 5 |] |] in
  let words n =
    let before = Gc.minor_words () in
    for i = 1 to n do
      ignore (Sys.opaque_identity (member points.(i land 1)))
    done;
    Gc.minor_words () -. before
  in
  ignore (words 10);
  let w1 = words 1_000 and w10 = words 10_000 in
  Alcotest.(check bool)
    (Printf.sprintf "minor words %.0f (1k calls) vs %.0f (10k calls)" w1 w10)
    true
    (w10 -. w1 < 64.)

(* ---------- pooled LDS buffers ---------- *)

module Lds_pool = Tiles_runtime.Lds_pool

(* A checking take scans the idle buffer it reuses: one given back with
   a cell still set fails with the structured error, naming the slot and
   its value. Other tests leave idle buffers in the one process-wide
   pool, so the dirty one is found by taking until the scan fires. *)
let test_pool_scan () =
  let slots = 1237 in
  let dirty = Lds_pool.take ~check:false slots in
  Fbuf.set (Lds_pool.la dirty) 17 2.5;
  Lds_pool.give dirty;
  let held = ref [] in
  let found = ref None in
  for _ = 0 to fst (Lds_pool.idle ()) do
    if !found = None then
      match Lds_pool.take ~check:true slots with
      | l ->
        Alcotest.(check int) "prefix length" slots (Fbuf.length (Lds_pool.la l));
        held := l :: !held
      | exception Lds_pool.Not_poisoned e -> found := Some e
  done;
  List.iter Lds_pool.give !held;
  match !found with
  | None -> Alcotest.fail "a dirty idle buffer was handed out"
  | Some e ->
    Alcotest.(check int) "slot" 17 e.Lds_pool.np_slot;
    Alcotest.(check (float 0.)) "value" 2.5 e.Lds_pool.np_value;
    Alcotest.(check bool) "buffer at least as large" true
      (e.Lds_pool.np_length >= slots);
    Alcotest.(check bool) "message says what is wrong" true
      (Astring.String.is_infix ~affix:"not NaN"
         (Lds_pool.not_poisoned_to_string e));
    let n, bytes = Lds_pool.idle () in
    Alcotest.(check bool) "idle bytes within the cap" true
      (n >= 0 && bytes <= Lds_pool.cap_bytes)

let sor_case () =
  let module Sor = Tiles_apps.Sor in
  let p = Sor.make ~m_steps:6 ~size:10 in
  let nest = Sor.nest p in
  let plan = Plan.make ~m:Sor.mapping_dim nest (Sor.nonrect ~x:3 ~y:5 ~z:5) in
  (nest.Nest.space, plan, Sor.kernel p)

let sim_grid ?check ~walker ~plan ~kernel () =
  Option.get
    (Executor.run ?check ~walker ~mode:Executor.Full ~plan ~kernel ~net ())
      .Executor.grid

(* A rank that raises gives its buffer to no one, and the ranks that
   completed reset theirs: the next runs, on either backend and every
   fast walker, are bit-exact, and a check-mode run finds every reused
   buffer all NaN. The raising kernel is a closure kernel, so the fast
   walker runs the row {!Kernel.make} derives from its [compute]. *)
let test_pool_after_raise () =
  let space, plan, kernel = sor_case () in
  let oracle = Seq_exec.run ~space ~kernel () in
  let calls = Atomic.make 0 in
  let raising =
    Kernel.make ~name:"raising" ~dim:kernel.Kernel.dim ~uses_j:false
      ~reads:kernel.Kernel.reads ~boundary:kernel.Kernel.boundary
      ~compute:(fun ~read ~j ~out ->
        if Atomic.fetch_and_add calls 1 = 40 then raise Exit;
        kernel.Kernel.compute ~read ~j ~out)
      ()
  in
  List.iter
    (fun backend ->
      let run ?check ~walker kernel =
        match backend with
        | Sim_backend -> sim_grid ?check ~walker ~plan ~kernel ()
        | Shm_backend -> (Shm.run ?check ~walker ~plan ~kernel ()).Shm.grid
      in
      Atomic.set calls 0;
      (match run ~walker:Walker.Fastpath raising with
      | _ -> Alcotest.fail "the kernel did not raise"
      | exception Exit -> ());
      List.iter
        (fun walker ->
          let name =
            backend_name backend ^ " " ^ Walker.variant_to_string walker
          in
          Alcotest.(check (float 0.)) (name ^ " after a raise") 0.
            (Grid.max_abs_diff (run ~walker kernel) oracle space);
          Alcotest.(check (float 0.)) (name ^ " + check") 0.
            (Grid.max_abs_diff (run ~check:true ~walker kernel) oracle space))
        [ Walker.Fastpath; Walker.Native ])
    [ Sim_backend; Shm_backend ]

(* The pool is shared by every domain: two domains running one plan at
   once, each taking and giving back buffers of the same sizes, stay
   bit-exact, and a check-mode run afterwards finds every buffer reset. *)
let test_pool_two_domains () =
  let space, plan, kernel = sor_case () in
  let oracle = Seq_exec.run ~space ~kernel () in
  let worker walker () =
    List.init 4 (fun _ ->
        Grid.max_abs_diff (sim_grid ~walker ~plan ~kernel ()) oracle space)
  in
  let d1 = Domain.spawn (worker Walker.Fastpath)
  and d2 = Domain.spawn (worker Walker.Native) in
  let diffs = Domain.join d1 @ Domain.join d2 in
  Alcotest.(check (list (float 0.))) "every concurrent run bit-exact"
    (List.map (fun _ -> 0.) diffs) diffs;
  Alcotest.(check (float 0.)) "check mode afterwards" 0.
    (Grid.max_abs_diff
       (sim_grid ~check:true ~walker:Walker.Fastpath ~plan ~kernel ())
       oracle space)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "tiles_walker"
    [
      ("variant", [ Alcotest.test_case "strings" `Quick test_variant_strings ]);
      ("member", [ Alcotest.test_case "no allocation" `Quick test_member_no_alloc ]);
      ( "equivalence",
        [
          Alcotest.test_case "sequential walkers identical" `Quick
            test_seq_variants_identical;
          q prop_seq_split_bit_identical;
          Alcotest.test_case "sequential interior rows take the row body"
            `Quick test_seq_rows_whole;
          q prop_walkers_bit_identical;
          q prop_row_bodies;
        ] );
      ( "boundary",
        [
          Alcotest.test_case "oracle reads each boundary cell once" `Quick
            test_seq_boundary_once;
          Alcotest.test_case "walker reads each boundary cell once per rank"
            `Quick test_walker_boundary_once;
          Alcotest.test_case "boundary values once per plan and kernel"
            `Quick test_boundary_values_once;
          Alcotest.test_case "static-let table once per plan and kernel"
            `Quick test_coefs_once;
        ] );
      ( "memo",
        [ Alcotest.test_case "walk plan shared across ranks" `Quick
            test_plan_chain_shared;
          Alcotest.test_case "row table built once, for Full runs" `Quick
            test_row_table_once;
          Alcotest.test_case "racing domains share one row table" `Quick
            test_row_table_domains ] );
      ( "validation",
        [ Alcotest.test_case "check modes" `Quick test_check_modes ] );
      ( "native",
        [ Alcotest.test_case "build and fallback modes" `Quick
            test_native_modes;
          Alcotest.test_case "prepare reports the fallback" `Quick
            test_prepare_native_fallback ] );
      ( "mismatch",
        [ Alcotest.test_case "structured error" `Quick test_slab_mismatch ] );
      ( "pool",
        [
          Alcotest.test_case "checking take finds a dirty buffer" `Quick
            test_pool_scan;
          Alcotest.test_case "a raising run leaves the next bit-exact" `Quick
            test_pool_after_raise;
          Alcotest.test_case "two domains at once" `Quick
            test_pool_two_domains;
        ] );
    ]
