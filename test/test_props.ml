(* Randomised cross-layer property tests: random tiling transformations,
   iteration spaces, dependence sets and kernels, checking the global
   invariants the framework's correctness rests on. *)

module Polyhedron = Tiles_poly.Polyhedron
module Nest = Tiles_loop.Nest
module Dependence = Tiles_loop.Dependence
module Tiling = Tiles_core.Tiling
module Ttis = Tiles_core.Ttis
module Tile_space = Tiles_core.Tile_space
module Plan = Tiles_core.Plan
module Kernel = Tiles_runtime.Kernel
module Grid = Tiles_runtime.Grid
module Seq_exec = Tiles_runtime.Seq_exec
module Executor = Tiles_runtime.Executor
module Walker = Tiles_runtime.Walker
module Netmodel = Tiles_mpisim.Netmodel
module Rat = Tiles_rat.Rat
module Vec = Tiles_util.Vec

let net = Netmodel.fast_ethernet_cluster

(* ---------- random tiling generator ---------- *)

(* A tiling is H = diag(1/v)·H' for a random non-singular integer H' and
   random extents v; construction may fail (singular, stride
   divisibility), in which case we retry. *)
let gen_tiling n =
  QCheck.Gen.(
    let entry = int_range (-2) 3 in
    let rec go attempts =
      if attempts = 0 then return None
      else
        let* rows = list_repeat n (list_repeat n entry) in
        let* v = list_repeat n (int_range 2 6) in
        match
          Tiling.of_rows
            (List.map2
               (fun row vk -> List.map (fun e -> Rat.make e vk) row)
               rows v)
        with
        | t -> return (Some t)
        | exception Invalid_argument _ -> go (attempts - 1)
    in
    go 50)

let arb_tiling n =
  QCheck.make
    ~print:(fun t ->
      match t with
      | Some t -> Tiles_linalg.Ratmat.to_string t.Tiling.h
      | None -> "<none>")
    (gen_tiling n)

let prop_count n =
  QCheck.Test.make ~name:(Printf.sprintf "TTIS count = tile size (n=%d)" n)
    ~count:100 (arb_tiling n) (fun t ->
      match t with
      | None -> QCheck.assume_fail ()
      | Some t -> Ttis.count t = Tiling.tile_size t)

let prop_enumerations_agree n =
  QCheck.Test.make
    ~name:(Printf.sprintf "iter = incremental = bruteforce (n=%d)" n)
    ~count:60 (arb_tiling n) (fun t ->
      match t with
      | None -> QCheck.assume_fail ()
      | Some t ->
        let collect iter =
          let acc = ref [] in
          iter t (fun j' -> acc := Vec.copy j' :: !acc);
          List.rev !acc
        in
        let a = collect Ttis.iter in
        a = collect Ttis.iter_incremental && a = collect Ttis.iter_bruteforce)

let prop_roundtrips n =
  QCheck.Test.make
    ~name:(Printf.sprintf "tile/local/global roundtrips (n=%d)" n)
    ~count:60
    (QCheck.pair (arb_tiling n)
       (QCheck.make QCheck.Gen.(array_size (return n) (int_range (-15) 15))))
    (fun (t, j) ->
      match t with
      | None -> QCheck.assume_fail ()
      | Some t ->
        let tile = Tiling.tile_of t j in
        let j' = Tiling.local_of t ~tile j in
        Ttis.mem t j'
        && Vec.equal j (Tiling.global_of t ~tile j'))

let prop_partition n =
  QCheck.Test.make ~name:(Printf.sprintf "tiles partition J^n (n=%d)" n)
    ~count:25
    (QCheck.pair (arb_tiling n)
       (QCheck.make QCheck.Gen.(list_repeat n (int_range 3 9))))
    (fun (t, extents) ->
      match t with
      | None -> QCheck.assume_fail ()
      | Some t ->
        let space = Polyhedron.box (List.map (fun e -> (0, e)) extents) in
        let ts = Tile_space.make space t in
        let total =
          List.fold_left
            (fun acc s -> acc + Tile_space.tile_iterations ts s)
            0 (Tile_space.candidates ts)
        in
        total = Polyhedron.count_points space)

let prop_slab_count_fast n =
  QCheck.Test.make
    ~name:(Printf.sprintf "fast slab count = enumeration (n=%d)" n)
    ~count:25
    (QCheck.pair (arb_tiling n)
       (QCheck.make QCheck.Gen.(list_repeat n (int_range 3 9))))
    (fun (t, extents) ->
      match t with
      | None -> QCheck.assume_fail ()
      | Some t ->
        let space = Polyhedron.box (List.map (fun e -> (0, e)) extents) in
        let ts = Tile_space.make space t in
        let counter = Tile_space.counter ts in
        List.for_all
          (fun s ->
            let lo =
              Array.init (Tiling.dim t) (fun k -> t.Tiling.v.(k) / 2)
            in
            let brute = ref 0 in
            Tile_space.iter_slab_points ts ~tile:s ~lo
              (fun ~local:_ ~global:_ -> incr brute);
            !brute = Tile_space.count_slab counter ~tile:s ~lo
            && ((not (Tile_space.is_interior counter s))
               || !brute = Ttis.count_from t ~lo))
          (Tile_space.candidates ts))

(* ---------- random dependence sets + loc roundtrip ---------- *)

let gen_deps n =
  QCheck.Gen.(
    let* q = int_range 1 3 in
    let* vecs =
      list_repeat q
        (let* v = list_repeat n (int_range 0 1) in
         return (Array.of_list v))
    in
    let vecs = List.filter (fun v -> not (Vec.is_zero v)) vecs in
    if vecs = [] then return None
    else
      match Dependence.of_vectors vecs with
      | d -> return (Some d)
      | exception Invalid_argument _ -> return None)

let prop_loc_roundtrip n =
  QCheck.Test.make ~name:(Printf.sprintf "loc/loc_inv roundtrip (n=%d)" n)
    ~count:30
    (QCheck.pair (arb_tiling n) (QCheck.make (gen_deps n)))
    (fun (t, deps) ->
      match (t, deps) with
      | Some t, Some deps when Tiling.legal_for t deps -> (
        let space = Polyhedron.box (List.init n (fun _ -> (0, 7))) in
        match Nest.make ~name:"rand" ~space ~deps with
        | nest -> (
          match Plan.make nest t with
          | plan ->
            Polyhedron.fold_points space ~init:true ~f:(fun acc j ->
                acc
                &&
                let pid, j'' = Plan.loc plan j in
                Vec.equal j (Plan.loc_inv plan ~pid j''))
          | exception (Invalid_argument _ | Failure _) ->
            QCheck.assume_fail () (* tile too small for the deps *))
        | exception Invalid_argument _ -> QCheck.assume_fail ())
      | _ -> QCheck.assume_fail ())

(* ---------- random kernels: parallel = sequential ---------- *)

let gen_kernel_2d =
  QCheck.Gen.(
    let* coeffs = list_repeat 3 (float_bound_inclusive 0.3) in
    let coeffs = Array.of_list coeffs in
    let reads = [ [| 1; 0 |]; [| 0; 1 |]; [| 1; 1 |] ] in
    return
      (Kernel.make ~name:"rand" ~dim:2 ~reads
         ~boundary:(fun j _ ->
           0.5 +. (0.1 *. float_of_int (((j.(0) * 7) + (j.(1) * 3)) mod 11)))
         ~compute:(fun ~read ~j:_ ~out ->
           out.(0) <-
             0.1
             +. (coeffs.(0) *. read 0 0)
             +. (coeffs.(1) *. read 1 0)
             +. (coeffs.(2) *. read 2 0))
         ()))

let prop_executor_equivalence =
  QCheck.Test.make ~name:"random kernel: parallel = sequential" ~count:25
    (QCheck.pair
       (QCheck.make gen_kernel_2d)
       (QCheck.pair (arb_tiling 2)
          (QCheck.make QCheck.Gen.(pair (int_range 6 14) (int_range 6 14)))))
    (fun (kernel, (tiling, (w, h))) ->
      match tiling with
      | Some tiling when Tiling.legal_for tiling (Kernel.deps kernel) -> (
        let space = Polyhedron.box [ (0, w); (0, h) ] in
        let nest = Nest.make ~name:"rand" ~space ~deps:(Kernel.deps kernel) in
        match Plan.make nest tiling with
        | plan ->
          let r = Executor.run ~mode:Executor.Full ~plan ~kernel ~net () in
          let seq = Seq_exec.run ~space ~kernel () in
          (match r.Executor.grid with
          | Some g -> Grid.max_abs_diff g seq space = 0.
          | None -> false)
        | exception (Invalid_argument _ | Failure _) -> QCheck.assume_fail ())
      | _ -> QCheck.assume_fail ())

let prop_executor_overlap_equivalence =
  QCheck.Test.make ~name:"random kernel: overlapped = sequential" ~count:15
    (QCheck.pair (QCheck.make gen_kernel_2d) (arb_tiling 2))
    (fun (kernel, tiling) ->
      match tiling with
      | Some tiling when Tiling.legal_for tiling (Kernel.deps kernel) -> (
        let space = Polyhedron.box [ (0, 11); (0, 9) ] in
        let nest = Nest.make ~name:"rand" ~space ~deps:(Kernel.deps kernel) in
        match Plan.make nest tiling with
        | plan ->
          let r =
            Executor.run ~mode:Executor.Full ~overlap:true ~plan ~kernel ~net ()
          in
          let seq = Seq_exec.run ~space ~kernel () in
          (match r.Executor.grid with
          | Some g -> Grid.max_abs_diff g seq space = 0.
          | None -> false)
        | exception (Invalid_argument _ | Failure _) -> QCheck.assume_fail ())
      | _ -> QCheck.assume_fail ())

(* real domains: the overlapped shm schedule is the same computation as
   the blocking one — bit-identical grids, identical counters (few cases:
   each run spawns one domain per rank, plus senders when overlapped) *)
let prop_shm_overlap_equals_blocking =
  let module Shm = Tiles_runtime.Shm_executor in
  QCheck.Test.make ~name:"random kernel: shm overlapped = shm blocking"
    ~count:8
    (QCheck.pair (QCheck.make gen_kernel_2d) (arb_tiling 2))
    (fun (kernel, tiling) ->
      match tiling with
      | Some tiling when Tiling.legal_for tiling (Kernel.deps kernel) -> (
        let space = Polyhedron.box [ (0, 11); (0, 9) ] in
        let nest = Nest.make ~name:"rand" ~space ~deps:(Kernel.deps kernel) in
        match Plan.make nest tiling with
        | plan ->
          let b = Shm.run ~plan ~kernel () in
          let o = Shm.run ~overlap:true ~plan ~kernel () in
          Grid.max_abs_diff b.Shm.grid o.Shm.grid space = 0.
          && b.Shm.messages = o.Shm.messages
          && b.Shm.bytes = o.Shm.bytes
          && b.Shm.max_abs_err = 0.
          && o.Shm.max_abs_err = 0.
        | exception (Invalid_argument _ | Failure _) -> QCheck.assume_fail ())
      | _ -> QCheck.assume_fail ())

let prop_timing_equals_full =
  QCheck.Test.make ~name:"timing mode = full mode virtual times" ~count:20
    (QCheck.pair (QCheck.make gen_kernel_2d) (arb_tiling 2))
    (fun (kernel, tiling) ->
      match tiling with
      | Some tiling when Tiling.legal_for tiling (Kernel.deps kernel) -> (
        let space = Polyhedron.box [ (0, 12); (0, 10) ] in
        let nest = Nest.make ~name:"rand" ~space ~deps:(Kernel.deps kernel) in
        match Plan.make nest tiling with
        | plan ->
          let a = Executor.run ~mode:Executor.Full ~plan ~kernel ~net () in
          let b = Executor.run ~mode:Executor.Timing ~plan ~kernel ~net () in
          a.Executor.stats.Tiles_mpisim.Sim.completion
          = b.Executor.stats.Tiles_mpisim.Sim.completion
          && a.Executor.points_computed = b.Executor.points_computed
        | exception (Invalid_argument _ | Failure _) -> QCheck.assume_fail ())
      | _ -> QCheck.assume_fail ())

(* ---------- count table ---------- *)

(* a small box, optionally skewed by a unit lower-triangular matrix and
   optionally cut by one half-space that keeps its low corner; the skew
   and cut coefficients stay small, since Fourier–Motzkin projections of
   random tilings over larger ones can take seconds *)
let gen_space n =
  QCheck.Gen.(
    let* lo = list_repeat n (int_range (-2) 2) in
    let* ext = list_repeat n (int_range 2 (if n = 2 then 8 else 5)) in
    let box = Polyhedron.box (List.map2 (fun l e -> (l, l + e - 1)) lo ext) in
    let* skew = list_repeat (n * n) (int_range 0 1) in
    let* skewed = bool in
    let t =
      if skewed then
        Tiles_linalg.Intmat.of_rows
          (List.init n (fun r ->
               List.init n (fun c ->
                   if r = c then 1
                   else if c < r then List.nth skew ((r * n) + c)
                   else 0)))
      else Tiles_linalg.Intmat.identity n
    in
    let space = Polyhedron.transform_unimodular t box in
    let* a = list_repeat n (int_range (-1) 1) in
    let* off = int_range 1 4 in
    let* cut = bool in
    let a = Array.of_list a in
    if cut && Array.exists (( <> ) 0) a then
      let corner = Tiles_linalg.Intmat.apply t (Array.of_list lo) in
      let c = off - Vec.dot a corner in
      return
        (Polyhedron.add space (Tiles_poly.Constr.make ~coeffs:a ~const:c))
    else return space)

(* a width-1 kernel reading along each dependence *)
let deps_kernel n deps =
  let reads = Dependence.vectors deps in
  Kernel.make ~name:"table" ~dim:n ~reads
    ~boundary:(fun j _ ->
      0.5 +. (0.1 *. float_of_int (abs (j.(0) + j.(n - 1)) mod 7)))
    ~compute:(fun ~read ~j:_ ~out ->
      let acc = ref 0.1 in
      List.iteri (fun i _ -> acc := !acc +. (0.3 *. read i 0)) reads;
      out.(0) <- !acc)
    ()

(* every entry of a plan's count table against enumeration, its total
   against the space's point count, and both run modes and comm_stats
   against the DES *)
let prop_count_table n =
  QCheck.Test.make
    ~name:(Printf.sprintf "count table = enumeration (n=%d)" n)
    ~count:(if n = 2 then 60 else 15)
    (QCheck.triple
       (QCheck.make ~print:(Format.asprintf "%a" Polyhedron.pp) (gen_space n))
       (arb_tiling n) (QCheck.make (gen_deps n)))
    (fun (space, t, deps) ->
      match (t, deps) with
      | Some t, Some deps when Tiling.legal_for t deps -> (
        let kernel = deps_kernel n deps in
        let nest = Nest.make ~name:"rand" ~space ~deps:(Kernel.deps kernel) in
        match Plan.make nest t with
        | exception (Invalid_argument _ | Failure _) -> QCheck.assume_fail ()
        | plan ->
          let module Mapping = Tiles_core.Mapping in
          let module Comm = Tiles_core.Comm in
          let module Count_table = Tiles_core.Count_table in
          let mapping = plan.Plan.mapping and comm = plan.Plan.comm in
          let table = Plan.counts plan in
          let enumerate tile ~lo =
            let k = ref 0 in
            Tile_space.iter_slab_points plan.Plan.tspace ~tile ~lo
              (fun ~local:_ ~global:_ -> incr k);
            !k
          in
          let entries_ok = ref true in
          for rank = 0 to Mapping.nprocs mapping - 1 do
            let pid = Mapping.pid_of_rank mapping rank in
            let lo, hi = Mapping.chain mapping rank in
            for ts = lo to hi do
              let trel = ts - lo in
              let tile = Mapping.join mapping ~pid ~ts in
              if
                Count_table.points table ~rank ~trel
                <> enumerate tile ~lo:(Array.make n 0)
              then entries_ok := false;
              List.iteri
                (fun dir (dm, dss) ->
                  let succ =
                    List.exists
                      (fun dS ->
                        Mapping.valid mapping ~pid:(Vec.add pid dm)
                          ~ts:(ts + dS.(comm.Comm.m)))
                      dss
                  in
                  let expected =
                    if succ then enumerate tile ~lo:(Comm.slab_lo comm ~dm)
                    else -1
                  in
                  if Count_table.slab table ~rank ~trel ~dir <> expected then
                    entries_ok := false)
                comm.Comm.dm
            done
          done;
          let full = Executor.run ~mode:Executor.Full ~plan ~kernel ~net () in
          let timing =
            Executor.run ~mode:Executor.Timing ~plan ~kernel ~net ()
          in
          let messages, cells = Plan.comm_stats plan in
          let stats r = r.Executor.stats in
          !entries_ok
          && Count_table.total table = Polyhedron.count_points space
          && Plan.total_iterations plan = Count_table.total table
          && (stats full).Tiles_mpisim.Sim.completion
             = (stats timing).Tiles_mpisim.Sim.completion
          && full.Executor.points_computed = timing.Executor.points_computed
          && full.Executor.points_computed = Count_table.total table
          && List.for_all
               (fun r ->
                 (stats r).Tiles_mpisim.Sim.messages = messages
                 && (stats r).Tiles_mpisim.Sim.bytes = 8 * cells)
               [ full; timing ])
      | _ -> QCheck.assume_fail ())

(* ---------- boundary fills: per-tap spans = membership ---------- *)

(* a width-1 kernel reading along each dependence, with a row body (the
   same float operations as [compute]) and a boundary that counts the
   calls made with a source inside [space] *)
let fill_kernel space n deps =
  let reads = Dependence.vectors deps in
  let nr = List.length reads in
  let inside = ref 0 in
  let compute ~read ~j:_ ~out =
    let acc = ref 0.1 in
    for r = 0 to nr - 1 do
      acc := !acc +. (0.3 *. read r 0)
    done;
    out.(0) <- !acc
  in
  let row ~(la : Tiles_util.Fbuf.t) ~dst ~taps ~len =
    for i = dst to dst + len - 1 do
      let acc = ref 0.1 in
      for r = 0 to nr - 1 do
        acc := !acc +. (0.3 *. la.{i + taps.(r)})
      done;
      la.{i} <- !acc
    done
  in
  let boundary j _ =
    if Polyhedron.member space j then incr inside;
    0.5 +. (0.1 *. float_of_int (abs (j.(0) + j.(n - 1)) mod 7))
  in
  ( inside,
    Kernel.make ~name:"fill" ~dim:n ~uses_j:false ~row ~reads ~boundary
      ~compute () )

(* On random skewed and cut spaces, the fast walker and the sequential
   oracle fill exactly the out-of-space tap cells: a span that is too
   narrow calls [boundary] on a source inside the space (counted, and
   refused by check mode), one that is too wide leaves a NaN cell that
   is read (refused by check mode, and visible in the grid). Both, with
   and without check, stay bit-identical to the boxed reference. *)
let prop_boundary_fill n =
  QCheck.Test.make
    ~name:(Printf.sprintf "boundary fill spans = membership (n=%d)" n)
    ~count:(if n = 2 then 40 else 12)
    (QCheck.triple
       (QCheck.make ~print:(Format.asprintf "%a" Polyhedron.pp) (gen_space n))
       (arb_tiling n) (QCheck.make (gen_deps n)))
    (fun (space, t, deps) ->
      match (t, deps) with
      | Some t, Some deps when Tiling.legal_for t deps -> (
        let inside, kernel = fill_kernel space n deps in
        let nest = Nest.make ~name:"rand" ~space ~deps:(Kernel.deps kernel) in
        match Plan.make nest t with
        | exception (Invalid_argument _ | Failure _) -> QCheck.assume_fail ()
        | plan ->
          let reference =
            Seq_exec.run ~variant:Walker.Reference ~space ~kernel ()
          in
          let same g = Grid.max_abs_diff g reference space = 0. in
          let exec check =
            match
              (Executor.run ~walker:Walker.Fastpath ~check ~mode:Executor.Full
                 ~plan ~kernel ~net ())
                .Executor.grid
            with
            | Some g -> same g
            | None -> false
          in
          List.for_all
            (fun check ->
              same (Seq_exec.run ~check ~space ~kernel ()) && exec check)
            [ false; true ]
          && !inside = 0)
      | _ -> QCheck.assume_fail ())

(* ---------- grid comparison: row walk = per-point definitions ---------- *)

(* the per-point definitions the row walks replaced *)
let max_abs_diff_points a b space =
  let worst = ref 0. in
  Polyhedron.iter_points space (fun j ->
      for f = 0 to Grid.width a - 1 do
        let x = Grid.get a j f and y = Grid.get b j f in
        let d =
          if Float.is_nan x || Float.is_nan y then infinity
          else Float.abs (x -. y)
        in
        if d > !worst then worst := d
      done);
  !worst

let checksum_points t space =
  let sum = ref 0. and comp = ref 0. in
  Polyhedron.iter_points space (fun j ->
      for f = 0 to Grid.width t - 1 do
        let x = Grid.get t j f in
        let s = !sum +. x in
        if Float.abs !sum >= Float.abs x then
          comp := !comp +. ((!sum -. s) +. x)
        else comp := !comp +. ((x -. s) +. !sum);
        sum := s
      done);
  !sum +. !comp

(* Two grids over one space, one widened by random reads, filled with
   values of mixed magnitudes, equal at about half the cells and NaN at a
   few: [max_abs_diff] and [checksum] agree with the per-point
   definitions bit for bit. *)
let prop_grid_rows n =
  QCheck.Test.make
    ~name:(Printf.sprintf "grid row walk = per-point definitions (n=%d)" n)
    ~count:150
    (QCheck.triple
       (QCheck.make ~print:(Format.asprintf "%a" Polyhedron.pp) (gen_space n))
       (QCheck.make
          QCheck.Gen.(
            list_size (int_range 0 3)
              (map Array.of_list (list_repeat n (int_range (-2) 3)))))
       (QCheck.pair (QCheck.int_range 1 2) QCheck.int))
    (fun (space, reads, (width, seed)) ->
      let st = Random.State.make [| seed |] in
      let a = Grid.create ~reads space ~width and b = Grid.create space ~width in
      let value () =
        if Random.State.int st 25 = 0 then Float.nan
        else
          (Random.State.float st 2. -. 1.)
          *. (10. ** float_of_int (Random.State.int st 12))
      in
      Polyhedron.iter_points space (fun j ->
          for f = 0 to width - 1 do
            let x = value () in
            Grid.set a j f x;
            Grid.set b j f (if Random.State.bool st then x else value ())
          done);
      let bits x = Int64.bits_of_float x in
      bits (Grid.max_abs_diff a b space) = bits (max_abs_diff_points a b space)
      && bits (Grid.max_abs_diff b a space) = bits (max_abs_diff_points b a space)
      && List.for_all
           (fun g -> bits (Grid.checksum g space) = bits (checksum_points g space))
           [ a; b ])

(* ---------- tile dependences: face sweep = whole-TTIS sweep ---------- *)

(* the original whole-TTIS sweep, kept here as the oracle *)
let tile_deps_oracle (tiling : Tiling.t) d's =
  let module S = Set.Make (struct
    type t = int array

    let compare = Vec.compare_lex
  end) in
  let acc = ref S.empty in
  Ttis.iter tiling (fun j' ->
      List.iter
        (fun d' ->
          let ds =
            Array.init tiling.Tiling.n (fun k ->
                Tiles_util.Ints.fdiv (j'.(k) + d'.(k)) tiling.Tiling.v.(k))
          in
          if not (Vec.is_zero ds) then acc := S.add ds !acc)
        d's);
  S.elements !acc

let gen_wide_deps n =
  QCheck.Gen.(
    let* q = int_range 1 3 in
    let* vecs =
      list_repeat q
        (let* v = list_repeat n (int_range (-1) 3) in
         return (Array.of_list v))
    in
    let vecs =
      List.filter (fun v -> Vec.compare_lex v (Array.make n 0) > 0) vecs
    in
    if vecs = [] then return None
    else
      match Dependence.of_vectors vecs with
      | d -> return (Some d)
      | exception Invalid_argument _ -> return None)

let prop_tile_deps n =
  QCheck.Test.make
    ~name:(Printf.sprintf "tile deps: face sweep = TTIS sweep (n=%d)" n)
    ~count:400
    (QCheck.pair (arb_tiling n) (QCheck.make (gen_wide_deps n)))
    (fun (t, deps) ->
      match (t, deps) with
      | Some t, Some deps when Tiling.legal_for t deps -> (
        let oracle = tile_deps_oracle t (Tiling.transformed_deps t deps) in
        match Tiles_core.Comm.make t deps ~m:0 with
        | c -> c.Tiles_core.Comm.ds = oracle
        | exception Invalid_argument _ -> QCheck.assume_fail ()
        | exception Failure _ ->
          List.exists (Array.exists (fun x -> x < 0 || x > 1)) oracle)
      | _ -> QCheck.assume_fail ())

(* ---------- pooled LDS buffers ---------- *)

(* Every Full-run rank borrows its LDS from one process-wide pool and
   gives it back with the cells it wrote reset to NaN. For each walker,
   schedule and backend, two back-to-back runs match the oracle bit for
   bit, and a check-mode run afterwards, whose takes scan every reused
   buffer for a cell left set, passes too. *)
let prop_pool_reuse n =
  let module Shm = Tiles_runtime.Shm_executor in
  QCheck.Test.make
    ~name:(Printf.sprintf "pooled LDS: back-to-back runs = oracle (n=%d)" n)
    ~count:(if n = 2 then 12 else 6)
    (QCheck.triple
       (QCheck.make ~print:(Format.asprintf "%a" Polyhedron.pp) (gen_space n))
       (arb_tiling n) (QCheck.make (gen_deps n)))
    (fun (space, t, deps) ->
      match (t, deps) with
      | Some t, Some deps when Tiling.legal_for t deps -> (
        let kernel = deps_kernel n deps in
        let nest = Nest.make ~name:"rand" ~space ~deps:(Kernel.deps kernel) in
        match Plan.make nest t with
        | exception (Invalid_argument _ | Failure _) -> QCheck.assume_fail ()
        | plan ->
          let oracle = Seq_exec.run ~space ~kernel () in
          let exact ?check walker overlap backend =
            let grid =
              match backend with
              | `Sim ->
                Option.get
                  (Executor.run ?check ~walker ~mode:Executor.Full ~overlap
                     ~plan ~kernel ~net ())
                    .Executor.grid
              | `Shm -> (Shm.run ?check ~walker ~overlap ~plan ~kernel ()).Shm.grid
            in
            Grid.max_abs_diff grid oracle space = 0.
          in
          List.for_all
            (fun walker ->
              List.for_all
                (fun overlap ->
                  List.for_all
                    (fun backend ->
                      exact walker overlap backend
                      && exact walker overlap backend
                      && exact ~check:true walker overlap backend)
                    [ `Sim; `Shm ])
                [ false; true ])
            Walker.all_variants)
      | _ -> QCheck.assume_fail ())

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "tiles_props"
    [
      ( "tiling",
        [
          q (prop_count 2); q (prop_count 3);
          q (prop_enumerations_agree 2); q (prop_enumerations_agree 3);
          q (prop_roundtrips 2); q (prop_roundtrips 3);
        ] );
      ( "tile-space",
        [
          q (prop_partition 2); q (prop_partition 3);
          q (prop_slab_count_fast 2); q (prop_slab_count_fast 3);
        ] );
      ( "plan",
        [
          q (prop_loc_roundtrip 2); q (prop_loc_roundtrip 3);
          q (prop_count_table 2); q (prop_count_table 3);
          q (prop_tile_deps 2); q (prop_tile_deps 3);
        ] );
      ( "boundary",
        [
          q (prop_boundary_fill 2); q (prop_boundary_fill 3);
          q (prop_grid_rows 2); q (prop_grid_rows 3);
        ] );
      ( "executor",
        [
          q prop_executor_equivalence;
          q prop_executor_overlap_equivalence;
          q prop_shm_overlap_equals_blocking;
          q prop_timing_equals_full;
          q (prop_pool_reuse 2); q (prop_pool_reuse 3);
        ] );
    ]
