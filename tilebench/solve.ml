(* The [solve] workload: warm, verified runs of configurations compiled
   during set-up.

   Set-up plans every configuration, builds its native row kernel into
   an emptied cache and computes its oracle grid with the boxed
   Reference walker. Each op then runs one configuration on one engine
   and compares the grid bit for bit with the oracle. Walkers, native
   rows, shm mailboxes and the sequential walk do the work; planning
   does none. *)

open Common
module Plan = Tiles_core.Plan
module Executor = Tiles_runtime.Executor
module Shm_executor = Tiles_runtime.Shm_executor
module Seq_exec = Tiles_runtime.Seq_exec
module Native_kernel = Tiles_runtime.Native_kernel
module Walker = Tiles_runtime.Walker
module Grid = Tiles_runtime.Grid
module Sim = Tiles_mpisim.Sim

type config = {
  label : string;
  app : app;
  plan : Plan.t;
  oracle : Grid.t;
  native_ok : bool;  (* built, or no C compiler on this host *)
  points : int;
}

type state = { seed : int; configs : config list }

(* (app, sizes, variant, tile): per-rank tiles from L2-resident
   (8x16x16) to past L2 (16x256x256 doubles is 8 MB) *)
let menu =
  [
    ("sor", 16, 64, "rect", (8, 16, 16));
    ("jacobi", 16, 48, "nonrect", (4, 12, 12));
    ("adi", 16, 64, "nr3", (8, 32, 64));
    ("sor", 32, 128, "nonrect", (16, 64, 128));
    ("sor", 16, 256, "nonrect", (16, 256, 256));
    ("jacobi", 16, 64, "nonrect", (16, 64, 128));
  ]

let configure (name, size1, size2, variant, tile) =
  let a = app name ~size1 ~size2 in
  let plan = Span.with_ "plan" (fun () -> Plan.make ~m:a.m a.nest (tiling a ~variant tile)) in
  let native_ok =
    match
      Span.with_ "native"
        ~attrs:(fun r -> [ ("fallback", if Result.is_ok r then 0. else 1.) ])
        (fun () -> Native_kernel.build ~plan ~kernel:a.kernel ())
    with
    | Ok _ -> true
    | Error reason ->
      warn "%s: native fallback: %s" name reason;
      not (Native_kernel.available ())
  in
  let oracle =
    Span.with_ "oracle" (fun () ->
        Seq_exec.run ~variant:Walker.Reference ~space:a.nest.Nest.space
          ~kernel:a.kernel ())
  in
  let x, y, z = tile in
  {
    label =
      Printf.sprintf "%s %d/%d %s %dx%dx%d (%d ranks)" name size1 size2 variant x
        y z (Plan.nprocs plan);
    app = a;
    plan;
    oracle;
    native_ok;
    points = Plan.total_iterations plan;
  }

let setup ~seed =
  empty_native_cache ();
  { seed; configs = List.map configure menu }

let same_as_oracle c grid =
  Span.with_ "verify" (fun () ->
      let d = Grid.max_abs_diff grid c.oracle c.app.nest.Nest.space in
      if d <> 0. then warn "%s: grid differs from the oracle by %g" c.label d;
      d = 0.)

let exec_op c walker () =
  let name, native =
    match walker with
    | Walker.Native -> ("exec.native", true)
    | _ -> ("exec.fast", false)
  in
  let r =
    Span.with_ name
      ~attrs:(fun r ->
        [
          ("points", float_of_int r.Executor.points_computed);
          ("bytes", float_of_int r.Executor.stats.Sim.bytes);
        ])
      (fun () ->
        Executor.run ~walker ~mode:Executor.Full ~plan:c.plan
          ~kernel:c.app.kernel ~net ())
  in
  let ok =
    match r.Executor.grid with
    | Some g -> same_as_oracle c g && r.Executor.points_computed = c.points
    | None -> false
  in
  (ok && ((not native) || c.native_ok), r.Executor.points_computed)

let shm_op c () =
  let r =
    Span.with_ "shm"
      ~attrs:(fun r ->
        [
          ("parallel_ms", 1e3 *. r.Shm_executor.wall_seconds);
          ("oracle_ms", 1e3 *. r.Shm_executor.seq_wall_seconds);
        ])
      (fun () -> Shm_executor.run ~plan:c.plan ~kernel:c.app.kernel ())
  in
  ( r.Shm_executor.max_abs_err = 0. && same_as_oracle c r.Shm_executor.grid,
    r.Shm_executor.points_computed )

let seq_op c () =
  let g =
    Span.with_ "seq"
      ~attrs:(fun _ -> [ ("points", float_of_int c.points) ])
      (fun () -> Seq_exec.run ~space:c.app.nest.Nest.space ~kernel:c.app.kernel ())
  in
  (same_as_oracle c g, c.points)

let deck st round =
  shuffle (rng st.seed (200 + round))
    (List.concat_map
       (fun c ->
         [
           ("exec.fast", exec_op c Walker.Fastpath);
           ("exec.native", exec_op c Walker.Native);
           ("seq", seq_op c);
         ]
         @ if Plan.nprocs c.plan <= 2 then [ ("shm", shm_op c) ] else [])
       st.configs)

let window st ~seconds = run_decks ~seconds (deck st)
