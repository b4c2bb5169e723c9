(** Compile, cache and call native (C-compiled) row kernels for the
    [native] walker variant.

    [build] renders the per-(plan, kernel) row source with
    {!Tiles_codegen.Rowgen}, compiles it with the system C compiler
    ([TILEC_CC], default [cc]; compiled without [-ffast-math] so results
    stay bit-identical to the OCaml walkers), caches the shared object
    content-addressed by source digest under [TILEC_NATIVE_CACHE]
    (default [~/.cache/tilec/native]), and [dlopen]s it. All failure
    modes — missing compiler ([TILEC_NO_CC] forces this), kernel
    without a C body, compile or dlopen errors — return [Error reason]
    so the walker can fall back and record why. *)

type fn
(** A loaded row entry point. *)

val available : unit -> bool
(** Is a C compiler usable? False when [TILEC_NO_CC] is set or the
    compiler is not on [PATH] (resolved once per process). *)

val build :
  plan:Tiles_core.Plan.t -> kernel:Kernel.t -> unit -> (fn, string) result

val row :
  fn ->
  la:Tiles_util.Fbuf.t ->
  cur:int ->
  taps:int array ->
  jrow:int array ->
  len:int ->
  unit
(** Run the compiled row: [cur] is the LDS cell of the first point,
    [taps] the per-read LDS cell deltas for this row, [jrow] the global
    (skewed) coordinates of the first point, read only by a body that
    uses its coordinates. Every tap is read unguarded: a tap outside the
    space already holds its boundary value. *)
