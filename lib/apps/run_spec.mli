(** One run, described once: the paper's compiler input (a nest, a
    tiling and a mapping dimension, named by app, sizes, variant and tile
    factors) plus the execution knobs. The CLI's spec term, the serve
    job codec and plan-cache key, the exported {!Tiles_obs.Runmeta} (and
    through it the perf baseline file name) and the bench harness all
    derive from it, so a new knob is a field here plus one CLI term. The
    process count is not a field: it follows from the plan. {!run}
    executes a spec and checks it against the sequential oracle, the
    same way for every caller. *)

type backend =
  | Sim  (** discrete-event simulator, virtual time *)
  | Shm  (** real OCaml domains, wall time *)

val backend_to_string : backend -> string
(** ["sim"] or ["shm"], as recorded everywhere a backend is named. *)

type t = {
  app : string;
  variant : string;
  size1 : int;  (** time-like extent (M for SOR, T for Jacobi/ADI) *)
  size2 : int;  (** spatial extent (N) *)
  tile : int * int * int;  (** tile factors x, y, z *)
  backend : backend;
  overlap : bool;  (** the §5 overlapped schedule *)
  net : Tiles_mpisim.Netmodel.t;  (** simulator network model *)
  walker : Tiles_runtime.Walker.variant;
}

val default : string -> t
(** [default app]: the CLI's and the protocol's defaults — sizes 24/32,
    variant [nonrect], tile [(6,8,8)], sim backend, blocking sends, the
    paper's fast-Ethernet model, the fast walker. *)

val resolve : t -> (Registry.resolved, string) result
(** {!Registry.resolve} on the spec's naming fields. An illegal or
    singular tiling is an [Error] carrying its {!error_message}. *)

val error_message : exn -> string
(** The one-line text of a failed run, as [tilec] prints it after
    ["tilec: error: "] and serve sends it in an error reply: the message
    of [Invalid_argument], [Failure] and [Sys_error], a fixed text for
    the [Division_by_zero] of a zero tile factor, and
    [Printexc.to_string] for the rest (which reads the printers
    registered for {!Tiles_runtime.Protocol.Slab_mismatch} and
    {!Tiles_mpisim.Sim.Deadlock}). *)

val runmeta :
  ?walker_fallback:string ->
  ?job_id:string ->
  ?queued_s:float ->
  nprocs:int ->
  t ->
  Tiles_obs.Runmeta.t
(** The run's metadata; the network model is ["-"] on shm. *)

val of_json : Tiles_util.Json.t -> (t, string) result
(** The spec fields of a serve job line: [app] (required), [size1],
    [size2], [variant], [tile], [backend], [overlap], [walker], each
    defaulting as in {!default}. [net] is not a job field (the daemon
    applies its own). [Error] is a one-line rejection reason. *)

val to_json_fields : t -> (string * Tiles_util.Json.t) list
(** The same fields, in protocol order; {!of_json} reads them back. *)

(** {1 Running a spec} *)

type mode = Tiles_runtime.Executor.mode =
  | Full  (** real data flow and arithmetic, checked against the oracle *)
  | Timing  (** counts and virtual time only; the simulator alone has it *)

type keep = Tiles_obs.Recorder.keep =
  | Counters  (** counters only: an untraced run *)
  | Totals  (** also per-kind span totals and the longest waits *)
  | Timeline  (** also every span and every send→recv edge *)

type result = {
  stats : Tiles_obs.Stats.t Lazy.t;
      (** {!Tiles_obs.Stats.of_recorder} on the run's recorder, built on
          first use; the causal critical path is walked then, and only
          under [Timeline]. Its completion is the simulated completion
          on sim and the latest rank finish stamp on shm. *)
  spans : Tiles_obs.Span.t list;  (** [[]] unless [Timeline] *)
  edges : Tiles_obs.Recorder.edge list;  (** likewise *)
  longest_waits : Tiles_obs.Span.t list;
      (** {!Tiles_obs.Recorder.longest_waits}; [[]] under [Counters] *)
  completion : float;  (** virtual seconds on sim, wall seconds on shm *)
  speedup : float;
      (** against the modelled sequential time on sim; on shm against
          the sequential oracle's wall time as {!Tiles_runtime.Seq_exec.check}
          reports it (taken when the oracle last really ran for the
          problem) *)
  messages : int;
  bytes : int;
  points : int;  (** iterations executed across ranks *)
  tiles : int;
  max_abs_err : float option;
      (** [Some] on every Full run: the largest difference from the
          sequential oracle over the iteration space, exact on every run
          ([0.] from a digest match or the oracle's own difference; see
          {!run}). The run's output grid is not kept. *)
  walker_fallback : string option;
      (** why a [native] walker ran the OCaml fast path, as the walkers
          that ran reported it; [None] when none ran (sim [Timing]) *)
}

val run :
  ?mode:mode ->
  ?check:bool ->
  ?keep:keep ->
  t ->
  plan:Tiles_core.Plan.t ->
  kernel:Tiles_runtime.Kernel.t ->
  result
(** Run [plan] on the spec's backend with its overlap, network model and
    walker. [mode] (default [Full]) applies to the simulator only; shm
    always runs Full. A Full run on either backend is checked by
    {!Tiles_runtime.Seq_exec.check} (shm's inside its executor): the
    oracle runs once per problem, and a later run whose grid digest
    equals the oracle's reports [0.] without rerunning it (any other run
    reruns it and reports its exact difference).
    [check] is passed to {!Tiles_runtime.Executor.run} or
    {!Tiles_runtime.Shm_executor.run}.

    The run writes its whole timeline to one recorder of this function's
    own, on the backend's clock (the simulator stamps virtual time
    itself; shm reads the monotonic wall clock), keeping what [keep]
    (default [Counters]) says; the result's spans, edges, longest waits
    and stats are read from it. *)
