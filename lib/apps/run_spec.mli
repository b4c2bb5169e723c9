(** One run, described once: the paper's compiler input (a nest, a
    tiling and a mapping dimension, named by app, sizes, variant and tile
    factors) plus the execution knobs. The CLI's spec term, the serve
    job codec and plan-cache key, the exported {!Tiles_obs.Runmeta} (and
    through it the perf baseline file name) and the bench harness all
    derive from it, so a new knob is a field here plus one CLI term. The
    process count is not a field: it follows from the plan. *)

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
(** {!Registry.resolve} on the spec's naming fields. *)

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
