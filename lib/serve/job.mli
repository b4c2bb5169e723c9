(** One request of the daemon's line-delimited JSON protocol.

    A request line is a JSON object naming an operation and a
    configuration:

    {v
{"id":"j1","op":"simulate","app":"sor","size1":12,"size2":16,
 "variant":"nonrect","tile":[3,4,4],"priority":5}
    v}

    Operations: [plan] (compile and summarize the plan), [simulate]
    (timing-mode discrete-event run; deterministic), [execute] (full
    data movement, verified against the sequential oracle; [backend]
    may be ["sim"] or ["shm"]), [tune] (a small autotuning search).
    The control operations [metrics] and [shutdown] are handled by the
    server before {!of_json} and carry no configuration.

    The configuration fields are {!Tiles_apps.Run_spec}'s JSON codec, with
    the CLI's defaults: sizes 24/32, variant [nonrect], tile [(6,8,8)],
    walker [fast], blocking sends. The job adds priority (default 10;
    {e lower} is served sooner) and, for [tune], the processor budget
    [procs] (default 4) and the factor sweep [factors] (default
    [[2,3,4]]). *)

type op = Plan | Simulate | Execute | Tune

val op_to_string : op -> string
val op_of_string : string -> op option

type t = {
  id : string;  (** echoed in the response; "" until the server assigns *)
  op : op;
  spec : Tiles_apps.Run_spec.t;
      (** the run; backend [Shm] only with [execute]. Its [net] is the
          daemon's, whatever the job was built with. *)
  priority : float;
  procs : int;  (** tune: processor budget *)
  factors : int list;  (** tune: mapped-dimension factor sweep *)
}

val of_json : Tiles_util.Json.t -> (t, string) result
(** Validates operation, backend and walker names, field types and a
    tune job's search parameters ([procs >= 1]; [factors] non-empty, each
    [>= 1]); [Error] is a one-line reason suitable for a rejection
    response. Cross-field validity (unknown app/variant, illegal tiling)
    is the {!Tiles_apps.Registry}'s job. *)

val to_json : t -> Tiles_util.Json.t
(** Request rendering; parses back to an equal record. *)
