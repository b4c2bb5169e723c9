(** Aggregate statistics of one run, computed from its
    {!Recorder} — the machine-readable summary embedded in
    [bench --json] and printed by [tilec trace]. The same record is
    produced from simulated (virtual-time) and real (wall-time) runs, so
    the two backends can be compared field by field. *)

type rank = {
  rank : int;
  compute : float;
  pack : float;
  send : float;
  wait : float;
  unpack : float;
  busy : float;  (** compute + pack + send + unpack *)
  busy_fraction : float;  (** busy / completion (0 when untraced) *)
  messages : int;  (** messages sent by this rank *)
  bytes : int;  (** bytes sent by this rank *)
}

type t = {
  nprocs : int;
  completion : float;  (** makespan, seconds (virtual or wall) *)
  ranks : rank array;
  messages : int;
  bytes : int;
  max_inflight_bytes : int;
  total_compute : float;
  total_comm : float;  (** pack + send + wait + unpack over all ranks *)
  comm_compute_ratio : float;  (** total_comm / total_compute (0 if none) *)
  mean_busy_fraction : float;
  max_rank_busy : float;
      (** lower bound on any schedule's makespan: the largest per-rank
          busy time (no reordering can finish before its busiest rank).
          This was misleadingly called [critical_path] before message
          edges existed. *)
  critical_path : float;
      (** the true causal critical path through the message-dependency
          DAG (see {!Critpath}); 0 when the run carried no edges to
          compute it from *)
  queue_seconds : float;
      (** total seconds of NIC-lane / shared-uplink queueing charged by
          a contended network model (see {!Tiles_mpisim.Netmodel});
          always 0 under alpha-beta and on real (shm) runs *)
}

val of_recorder : completion:float -> ?critical_path:float -> Recorder.t -> t
(** The run's aggregate, read off the recorder that timed it: per-rank
    per-kind seconds from {!Recorder.kind_seconds} (all zero when the
    recorder did not trace), message, byte, in-flight and NIC-queueing
    counters from its counters. [completion] is the run's makespan on
    the backend's clock; [critical_path] (default 0) is the causal value
    from {!Critpath}, when the caller kept edges to compute it from. *)

val to_json : t -> Tiles_util.Json.t

(** {2 Distributions over repeated runs}

    A single run yields scalars; the perf observatory re-runs a config
    N times (after a warmup) and folds every timed field into a
    {!Metric}, so baselines and bench artifacts carry noise bounds. *)

val timed_fields : t -> (string * float) list
(** The run's timed scalar fields, keyed as in {!to_json}
    ([completion_s], [total_compute_s], [total_comm_s],
    [comm_compute_ratio], [mean_busy_fraction], [max_rank_busy_s],
    [critical_path_s], plus [nic_queue_s] only when a contended model
    charged queueing — alpha-beta runs keep the historical seven). *)

type dist = (string * Metric.summary) list
(** Per-field distributions, same keys as {!timed_fields}. *)

val distributions : ?warmup:int -> t list -> dist
(** Fold the timed fields of the runs after dropping the first [warmup]
    (default 0). Raises [Invalid_argument] if nothing remains. *)

val dist_to_json : dist -> Tiles_util.Json.t

val dist_of_json : Tiles_util.Json.t -> (dist, string) result

val summary : ?dist:dist -> t -> string
(** Multi-line human-readable rendering (per-rank table + totals).
    With [dist], a mean/stddev/p50/p99 table of the repeated-run
    distributions is included; single-run output is unchanged. *)
