(** The tilec compile service: admission, coalescing, caching,
    execution, metrics — behind a line-delimited JSON protocol.

    One {!t} is a persistent multi-tenant daemon. Requests ({!Job})
    flow through:

    + {b resolution} — the {!Tiles_apps.Registry} validates the configuration up
      front; malformed requests get an [error] response without
      touching the queue;
    + {b coalescing} — a request identical (same content-addressed key,
      same operation and parameters) to one already queued or executing
      becomes a {e follower} of that in-flight job: no queue slot, no
      second compile; when the leader completes, the result fans out to
      every follower (bit-identical payload, per-follower id and
      latency);
    + {b admission} — the bounded priority {!Admission} queue either
      accepts or answers [rejected] with a structured reason
      (backpressure as a reply, never a hang);
    + {b execution} — the sharded {!Pool} of worker domains runs jobs
      against the {!Plan_cache} (one plan compile amortized over every
      request naming the same configuration) and the deterministic
      simulator / real shm backend;
    + {b observation} — every response carries [queued_s] / [service_s]
      and embedded {!Tiles_obs.Runmeta} (with [job_id] and [queued_s])
      where a run happened; {!metrics_json} aggregates queue depth,
      admission rejects, cache hit/miss/evictions, coalesce counts,
      per-shard load and per-class p50/p99 latency.

    Responses are JSON objects: [{"id", "status": "ok" | "error" |
    "rejected", …}]. The protocol front-ends ({!serve_channels} for
    stdin/stdout, {!serve_socket} for a Unix socket) frame one request
    and one response per line ({!Tiles_util.Json.to_line}). *)

type config = {
  capacity : int;  (** admission queue slots *)
  workers : int;  (** pool shards; [0] = no pool, drive with {!step} *)
  plan_cache_capacity : int;  (** compiled plans retained (LRU) *)
  tune_cache_dir : string option;  (** shared on-disk tune score memo *)
  net : Tiles_mpisim.Netmodel.t;
}

val default_config : config
(** Capacity 64, half the recommended domains as workers (min 1, max
    4), 128 cached plans, no tune cache, the paper's fast-Ethernet
    model. *)

type t

val create : ?config:config -> unit -> t
(** Starts the worker pool unless [config.workers = 0]. *)

val submit : t -> respond:(Tiles_util.Json.t -> unit) -> Job.t -> unit
(** Programmatic entry (the load generator and tests). Exactly one
    response is eventually delivered to [respond]: [rejected]
    immediately on admission failure, [error] on resolution or
    execution failure, [ok] with the result otherwise. [respond] is
    called from a worker domain; it must be thread-safe. An empty
    [job.id] is replaced with a fresh ["job-N"]. *)

val handle_line :
  t -> respond:(Tiles_util.Json.t -> unit) -> string -> [ `Handled | `Shutdown ]
(** One protocol line: a parse failure or control op is answered
    synchronously ([metrics] snapshots, [shutdown] acknowledges and
    returns [`Shutdown] — the caller is expected to drain and stop);
    anything else is {!submit}ted. *)

val step : t -> bool
(** Pop one admitted job and execute it on the calling domain; [false]
    when the queue is empty. With [workers = 0] this is the only
    executor — deterministic, single-threaded serving for tests. *)

val drain : t -> unit
(** Block until every admitted job has completed (responses
    delivered). *)

val shutdown : t -> unit
(** Close admission (new submissions answered ["shutting_down"]),
    finish the already-admitted backlog — on the pool, or inline when
    [workers = 0] — and join the workers. Idempotent. *)

val metrics_json : t -> Tiles_util.Json.t
(** The aggregate snapshot: [queue] ({!Admission.stats}), [plan_cache]
    ({!Plan_cache.stats}), [pool], [coalesce] ([batched] total and
    current [in_flight] leaders), [jobs] and per-class [latency]
    ({!Metrics.snapshot_json}). *)

val serve_channels :
  ?config:config -> ?metrics_out:string -> in_channel -> out_channel -> unit
(** Serve line-delimited JSON until EOF or a [shutdown] request, then
    drain, stop, and emit a final [{"status":"ok","op":"shutdown",
    "metrics":…}] line. [metrics_out] additionally writes the final
    snapshot, indented, to a file. *)

val serve_socket :
  ?config:config -> ?metrics_out:string -> path:string -> unit -> unit
(** Like {!serve_channels} over a Unix domain socket at [path]
    (unlinked first if stale): every connection gets its own reader
    domain and response ordering, all sharing one server — the
    multi-tenant deployment. A [shutdown] from any connection stops
    accepting, drains and returns.

    Both front-ends set [SIGPIPE] to ignore on entry: a tenant that
    disconnects mid-response turns the dead write into a per-connection
    [EPIPE]/[Sys_error] (swallowed, ending only that session) instead
    of the signal's default disposition killing the whole daemon. *)
