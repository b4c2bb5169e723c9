(** Causal critical-path extraction over a traced run.

    Replays the event DAG formed by per-rank program order (spans) and
    cross-rank message dependencies ({!Recorder.edge}) and walks the
    true critical path backward from the completion instant. The
    returned segments tile [0, completion] in time while hopping
    between ranks, so on a well-formed trace their durations sum to the
    makespan — unlike [max_rank_busy], which ignores causality. *)

type seg_kind =
  | Activity of Span.kind  (** on-path span time on some rank *)
  | Flight  (** a message in transit between two ranks (wire + latency) *)
  | Queue
      (** the part of a flight spent queued in NIC lanes or the shared
          uplink under a contended {!Tiles_mpisim}-style network model
          (taken from [edge.e_queued]; never emitted when it is 0) *)
  | Idle  (** on-path gap: the critical rank had nothing recorded *)

type segment = {
  sg_rank : int;  (** for [Flight], the receiving rank *)
  sg_t0 : float;
  sg_t1 : float;
  sg_kind : seg_kind;
  sg_phase : int option;
      (** tag (time-step phase) of the last message edge crossed at or
          after this segment; [None] before any edge is crossed *)
}

type report = {
  nprocs : int;
  completion : float;
  segments : segment list;  (** chronological *)
  path_length : float;  (** sum of segment durations *)
  coverage : float;  (** [path_length / completion]; 1.0 on clean traces *)
  kind_seconds : (string * float) list;
      (** on-path seconds per segment kind: the five span kinds plus
          ["flight"], ["nic-queue"] and ["idle"] *)
  rank_on_path : float array;  (** per-rank on-path occupancy (no flight) *)
  phase_seconds : (int option * float) list;
  phase_queue_seconds : (int option * float) list;
      (** the ["nic-queue"] share of each phase's on-path seconds —
          where network contention actually lands on the critical path *)
  edges_crossed : int;
  max_rank_busy : float;  (** the old busy-time lower bound, for compare *)
  imbalance : float;
      (** [(max_busy - mean_busy) / max_busy]; 0 = perfectly balanced *)
  slack : float array;
      (** per-rank CPM slack: how much the rank could slow without
          moving the makespan *)
}

val seg_duration : segment -> float

val analyze :
  ?eps:float ->
  ?completion:float ->
  nprocs:int ->
  edges:Recorder.edge list ->
  Span.t list ->
  report
(** [eps] (default 1e-9) is the stamp-matching tolerance; virtual-time
    traces match exactly, wall-clock traces reuse the recorder's span
    stamps so they also match exactly. [completion] defaults to the
    latest span end / edge ready stamp. *)

val laggards : ?k:int -> report -> (int * float) list
(** Top-[k] (default 5) ranks by on-path occupancy, largest first;
    ranks with zero on-path time are omitted. *)

val to_json : ?segments:bool -> ?per_rank:bool -> report -> Tiles_util.Json.t
(** [segments] (default true) controls whether the full segment list is
    embedded; [per_rank] (default true) the O(nprocs) [rank_on_path_s]
    and [slack_s] arrays — the bench artifact drops both so committed
    reports stay table-sized at thousands of ranks (the top-k
    [laggards] summary is always present). *)

val summary : ?top:int -> report -> string
(** Human-readable breakdown: path vs completion, per-kind table,
    top-[top] laggards with their slack. *)
