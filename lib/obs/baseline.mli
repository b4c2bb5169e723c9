(** Persistent performance baselines with a noise-aware regression gate.

    A baseline freezes one run configuration's observed behaviour: the
    run metadata ({!Runmeta.t}), the deterministic protocol counters
    (messages, bytes, max in-flight bytes) and the distribution of every
    timed field over N repeats ({!Stats.dist}). Baselines are committed
    to the repository ([perf/baselines/*.json]) and compared in CI by
    [tilec perf --check]: the build fails when a timed field regresses
    beyond both a relative threshold {e and} k·stddev of the recorded
    noise, or when any exact counter changes at all (the simulator is
    deterministic, so a counter drift is a protocol change, not noise). *)

val schema_version : int
(** Current schema = 1. {!load} refuses newer schemas with an error
    rather than misreading them. *)

type counters = {
  messages : int;
  bytes : int;
  max_inflight_bytes : int;
}

type t = {
  schema : int;
  meta : Runmeta.t;
  counters : counters;
  timings : Stats.dist;
}

val make : meta:Runmeta.t -> stats:Stats.t -> timings:Stats.dist -> t
(** Counters are taken from [stats]; [timings] from
    {!Stats.distributions} over the repeated runs. *)

val to_json : t -> Tiles_util.Json.t

val of_json : Tiles_util.Json.t -> (t, string) result

val save : t -> path:string -> unit

val load : path:string -> (t, string) result
(** Parse + decode; parse errors carry the file's line/column. *)

val default_path : dir:string -> meta:Runmeta.t -> string
(** [dir/<app>-<variant>-<backend>.json], with an [-overlap] suffix after
    the backend for overlapped runs — the layout the CI gate and the
    README document. A non-default network model id is appended too
    (sanitised to [[-a-zA-Z0-9]]), so e.g. a [--net contended:snd=2]
    baseline lives in its own file and [perf --check] never compares
    timings across network models (the metadata comparison rejects the
    pairing as well). *)

(** {2 Comparison} *)

type delta = {
  field : string;
  base_mean : float;
  cur_mean : float;
  rel : float;    (** (cur − base) / base *)
  noise : float;  (** k·max(base.stddev, cur.stddev) — the tolerance *)
}

type verdict = {
  meta_mismatch : string list;
      (** differing metadata fields — comparing apples to oranges fails *)
  counter_mismatch : (string * int * int) list;  (** field, base, cur *)
  regressions : delta list;   (** slower beyond threshold and noise *)
  improvements : delta list;  (** faster beyond threshold and noise *)
  checked : int;              (** timed fields compared *)
  ok : bool;  (** no meta/counter mismatch and no regression *)
}

val compare :
  ?rel_threshold:float ->
  ?k_sigma:float ->
  ?exact:string list ->
  baseline:t ->
  t ->
  verdict
(** A timed field regresses when [cur.mean > base.mean] by more than
    [rel_threshold] (default 0.05) relatively {e and} by more than
    [k_sigma] (default 3) × the larger stddev absolutely — so
    deterministic runs gate on the threshold alone while noisy runs
    get slack proportional to their recorded spread. [exact] names the
    counters that must match with zero tolerance (default all three;
    pass [["messages"; "bytes"]] for wall-clock backends whose
    in-flight high-water mark depends on thread interleaving). *)

val report : verdict -> string
(** One line per finding, then PASS/FAIL. *)

val verdict_to_json : verdict -> Tiles_util.Json.t
