(** Content-addressed on-disk memo of exact simulator scores.

    A score is keyed by everything that determines the (deterministic)
    discrete-event result: the nest (space constraints + dependencies),
    the tiling matrix [H], the mapping dimension, the kernel's identity
    (name, width, read offsets), the network model's exact parameters
    {e including its contention variant} (lane counts and uplink cap
    land in the digest, so [--net contended:...] scores never alias the
    alpha-beta ones), the overlap flag and the backend name. Shared-memory scores are
    wall-clock and therefore noisy, but caching them is still what the
    user asked for: a tune resumed in the same directory re-ranks the
    same measurements instead of paying for fresh ones. Keys are MD5 digests of a canonical rendering;
    values are [Marshal]ed {!score} records written atomically
    (temp-file + rename), so concurrent tunes sharing a directory are
    safe and a cache hit returns bit-identical floats. A corrupt or
    truncated entry reads as a miss. *)

type score = {
  completion : float;  (** simulated parallel time, seconds *)
  speedup : float;
  messages : int;
  bytes : int;
  points_computed : int;
  tiles_executed : int;
}

type t

val open_dir : string -> t
(** Create the directory if needed (tolerating a concurrent creator's
    EEXIST). Raises [Sys_error] if the path exists and is not a
    directory. *)

val dir : t -> string

val key :
  nest:Tiles_loop.Nest.t ->
  tiling:Tiles_core.Tiling.t ->
  m:int ->
  kernel:Tiles_runtime.Kernel.t ->
  net:Tiles_mpisim.Netmodel.t ->
  overlap:bool ->
  backend:string ->
  string

val find : t -> string -> score option
(** [None] on a missing, truncated, corrupt or stale-schema entry — a
    crashed or concurrent writer can never turn a lookup into an
    exception. *)

val store : t -> string -> score -> unit
(** Write-to-temp + atomic rename; the temp name is unique per writer
    ({e pid} + per-process counter), so concurrent stores from many
    domains or processes sharing the directory are safe — last writer
    wins with a complete entry. *)
