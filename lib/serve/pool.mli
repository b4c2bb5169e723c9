(** The daemon's shared worker pool: a fixed shard of OCaml 5 domains
    executing admitted jobs.

    Concurrency discipline: the pool is the {e only} source of job
    parallelism, so total domain count stays bounded regardless of how
    many requests are in flight — concurrent simulate/tune jobs cannot
    oversubscribe the host's cores the way per-request spawning would.
    Each shard pulls from the shared admission queue (work-conserving:
    an idle shard takes the next job regardless of which shard served
    that configuration before) and counts the jobs it executed, so the
    metrics snapshot shows the load spread across shards. *)

type t

val start :
  shards:int -> pull:(unit -> 'a option) -> exec:('a -> unit) -> t
(** Spawn [shards] domains; each loops [pull () -> exec] until [pull]
    returns [None]. [exec] exceptions are swallowed (the server's
    executor converts job failures into error responses before they
    reach the pool). Raises [Invalid_argument] unless [shards >= 1]. *)

val join : t -> unit
(** Wait for every shard to exit (i.e. for [pull] to return [None] in
    each — close the queue first). Idempotent. *)

type stats = {
  shards : int;
  executed : int list;  (** jobs completed, per shard *)
  busy : int;  (** shards currently inside [exec] *)
}

val stats : t -> stats

val stats_json : stats -> Tiles_util.Json.t
