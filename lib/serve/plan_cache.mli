(** Content-addressed in-memory cache of compiled plans.

    Mapple's thesis made concrete: a mapping decision — here the full
    {!Tiles_core.Plan.t}, with its Hermite-normal-form factorization,
    tile-space bounds and processor assignment — is a first-class,
    reusable artifact, not something recomputed per request. The daemon
    keys plans exactly like [Tune.Cache] v4 keys scores (nest, tiling,
    mapping dimension, kernel, network model, overlap, backend) plus
    the walker variant, so a million small queries
    against the same configuration amortize one compile.

    Bounded LRU: at most [capacity] plans are retained; inserting into a
    full cache evicts the least-recently-used entry. Hits, misses,
    evictions and compiles are counted for the metrics snapshot.

    Thread-safety: lookups and insertions are mutex-protected; the
    compile itself runs {e outside} the lock so distinct keys compile
    concurrently. Two jobs racing on the same key can both compile —
    the server's request coalescing makes that impossible for identical
    requests, and harmless (plan compilation is deterministic)
    otherwise. *)

type t

val create : capacity:int -> t
(** Raises [Invalid_argument] unless [capacity >= 1]. *)

val key :
  resolved:Tiles_apps.Registry.resolved -> Tiles_apps.Run_spec.t -> string
(** The [Tune.Cache] v4 digest of the resolved configuration under the
    spec's network model, overlap flag and backend, extended with
    ["-"] and the spec's walker name. *)

val find_or_compile :
  t -> key:string -> (unit -> Tiles_core.Plan.t) ->
  Tiles_core.Plan.t * [ `Hit | `Miss ]
(** On [`Miss] the thunk ran (outside the lock) and the result was
    inserted, evicting the LRU entry if the cache was full. Eviction is
    deterministic: the victim is the minimum (last-use, key) pair, with
    the key breaking age ties — never hash-table iteration order. *)

val set_last_use_for_testing : t -> key:string -> age:int -> unit
(** Overwrite an entry's last-use tick. Production ticks are unique, so
    this exists only for tests that manufacture equal-age entries to
    exercise the eviction tie-break. Raises [Invalid_argument] on an
    unknown key. *)

type stats = {
  capacity : int;
  size : int;
  hits : int;
  misses : int;
  evictions : int;
  compiles : int;  (** thunk executions; equals misses unless two
                       distinct-op jobs raced on one key *)
}

val stats : t -> stats

val stats_json : stats -> Tiles_util.Json.t
