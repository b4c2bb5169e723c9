(** Computation distribution (§3.1).

    All tiles along the mapping dimension [m] — by default the one with
    the maximum trip count, following the UET-UCT optimality result the
    paper cites (ref [3]) — are executed by the same processor; the other
    [n−1] tile coordinates form the processor id [pid]. Tiles of one
    processor run in increasing [j^S_m] order ([t^S] in the paper), which
    together with the lexicographic [Foracross] order realises the linear
    schedule [Π = (1, …, 1)].

    Internally tiles are handled in {e schedule order}: the [n−1] pid
    coordinates first, [t^S] last (the loop-permutation step of §3.1; legal
    because tile dependencies are lexicographically positive). *)

type t = private {
  tspace : Tile_space.t;
  m : int;  (** mapping dimension (0-indexed in [j^S]) *)
  pids : Tiles_util.Vec.t array;  (** sorted, one per processor *)
  chains : (int * int) array;     (** per processor: [t^S] range (inclusive) *)
}

val make : ?m:int -> Tile_space.t -> t
(** [?m] overrides the mapping-dimension choice (for ablations). *)

val nprocs : t -> int
val rank_of_pid : t -> Tiles_util.Vec.t -> int option
val pid_of_rank : t -> int -> Tiles_util.Vec.t
val chain : t -> int -> int * int
(** [chain t rank] — the inclusive [t^S] range of this processor. *)

val tiles_of_rank : t -> int -> Tiles_util.Vec.t list
(** Tiles of one processor in execution order (schedule coordinates
    converted back to [j^S]). *)

val split : t -> Tiles_util.Vec.t -> Tiles_util.Vec.t * int
(** [j^S → (pid, t^S)]. *)

val join : t -> pid:Tiles_util.Vec.t -> ts:int -> Tiles_util.Vec.t
(** [(pid, t^S) → j^S]. *)

val valid : t -> pid:Tiles_util.Vec.t -> ts:int -> bool
(** The paper's [valid()] — is [(pid, t^S)] a candidate tile? *)

val max_trip_dim : Tile_space.t -> int
(** The default mapping dimension: argmax of trip count, the width of
    the tile polyhedron's bounding box (ties broken by the smaller
    index). The box takes [n] more eliminations over the tile
    polyhedron, paid only by a {!make} without [~m]. *)
