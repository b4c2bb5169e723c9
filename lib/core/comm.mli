(** Communication structure (§3.2).

    From the transformed dependencies [D' = H'·D] we derive at compile
    time:
    - the communication vector [CC], [cc_k = v_kk − max_l d'_kl]: a TTIS
      point is a communication point along dimension [k] iff
      [j'_k >= cc_k];
    - the LDS halo offsets: [off_k = ⌈max_l d'_kl / c_k⌉] for [k ≠ m] and
      [off_m = v_mm / c_m];
    - the tile dependence matrix [D^S] (computed exactly, by sweeping the
      TTIS); every component must be 0 or 1 — i.e. the tile must be at
      least as large as the dependencies it cuts — otherwise construction
      fails with a clear error;
    - the processor dependencies [D^m] ([D^S] projected along [m], zero
      vector dropped) with, for each [d^m], the list of tile dependencies
      that generate it (the paper's [d^S(d^m)]). *)

type t = private {
  m : int;
  d' : Tiles_util.Vec.t list;
  max_d' : int array;
  cc : int array;
  off : int array;
  ds : Tiles_util.Vec.t list;                    (** [D^S], sorted *)
  dm : (Tiles_util.Vec.t * Tiles_util.Vec.t list) list;
      (** [(d^m, d^S(d^m))], non-zero [d^m] only, sorted; each
          [d^S(d^m)] in receive order: descending [d^S_m], ties
          lexicographic. The runtime protocol and the generated MPI code
          both receive a direction's tiles in this order. *)
}

val reach :
  Tiling.t -> Tiles_loop.Dependence.t -> Tiles_util.Vec.t list * int array
(** [reach tiling deps] is [(D', max_d')]: the transformed dependences
    [H'·D] and, per dimension [k], [max_l d'_kl]. It needs only the
    tiling and the dependences, so {!Plan.make} calls it before building
    the tile space. Raises [Invalid_argument] if the tiling is illegal
    for [deps] ([H·d < 0]) or a dependence reaches past a tile extent
    ([max_d'_k > v_k]: [D^S] components would exceed 1). *)

val make : Tiling.t -> Tiles_loop.Dependence.t -> m:int -> t
(** Raises like {!reach}, and on a bad mapping dimension [m]. *)

val dm_of_ds : t -> Tiles_util.Vec.t -> Tiles_util.Vec.t
(** The paper's [d^m(d^S)]: project a tile dependence along [m]. *)

val slab_lo : t -> dm:Tiles_util.Vec.t -> int array
(** Lower TTIS bounds of the pack/unpack slab for processor direction
    [dm]: [dm_k·cc_k] in the non-mapping dimensions, 0 along [m]. *)

val pp : Format.formatter -> t -> unit
