(** Reproductions of the paper's conceptual diagrams as SVG.

    - {!tiled_space}: a 2-D iteration space partitioned by a tiling —
      iteration points coloured by owning tile, the two hyperplane
      families drawn through it (the geometry behind Fig. 1's left side).
    - {!ttis}: the Transformed Tile Iteration Space — the [v_11 × v_22]
      box with lattice points (dots) and holes, strides annotated
      (Fig. 1 right / Fig. 2).
    - {!lds}: one processor's Local Data Space — computation cells vs
      communication (halo) storage (Fig. 3).
    - {!timeline}: per-rank activity timeline from any span list
      (simulated or wall-clock) — not in the paper, but the picture its
      schedule analysis is about. Its spans come from the
      {!Tiles_obs.Recorder} a traced run wrote to
      ([Tiles_obs.Recorder.spans]). *)

val tiled_space : Tiles_poly.Polyhedron.t -> Tiles_core.Tiling.t -> Svg.t
(** 2-D spaces only; raises [Invalid_argument] otherwise. *)

val ttis : Tiles_core.Tiling.t -> Svg.t
(** 2-D tilings only. *)

val lds :
  Tiles_core.Tiling.t -> Tiles_core.Comm.t -> ntiles:int -> Svg.t
(** 2-D tilings only: halo cells shaded, computation cells white, one
    column group per chain tile. *)

val timeline :
  ?title:string ->
  ?path:Tiles_obs.Critpath.segment list ->
  nprocs:int ->
  completion:float ->
  Tiles_obs.Span.t list ->
  Svg.t
(** One row per rank, spans coloured by kind (compute green, pack
    purple, send orange, wait grey, unpack blue) with a legend. Works
    for both simulator and shared-memory traces; raises
    [Invalid_argument] on an empty span list or non-positive
    [completion].

    [path] (default none) overlays a causal critical path
    ({!Tiles_obs.Critpath.analyze}): on-rank segments are outlined in
    red on their rank's row, message flights drawn as dashed diagonal
    hops from the sender's row to the receiver's, and a legend entry is
    added. *)
