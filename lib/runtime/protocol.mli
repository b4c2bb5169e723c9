(** The per-rank §3.2 execution protocol, factored out of any particular
    transport: RECEIVE (halo unpack) → compute the tile's clipped TTIS →
    SEND (aggregated clipped slabs). Every rank iterates the plan's
    {!Tiles_core.Count_table}, the one message schedule that the
    generated MPI program prints too. Both the discrete-event simulator
    backend ({!Executor}) and the real shared-memory backend
    ({!Shm_executor}) drive this same code, so the protocol logic is
    verified once and executed everywhere. *)

(** A message: the packed slab in [Full] mode, its length alone in
    [Timing] mode (which moves no data). *)
type payload = Tiles_mpisim.Sim.payload =
  | Data of Tiles_util.Fbuf.t
  | Length of int

val payload_length : payload -> int

(** Transport + cost hooks supplied by a backend: the one [comms] type,
    defined in [tiles_mpisim] ({!Tiles_mpisim.Sim.comms}) so that
    {!Tiles_mpisim.Sim.run} and {!Shm_executor.run_program} take the
    same [comms -> int -> unit] program.

    The three cost hooks are called {e after} the real work of the
    corresponding section, with the section's modelled cost: the
    simulator charges virtual time (and records a span of that kind);
    the shared-memory backend ignores the modelled cost and instead
    closes the wall-clock interval since its previous event under the
    same tag — so both backends partition every rank's timeline into the
    same compute / pack / send / wait / unpack vocabulary.

    Causal identity contract: [rank_program] issues sends and receives
    in a deterministic per-channel order that is identical in the
    blocking and overlapped schedules, and every transport used here
    delivers FIFO per (src, dst, tag). {!Tiles_obs.Recorder} therefore
    assigns per-channel sequence numbers independently on each side and
    the two numberings agree — this is what lets both backends record
    matched send→recv dependency edges (and {!Tiles_obs.Critpath}
    replay them) without the transports carrying explicit message
    ids. A transport that reorders messages within one (src, dst, tag)
    channel would break this contract. *)
type comms = Tiles_mpisim.Sim.comms = {
  send : dst:int -> tag:int -> payload -> unit;
  recv : src:int -> tag:int -> payload;
  compute : float -> unit;  (** tile-point arithmetic for one tile *)
  pack : float -> unit;  (** gathering one outgoing slab *)
  unpack : float -> unit;  (** scattering one received slab *)
}

type mode = Full | Timing

type slab_mismatch = {
  mm_rank : int;
  mm_stage : [ `Pack | `Unpack ];
  mm_dm : Tiles_util.Vec.t;  (** processor direction of the slab *)
  mm_ts : int;  (** [t^S] of the tile being packed/unpacked *)
  mm_expected : int;  (** cells the analytic slab count promised *)
  mm_actual : int;  (** cells the walker actually visited *)
}
(** A pack/unpack walked a different number of cells than the analytic
    slab count (or the received buffer) promised — a protocol bug or a
    corrupted message, never a user error. *)

exception Slab_mismatch of slab_mismatch

val slab_mismatch_to_string : slab_mismatch -> string

type shared = {
  plan : Tiles_core.Plan.t;
  kernel : Kernel.t;
  mode : mode;
  walker : Walker.variant;
  check : bool;
  flop_time : float;
  pack_time : float;
  grid : Grid.t option;  (** shared result mirror (disjoint writes) *)
  counts : Tiles_core.Count_table.t;
      (** the plan's counts and schedule: [Timing] mode's tile points,
          and every mode's receives, send destinations and message
          sizes *)
  points_per_rank : int array;
  tiles_per_rank : int array;
  values : Tiles_util.Fbuf.t option;
      (** the fast walkers' boundary values ({!Walker.boundary_values}),
          forced before any rank runs; [None] for [Reference] and in
          [Timing] mode *)
  coefs : Kernel.coefs option;
      (** the fast walkers' static-let table ({!Walker.coefs}), forced
          and [None] like [values] *)
  native : Native_kernel.fn option;
      (** the [Native] walker's row ({!Walker.native_row}), built once
          and shared by every rank; [None] for other walkers, in
          [Timing] mode, which runs no walker, and on a fallback *)
  fallback : string option;
      (** why a [Native] run executes the OCaml fast path: the error of
          {!Walker.native_row}, known before any rank runs *)
}

val prepare :
  ?walker:Walker.variant ->
  ?check:bool ->
  mode:mode ->
  plan:Tiles_core.Plan.t ->
  kernel:Kernel.t ->
  flop_time:float ->
  pack_time:float ->
  unit ->
  shared
(** Validates the kernel against the plan and allocates the shared
    state. Raises [Invalid_argument] on mismatch.

    [?walker] (default {!Walker.Fastpath}) selects the tile-execution
    engine; [?check] (default false) makes the fast walkers validate
    every LDS read against NaN poisoning like the reference walker
    does. A [Native] walker in [Full] mode has its row built (or its
    fallback reason found) here, once for all ranks; the fast walkers'
    row table, boundary values and static-let table are forced here
    too. *)

val rank_program : ?overlap:bool -> shared -> comms -> int -> unit
(** Execute one rank's whole tile chain. In [Full] mode each tile's
    computed rows are copied into [grid] as they are computed
    ({!Walker.compute_tile}), inside the tile's compute section: there is
    no write-back pass after the chain. Thread-safe across ranks: all
    shared writes are rank-disjoint. In [Full] mode the rank's LDS is
    borrowed all-NaN from {!Lds_pool} (scanned first under [check]) and
    given back with every cell it wrote reset to NaN once its chain is
    done; a rank that raises gives nothing back.

    With [~overlap:true] the rank runs the paper's §5 overlapped
    schedule: every receive the count table lists for a tile is
    pre-posted before any slab is scattered into the LDS, and outgoing
    slabs are packed and handed to [comms.send] immediately after the
    tile's computation — a backend whose [send] is asynchronous (the
    simulator's overlapped send) then overlaps the transfer with the next tile's
    computation; the shared-memory backend's hand-off to the receiver
    never blocks in either schedule. Both schedules read the same table, so the
    message set, tags and per-channel order are identical and counters
    agree exactly with the blocking run. *)
