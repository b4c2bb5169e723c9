(** Real shared-memory execution of a plan on OCaml 5 domains.

    The paper's abstract machine is message passing over NUMA; this
    backend instantiates the {e same} per-tile protocol ({!Protocol})
    on the {e same} fiber scheduler as the simulator
    ({!Tiles_mpisim.Sched}), with in-memory payloads instead of virtual
    time — so the compiled schedule actually runs in parallel on the
    host's cores and its output is checked against the sequential
    oracle like everything else, through {!Seq_exec.check}'s digest
    memo. Ranks are a logical decomposition: the
    scheduler runs a run's fibers on a pool of [min nprocs
    (Domain.recommended_domain_count ())] domains, the calling one
    included, so any number of ranks runs on any host. Wall-clock
    speedup is measured but depends on the host; correctness is the
    point.

    Two schedules are available. The default is the paper's blocking
    receive → compute → send loop. With [~overlap:true] each rank runs
    {!Protocol.rank_program}'s §5 overlapped schedule: every receive of
    a tile is posted before any slab is unpacked, and outgoing slabs
    leave right after the tile's computation. A send on this transport
    is a hand-off that never blocks, so both schedules send the same
    way. The message set and per-channel order are identical either
    way, so both schedules (and both backends) report the same
    message/byte counters.

    Every run writes to a {!Tiles_obs.Recorder}, the run's one record
    of its timeline: message/byte counters are always on, each rank
    stamps its finish, and a tracing recorder also gets wall-clock
    {!Tiles_obs.Span.t} values in the same compute/pack/send/wait/unpack
    vocabulary as the simulator, so the two backends' traces (and the
    {!Tiles_obs.Stats} built from them) are directly comparable. A Wait
    span also counts the time a woken rank waits for a free domain. *)

type result = {
  wall_seconds : float;
      (** parallel wall-clock time: the latest rank finish *)
  seq_wall_seconds : float;
      (** the sequential oracle's wall-clock time, from
          {!Seq_exec.check}: timed by this call when the oracle ran, or
          else the memo's time, taken when the oracle last really ran for
          this problem (a kernel without IR times its own oracle run on
          every call) *)
  wall_speedup : float;
      (** [seq_wall_seconds /. wall_seconds] ([0.] if [wall_seconds] is
          not positive, so it is always finite) *)
  grid : Grid.t;              (** the parallel result *)
  max_abs_err : float;
      (** vs the sequential oracle, from {!Seq_exec.check}: [0.] when
          the grid's digest equals the memo's oracle digest, else the
          oracle runs and this is its exact difference *)
  nprocs : int;
  messages : int;
  bytes : int;                (** total payload bytes sent *)
  points_computed : int;      (** total iterations executed across ranks *)
  tiles_executed : int;
  walker_fallback : string option;
      (** why a [Native] walker ran the OCaml fast path
          ({!Protocol.shared}'s [fallback]) *)
}

val run_program :
  ?recorder:Tiles_obs.Recorder.t ->
  nprocs:int ->
  (Protocol.comms -> int -> unit) ->
  unit
(** [run_program ~nprocs program] runs [program comms rank] for every
    rank as a fiber of {!Tiles_mpisim.Sched.run} on the domain pool: the
    shared-memory counterpart of {!Tiles_mpisim.Sim.run}, which takes
    the same program; {!run} is built on it. A send never blocks; a
    receive parks its fiber until the matching [(src, dst, tag)]
    message arrives, and each channel is FIFO. The cost hooks close the
    wall-clock interval since the rank's previous event as a span of
    their kind. [recorder] (matching [nprocs]; default a [Counters] one)
    is {!Tiles_obs.Recorder.restart}ed as the ranks start and gets every
    message, span and rank finish.

    A deadlock or a rank's exception stops the run as in
    {!Tiles_mpisim.Sched.run}: {!Tiles_mpisim.Sim.Deadlock} names every
    blocked [(rank, src, tag)] at once, every unfinished fiber is
    unwound, and the exception is re-raised. Raises [Invalid_argument]
    for [nprocs <= 0] or a mismatched recorder. *)

val run :
  ?walker:Walker.variant ->
  ?check:bool ->
  ?recorder:Tiles_obs.Recorder.t ->
  ?overlap:bool ->
  plan:Tiles_core.Plan.t ->
  kernel:Kernel.t ->
  unit ->
  result
(** Always Full mode (the whole point is the real data flow), on
    {!run_program}, whose [recorder] this is. [walker]/[check] select the
    tile-execution engine and its NaN-read validation exactly as in
    {!Protocol.prepare}. [overlap] (default false) runs the §5
    overlapped schedule: receives pre-posted per tile
    ({!Protocol.rank_program}); sends are the same hand-off as in the
    blocking schedule. [wall_seconds] is the latest rank finish on the
    recorder's clock, the completion its spans count towards. Raises
    like {!run_program} and {!Protocol.prepare}. *)
