(** Discrete-event simulated message-passing cluster.

    Each rank runs as a fiber of the shared scheduler ({!Sched}), on the
    calling domain only, with its own virtual clock. Ranks interact only
    through messages, so the simulation needs no preemption: a fiber
    runs until it blocks on a receive whose message has not been
    produced yet, sends wake blocked receivers, and the virtual
    completion time is the maximum clock at exit. Matching is FIFO per
    (source, destination, tag) channel — the semantics of a blocking
    MPI_Recv with an eager, buffered MPI_Send, which is how the paper's
    generated code communicates. There is no barrier.

    Virtual time is a {!comms} built over the scheduler: each send,
    receive and cost hook does its clock arithmetic as a plain call, and
    only a receive that finds nothing queued parks its fiber. The
    simulation is deterministic: rank programs are pure functions of
    their inputs and message contents, and on one domain the run order
    is fixed.

    Network contention: under {!Netmodel.Alpha_beta} every concurrent
    transfer gets the full wire bandwidth (infinite-capacity NICs).
    Under {!Netmodel.Contended} each rank owns a bounded set of
    send-side and receive-side NIC lanes with busy-until stamps —
    transfers serialise FIFO through the earliest-free lane, optionally
    through a single shared uplink — and every second of queueing is
    charged explicitly: to the sender's timeline (a [Wait] span) when a
    blocking send stalls for a lane, and to the message's flight
    ([edge.e_queued], plus the per-rank queue counters) when an
    overlapped send's DMA, the uplink, or the receive NIC delays
    delivery. Lane reservations happen in simulator execution order,
    which depends only on program control flow — never on the timing
    parameters — so the contended schedule is deterministic and
    completion is monotone under bandwidth drops or lane removal, and
    with enough lanes and no uplink cap it is bit-identical to
    [Alpha_beta].

    Traced spans use the observability layer's shared vocabulary
    ({!Tiles_obs.Span}) and go to a {!Tiles_obs.Recorder}, the same
    record a real {!Tiles_runtime.Shm_executor} run writes, so both
    timelines feed the same exporters and the same {!Tiles_obs.Stats}. *)

(** One traced activity interval on a rank's virtual timeline (an alias
    of {!Tiles_obs.Span.t}; times are virtual seconds). *)
type span = Tiles_obs.Span.t = {
  rank : int;
  t0 : float;
  t1 : float;
  kind : Tiles_obs.Span.kind;
}

type stats = {
  completion : float;  (** virtual time at which the last rank finished *)
  rank_clocks : float array;
  messages : int;
  bytes : int;
}
(** The run's virtual-time outcome. Everything else it produced — spans,
    message edges, per-rank counters, NIC queueing — is in the
    {!Tiles_obs.Recorder} it wrote to. *)

exception Deadlock of string
(** {!Sched.Deadlock}: raised when every unfinished rank is blocked on
    a receive that can never be satisfied, by {!run} and by the
    shared-memory backend's runner alike. The message lists the blocked
    receives; [Printexc.to_string] prints it after ["deadlock: "]. *)

(** A message body: real data, or only its length. [Length n] moves no
    data but costs the same [8·n] bytes on the wire as [n] floats — what
    a run that models time without computing values sends. *)
type payload = Data of Tiles_util.Fbuf.t | Length of int

val payload_length : payload -> int
(** Floats carried (or stood for): [Fbuf.length] of [Data], [n] of
    [Length n]. *)

(** A rank's transport and cost hooks: what a rank program of either
    backend is given. Here each call charges virtual time:
    - [send] is the eager buffered send of [8·payload_length] bytes: it
      charges the sender overhead + wire time, then returns; the message
      becomes available to [dst] one latency later. Under [~overlap] it
      is the non-blocking send instead: the sender pays only the CPU
      overhead and the wire runs concurrently with whatever it does
      next, so the message arrives at [now + overhead + wire + latency]
      (the DMA/NIC-driven transfers of the paper's future-work
      reference [8]). [Data] is copied, so the sender may reuse its
      buffer.
    - [recv] blocks until the matching message arrives; the clock
      advances to [max own-clock arrival + recv_overhead]. Only the
      genuinely blocked interval (own clock → arrival) is traced as
      [Wait]; the receive overhead is traced as [Unpack], so a message
      that was already buffered records no wait time.
    - [compute], [pack] and [unpack] advance the rank's clock by their
      argument in seconds, traced as a span of that kind. *)
type comms = {
  send : dst:int -> tag:int -> payload -> unit;
  recv : src:int -> tag:int -> payload;
  compute : float -> unit;  (** tile-point arithmetic for one tile *)
  pack : float -> unit;  (** gathering one outgoing slab *)
  unpack : float -> unit;  (** scattering one received slab *)
}

val run :
  ?recorder:Tiles_obs.Recorder.t ->
  ?overlap:bool ->
  nprocs:int ->
  net:Netmodel.t ->
  (comms -> int -> unit) ->
  stats
(** [run ~nprocs ~net program] executes [program comms rank] on every
    rank and returns the virtual-time outcome. [overlap] (default false)
    makes [comms.send] the non-blocking send. Raises [Deadlock] on a
    stuck communication pattern, and re-raises any exception escaping a
    rank program; either way every unfinished rank is unwound first
    ({!Sched.run}).

    Every counter, span and message edge goes to [recorder]. Pass one
    to keep them: it must read virtual time (be created with a clock
    that always reads 0 — the simulator stamps every span itself) and
    match [nprocs]. A [Timeline] recorder keeps the spans and the
    send→recv edges; a [Totals] one keeps a traced run at O(nprocs)
    memory. Without one, the run writes to a [Counters] recorder of its
    own. *)
