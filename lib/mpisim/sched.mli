(** The fiber scheduler both backends run their ranks on.

    Each rank is an effect-handler fiber. Ranks interact only through
    messages on FIFO channels keyed by [(src, dst, tag)]: a {!send}
    never blocks, and a {!recv} with nothing queued parks its fiber until
    a matching message lands. That is the transport contract of the
    paper's generated SPMD program: eager sends and a blocking, FIFO
    [MPI_Recv].

    Fibers run from one FIFO run queue. Ranks start in rank order, a
    send never yields, and a send to a parked receiver appends that
    receiver to the run queue. On one domain the run order is therefore
    a function of the programs' control flow alone, which is what makes
    the simulator deterministic; on several domains the queue is shared
    under one lock.

    The scheduler is polymorphic in the message: the simulator queues a
    payload with its virtual arrival time, the shared-memory backend the
    payload alone. *)

exception Deadlock of string
(** Raised by {!run} when every unfinished rank is blocked on a receive
    that can never be satisfied. The message lists the blocked receives
    as ["rank D waiting on (src=S, tag=T)"], sorted and joined by
    ["; "]; [Printexc.to_string] prints it after ["deadlock: "]. *)

type 'msg t
(** One run's scheduler: run queue, channels and parked receivers. *)

val send : 'msg t -> src:int -> dst:int -> tag:int -> 'msg -> unit
(** Queue a message on its channel; never blocks. A receiver parked on
    the channel goes to the back of the run queue. *)

val recv : 'msg t -> src:int -> dst:int -> tag:int -> 'msg
(** Take the oldest message of the channel, parking the calling fiber
    until one is queued. Only rank [dst] may call it, from its own
    fiber. *)

val run : domains:int -> nprocs:int -> ('msg t -> int -> unit) -> unit
(** [run ~domains ~nprocs body] runs [body sched rank] as a fiber for
    every rank on [domains] domains, the calling one included (a helper
    that fails to spawn only leaves fewer of them).

    When no fiber runs and none can be woken while ranks are
    unfinished, the run raises {!Deadlock} at once. The first exception
    a rank raises stops the run the same way. Either way the other
    ranks stop where they are, every unfinished fiber is unwound with
    [Exit] (its [Fun.protect] finalisers run), and the exception is
    re-raised. Raises [Invalid_argument] for [nprocs <= 0] or
    [domains <= 0]. *)
