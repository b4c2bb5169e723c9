module Span = Tiles_obs.Span
module Recorder = Tiles_obs.Recorder
module Fbuf = Tiles_util.Fbuf

type span = Span.t = {
  rank : int;
  t0 : float;
  t1 : float;
  kind : Span.kind;
}

type stats = {
  completion : float;
  rank_clocks : float array;
  messages : int;
  bytes : int;
}

exception Deadlock = Sched.Deadlock

type payload = Data of Fbuf.t | Length of int

let payload_length = function Data d -> Fbuf.length d | Length n -> n

type comms = {
  send : dst:int -> tag:int -> payload -> unit;
  recv : src:int -> tag:int -> payload;
  compute : float -> unit;
  pack : float -> unit;
  unpack : float -> unit;
}

(* the sender may reuse its buffer once the send returns *)
let detach = function Data d -> Data (Fbuf.copy d) | Length _ as p -> p

(* Contended-model network state: per-rank NIC lanes (busy-until stamps)
   and the optional shared uplink. Reservations happen in simulator
   execution order, which is fixed by the programs' control flow alone —
   never by the timing parameters — so every stamp is a monotone (max/+)
   function of the model's costs. That is what makes the contended model
   deterministic and completion monotone in bandwidth and lane count. *)
type nics = {
  snd_free : float array array;  (* [rank][lane] send-NIC busy-until *)
  rcv_free : float array array;  (* [rank][lane] recv-NIC busy-until *)
  mutable uplink_free : float;
  uplink : float option;  (* shared egress bytes/s, None = uncapped *)
}

type state = {
  nprocs : int;
  net : Netmodel.t;
  nics : nics option;  (* Some iff net.model is Contended *)
  clocks : float array;
  (* all counters, spans and message identity live in the shared
     recorder; the simulator feeds it explicit virtual timestamps *)
  logs : Recorder.log array;
}

(* a message on the scheduler's channels: (ready, nic-queueing seconds,
   payload) *)
type sched = (float * float * payload) Sched.t

(* Reserve the earliest-free lane for a transfer of [dur] seconds not
   starting before [at]; returns the transfer's start time. FIFO per
   NIC: reservations are granted in simulator order. *)
let reserve_lane lanes ~at ~dur =
  let best = ref 0 in
  for i = 1 to Array.length lanes - 1 do
    if lanes.(i) < lanes.(!best) then best := i
  done;
  let start = Float.max at lanes.(!best) in
  lanes.(!best) <- start +. dur;
  start

(* Pass a message leaving its send NIC at [w0] (wire done at [wire_end])
   through the shared uplink, if one is modelled: the uplink is a single
   FIFO pipe, cut-through, so an uncontended message that fits is not
   delayed. Returns (egress time, extra delay charged as queueing). *)
let uplink_pass nics ~w0 ~wire_end ~nbytes =
  match nics.uplink with
  | None -> (wire_end, 0.)
  | Some bw ->
    let tau = float_of_int nbytes /. bw in
    let u0 = Float.max w0 nics.uplink_free in
    nics.uplink_free <- u0 +. tau;
    let egress = Float.max wire_end (u0 +. tau) in
    (egress, egress -. wire_end)

(* [sent] is the sender-side causal stamp: the end of the send action on
   the sender's clock (the wire and latency run after it). [queued] is
   the NIC/uplink queueing already accumulated on the sender side; the
   receive NIC may add more before the message is ready. *)
let deposit st (sched : sched) ~src ~dst ~tag ~sent ~queued arrival data =
  let nbytes = 8 * payload_length data in
  Recorder.message_sent st.logs.(src) ~t:sent ~dst ~tag ~bytes:nbytes ();
  let arrival, queued =
    match st.nics with
    | None -> (arrival, queued)
    | Some nics ->
      (* receive-side NIC: cut-through, so a free lane absorbs the
         message concurrently with the wire and [ready = arrival]; a
         busy lane serialises the transfer after its current work *)
      let transfer = Netmodel.transfer_time st.net ~bytes:nbytes in
      let lanes = nics.rcv_free.(dst) in
      let best = ref 0 in
      for i = 1 to Array.length lanes - 1 do
        if lanes.(i) < lanes.(!best) then best := i
      done;
      let ready = Float.max arrival (lanes.(!best) +. transfer) in
      lanes.(!best) <- ready;
      let recv_q = ready -. arrival in
      Recorder.nic_queue st.logs.(dst) recv_q;
      (ready, queued +. recv_q)
  in
  Sched.send sched ~src ~dst ~tag (arrival, queued, data)

let record st rank t0 t1 kind = Recorder.span st.logs.(rank) ~t0 ~t1 kind

let work st r kind dt =
  let t0 = st.clocks.(r) in
  st.clocks.(r) <- st.clocks.(r) +. dt;
  record st r t0 st.clocks.(r) kind

let check_dst st dst =
  if dst < 0 || dst >= st.nprocs then
    invalid_arg "Sim.send: bad destination rank"

(* eager send: the sender pays overhead + wire *)
let send st sched r ~dst ~tag data =
  check_dst st dst;
  let nbytes = 8 * payload_length data in
  let t0 = st.clocks.(r) in
  match st.nics with
  | None ->
    st.clocks.(r) <-
      st.clocks.(r)
      +. st.net.Netmodel.send_overhead
      +. Netmodel.transfer_time st.net ~bytes:nbytes;
    record st r t0 st.clocks.(r) Span.Send;
    let arrival = st.clocks.(r) +. st.net.Netmodel.latency in
    deposit st sched ~src:r ~dst ~tag ~sent:st.clocks.(r) ~queued:0. arrival
      (detach data)
  | Some nics ->
    (* blocking eager send: the CPU prepares the message (overhead),
       waits for a free send-NIC lane, and is occupied until the wire
       finishes *)
    let transfer = Netmodel.transfer_time st.net ~bytes:nbytes in
    let cpu_ready = t0 +. st.net.Netmodel.send_overhead in
    let w0 = reserve_lane nics.snd_free.(r) ~at:cpu_ready ~dur:transfer in
    let wire_end = w0 +. transfer in
    if w0 > cpu_ready then begin
      (* the NIC-queue stall is the sender's own blocked time, so it
         surfaces as a Wait span on its timeline (and in the queue
         counter), not as flight time *)
      record st r t0 cpu_ready Span.Send;
      record st r cpu_ready w0 Span.Wait;
      record st r w0 wire_end Span.Send;
      Recorder.nic_queue st.logs.(r) (w0 -. cpu_ready)
    end
    else record st r t0 wire_end Span.Send;
    st.clocks.(r) <- wire_end;
    let egress, up_q = uplink_pass nics ~w0 ~wire_end ~nbytes in
    Recorder.nic_queue st.logs.(r) up_q;
    let arrival = egress +. st.net.Netmodel.latency in
    deposit st sched ~src:r ~dst ~tag ~sent:wire_end ~queued:up_q arrival
      (detach data)

(* overlapped send: the sender pays only the CPU overhead; the wire runs
   in parallel with its subsequent computation *)
let isend st sched r ~dst ~tag data =
  check_dst st dst;
  let nbytes = 8 * payload_length data in
  let t0 = st.clocks.(r) in
  st.clocks.(r) <- st.clocks.(r) +. st.net.Netmodel.send_overhead;
  record st r t0 st.clocks.(r) Span.Send;
  match st.nics with
  | None ->
    let arrival =
      st.clocks.(r)
      +. Netmodel.transfer_time st.net ~bytes:nbytes
      +. st.net.Netmodel.latency
    in
    deposit st sched ~src:r ~dst ~tag ~sent:st.clocks.(r) ~queued:0. arrival
      (detach data)
  | Some nics ->
    (* the CPU detaches after the overhead; the DMA transfer queues for
       a send-NIC lane, so its queueing rides the flight (attributed on
       the edge), not the CPU *)
    let transfer = Netmodel.transfer_time st.net ~bytes:nbytes in
    let cpu_ready = st.clocks.(r) in
    let w0 = reserve_lane nics.snd_free.(r) ~at:cpu_ready ~dur:transfer in
    let send_q = w0 -. cpu_ready in
    let wire_end = w0 +. transfer in
    let egress, up_q = uplink_pass nics ~w0 ~wire_end ~nbytes in
    Recorder.nic_queue st.logs.(r) (send_q +. up_q);
    let arrival = egress +. st.net.Netmodel.latency in
    deposit st sched ~src:r ~dst ~tag ~sent:cpu_ready ~queued:(send_q +. up_q)
      arrival (detach data)

(* Advance the receiver past one message. [t0] is when the rank entered
   the receive: a parked receiver's clock stands still until it is
   resumed, so that is its park time. Only the genuinely blocked
   interval — from [t0] until the message's arrival — counts as [Wait];
   the per-message receive overhead is its own [Unpack] span, so a
   message that was already waiting in the channel contributes no wait
   time at all. *)
let recv st sched r ~src ~tag =
  let t0 = st.clocks.(r) in
  let arrival, queued, data = Sched.recv sched ~src ~dst:r ~tag in
  let ready = Float.max t0 arrival in
  record st r t0 ready Span.Wait;
  Recorder.message_received st.logs.(r) ~t:ready ~posted:t0 ~queued ~src ~tag
    ~bytes:(8 * payload_length data) ();
  let t1 = ready +. st.net.Netmodel.recv_overhead in
  st.clocks.(r) <- t1;
  record st r ready t1 Span.Unpack;
  data

let comms st sched ~overlap r =
  {
    send = (if overlap then isend else send) st sched r;
    recv = recv st sched r;
    compute = work st r Span.Compute;
    pack = work st r Span.Pack;
    unpack = work st r Span.Unpack;
  }

let run ?recorder ?(overlap = false) ~nprocs ~net program =
  if nprocs <= 0 then invalid_arg "Sim.run: nprocs";
  let rc =
    match recorder with
    | Some rc ->
      if Recorder.nprocs rc <> nprocs then
        invalid_arg "Sim.run: recorder nprocs mismatch";
      rc
    | None ->
      (* untraced, counting only; a zero clock, since the simulator
         stamps everything explicitly in virtual time *)
      Recorder.create ~clock:(fun () -> 0.) ~nprocs ()
  in
  let nics =
    match net.Netmodel.model with
    | Netmodel.Alpha_beta -> None
    | Netmodel.Contended { snd_lanes; rcv_lanes; uplink } ->
      Some
        {
          snd_free = Array.init nprocs (fun _ -> Array.make snd_lanes 0.);
          rcv_free = Array.init nprocs (fun _ -> Array.make rcv_lanes 0.);
          uplink_free = 0.;
          uplink;
        }
  in
  let st =
    {
      nprocs;
      net;
      nics;
      clocks = Array.make nprocs 0.;
      logs = Array.init nprocs (fun r -> Recorder.log rc ~rank:r);
    }
  in
  (* one domain: the run order, and so every lane reservation and
     virtual timestamp, follows from the programs' control flow alone *)
  Sched.run ~domains:1 ~nprocs (fun sched r ->
      program (comms st sched ~overlap r) r);
  {
    completion = Array.fold_left Float.max 0. st.clocks;
    rank_clocks = Array.copy st.clocks;
    messages = Recorder.messages rc;
    bytes = Recorder.bytes rc;
  }
