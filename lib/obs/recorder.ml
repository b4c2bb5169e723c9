(* How much the recorder keeps is one setting:

     Counters   messages, bytes, in-flight, NIC queueing, finish stamps
     Totals     + per-rank per-kind span seconds and a bounded reservoir
                of the longest Wait spans — O(nprocs) memory however
                long the run
     Timeline   + the full span list and message dependency edges

   Message identity: every send/receive carries its channel (src, dst,
   tag) and the recorder assigns a per-channel sequence number on each
   side independently. All transports are FIFO per channel (the
   simulator's queues, the shm scheduler's per-channel queues), so sender seq
   i and receiver seq i name the same message and the two half-records
   join into a dependency edge without any cross-rank synchronisation. *)

type keep = Counters | Totals | Timeline

type edge = {
  e_src : int;
  e_dst : int;
  e_tag : int;
  e_seq : int;
  e_bytes : int;
  e_sent : float;
  e_posted : float;
  e_ready : float;
  e_queued : float;
}

let nkinds = 5

let kind_slot = function
  | Span.Compute -> 0
  | Span.Pack -> 1
  | Span.Send -> 2
  | Span.Wait -> 3
  | Span.Unpack -> 4

(* longest-Wait reservoir size per rank; total memory is nprocs·this *)
let waits_keep = 8

type shared = {
  keep : keep;
  clock : unit -> float;
  mutable origin : float;
  inflight : int Atomic.t;
  max_inflight : int Atomic.t;
}

(* one half of a message, recorded on the side that observed it *)
type sent_rec = { s_dst : int; s_tag : int; s_seq : int; s_t : float }
type recv_rec = { r_src : int; r_tag : int; r_seq : int; r_bytes : int;
                  r_posted : float; r_ready : float; r_queued : float }

(* per-channel next sequence numbers: (dst, tag) for sends, (src, tag)
   for receives *)
type seqs = {
  send_seq : (int * int, int ref) Hashtbl.t;
  recv_seq : (int * int, int ref) Hashtbl.t;
}

type log = {
  rank : int;
  shared : shared;
  mutable spans : Span.t list;  (* newest first; Timeline only *)
  mutable cursor : float;
  mutable messages : int;
  mutable bytes : int;
  mutable queue_sum : float;  (* NIC queueing seconds charged to this rank *)
  mutable finished_at : float;
  kind_sum : float array;  (* seconds per Span.kind, always when tracing *)
  waits : Span.t array;  (* reservoir of longest Wait spans *)
  mutable nwaits : int;
  (* Timeline only: message edges are only joinable when the full
     per-message records are kept; Totals deliberately drops them to
     stay O(nprocs) *)
  seqs : seqs option;
  mutable sent : sent_rec list;  (* Timeline only *)
  mutable recvd : recv_rec list;  (* Timeline only *)
}

type t = {
  nprocs : int;
  s : shared;
  logs : log array;
}

let dummy_span = { Span.rank = -1; t0 = 0.; t1 = 0.; kind = Span.Wait }

let create ?(keep = Counters) ?(clock = Clock.monotonic) ~nprocs () =
  if nprocs <= 0 then invalid_arg "Recorder.create: nprocs";
  let s =
    {
      keep;
      clock;
      origin = clock ();
      inflight = Atomic.make 0;
      max_inflight = Atomic.make 0;
    }
  in
  {
    nprocs;
    s;
    logs =
      Array.init nprocs (fun rank ->
          {
            rank;
            shared = s;
            spans = [];
            cursor = 0.;
            messages = 0;
            bytes = 0;
            queue_sum = 0.;
            finished_at = 0.;
            kind_sum = Array.make nkinds 0.;
            waits = Array.make waits_keep dummy_span;
            nwaits = 0;
            seqs =
              (if keep = Timeline then
                 Some
                   { send_seq = Hashtbl.create 4; recv_seq = Hashtbl.create 4 }
               else None);
            sent = [];
            recvd = [];
          });
  }

let tracing t = t.s.keep <> Counters
let nprocs t = t.nprocs
let now t = t.s.clock () -. t.s.origin
let restart t = t.s.origin <- t.s.clock ()
let log t ~rank = t.logs.(rank)

let log_now l = l.shared.clock () -. l.shared.origin

let reservoir_note l (sp : Span.t) =
  if l.nwaits < waits_keep then begin
    l.waits.(l.nwaits) <- sp;
    l.nwaits <- l.nwaits + 1
  end
  else begin
    (* replace the shortest retained wait if this one is longer *)
    let mini = ref 0 in
    for i = 1 to waits_keep - 1 do
      if Span.duration l.waits.(i) < Span.duration l.waits.(!mini) then
        mini := i
    done;
    if Span.duration sp > Span.duration l.waits.(!mini) then
      l.waits.(!mini) <- sp
  end

let span l ~t0 ~t1 kind =
  if l.shared.keep <> Counters && t1 > t0 then begin
    let sp = { Span.rank = l.rank; t0; t1; kind } in
    let slot = kind_slot kind in
    l.kind_sum.(slot) <- l.kind_sum.(slot) +. (t1 -. t0);
    if kind = Span.Wait then reservoir_note l sp;
    if l.shared.keep = Timeline then l.spans <- sp :: l.spans
  end

(* an untraced log keeps no spans, so its cursor is never read *)
let mark l = if l.shared.keep <> Counters then l.cursor <- log_now l

let close l kind =
  if l.shared.keep <> Counters then begin
    let t = log_now l in
    span l ~t0:l.cursor ~t1:t kind;
    l.cursor <- t
  end

let rec raise_high_water m v =
  let cur = Atomic.get m in
  if v > cur && not (Atomic.compare_and_set m cur v) then raise_high_water m v

let next_seq table key =
  match Hashtbl.find_opt table key with
  | Some r ->
    let s = !r in
    incr r;
    s
  | None ->
    Hashtbl.add table key (ref 1);
    0

let message_sent l ?t ~dst ~tag ~bytes () =
  l.messages <- l.messages + 1;
  l.bytes <- l.bytes + bytes;
  let level = Atomic.fetch_and_add l.shared.inflight bytes + bytes in
  raise_high_water l.shared.max_inflight level;
  match l.seqs with
  | None -> ()
  | Some q ->
    let s_seq = next_seq q.send_seq (dst, tag) in
    let s_t = match t with Some t -> t | None -> log_now l in
    l.sent <- { s_dst = dst; s_tag = tag; s_seq; s_t } :: l.sent

let message_received l ?t ?posted ?(queued = 0.) ~src ~tag ~bytes () =
  ignore (Atomic.fetch_and_add l.shared.inflight (-bytes));
  match l.seqs with
  | None -> ()
  | Some q ->
    let r_seq = next_seq q.recv_seq (src, tag) in
    let r_ready = match t with Some t -> t | None -> log_now l in
    let r_posted = match posted with Some p -> p | None -> r_ready in
    l.recvd <-
      { r_src = src; r_tag = tag; r_seq; r_bytes = bytes; r_posted; r_ready;
        r_queued = queued }
      :: l.recvd

(* NIC queueing is a counter, not a span: it is kept under every setting
   (like messages/bytes) so thousand-rank Totals runs still report
   how much time the contended network model spent queueing *)
let nic_queue l dt = if dt > 0. then l.queue_sum <- l.queue_sum +. dt

let finish l = l.finished_at <- log_now l

let spans t =
  Span.sort
    (Array.fold_left (fun acc l -> List.rev_append l.spans acc) [] t.logs)

let edges t =
  (* join the sender and receiver half-records on (src, dst, tag, seq) —
     FIFO per channel makes the independently assigned seqs agree *)
  let sends = Hashtbl.create 256 in
  Array.iter
    (fun l ->
      List.iter
        (fun s ->
          Hashtbl.replace sends (l.rank, s.s_dst, s.s_tag, s.s_seq) s.s_t)
        l.sent)
    t.logs;
  let out =
    Array.fold_left
      (fun acc l ->
        List.fold_left
          (fun acc r ->
            match
              Hashtbl.find_opt sends (r.r_src, l.rank, r.r_tag, r.r_seq)
            with
            | None -> acc  (* receive without a recorded send: dropped *)
            | Some s_t ->
              {
                e_src = r.r_src;
                e_dst = l.rank;
                e_tag = r.r_tag;
                e_seq = r.r_seq;
                e_bytes = r.r_bytes;
                e_sent = s_t;
                e_posted = r.r_posted;
                e_ready = r.r_ready;
                e_queued = r.r_queued;
              }
              :: acc)
          acc l.recvd)
      [] t.logs
  in
  List.sort
    (fun a b ->
      match Float.compare a.e_ready b.e_ready with
      | 0 -> compare (a.e_dst, a.e_src, a.e_tag, a.e_seq)
               (b.e_dst, b.e_src, b.e_tag, b.e_seq)
      | c -> c)
    out

let kind_seconds t =
  Array.map (fun l -> Array.copy l.kind_sum) t.logs

let longest_waits t =
  let all =
    Array.fold_left
      (fun acc l ->
        let rec take i acc =
          if i >= l.nwaits then acc else take (i + 1) (l.waits.(i) :: acc)
        in
        take 0 acc)
      [] t.logs
  in
  let sorted =
    List.sort (fun a b -> Float.compare (Span.duration b) (Span.duration a))
      all
  in
  List.filteri (fun i _ -> i < waits_keep) sorted

let messages t = Array.fold_left (fun acc l -> acc + l.messages) 0 t.logs
let bytes t = Array.fold_left (fun acc l -> acc + l.bytes) 0 t.logs
let queue_seconds t = Array.fold_left (fun acc l -> acc +. l.queue_sum) 0. t.logs
let rank_queue_seconds t = Array.map (fun l -> l.queue_sum) t.logs
let max_inflight_bytes t = Atomic.get t.s.max_inflight
let rank_messages t = Array.map (fun l -> l.messages) t.logs
let rank_bytes t = Array.map (fun l -> l.bytes) t.logs
let rank_finish t = Array.map (fun l -> l.finished_at) t.logs
