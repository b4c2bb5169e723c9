open Effect
open Effect.Deep

exception Deadlock of string

let () =
  Printexc.register_printer (function
    | Deadlock blocked -> Some ("deadlock: " ^ blocked)
    | _ -> None)

type channel = int * int * int (* src, dst, tag *)

(* how a fiber's turn on a domain ended *)
type status = Parked | Finished | Failed of exn

type fiber =
  | Start of int  (* the rank's body, not begun *)
  | Resume of (unit, status) continuation

(* parks the fiber until its channel holds a message *)
type _ Effect.t += Park : channel -> unit Effect.t

(* One lock guards all of it. A fiber moves between domains only by
   being parked or queued here, so whatever its rank wrote on one domain
   is visible on the next. *)
type 'msg t = {
  nprocs : int;
  lock : Mutex.t;
  wake : Condition.t;  (* the run queue grew, or the run ended *)
  runq : fiber Queue.t;
  (* a drained queue is removed, so every queue here is non-empty *)
  channels : (channel, 'msg Queue.t) Hashtbl.t;
  parked : (channel, (unit, status) continuation) Hashtbl.t;
  mutable running : int;  (* fibers on a domain now *)
  mutable finished : int;
  mutable failure : exn option;  (* the first; it stops the run *)
}

let send s ~src ~dst ~tag msg =
  let ch = (src, dst, tag) in
  Mutex.lock s.lock;
  (match Hashtbl.find_opt s.channels ch with
  | Some q -> Queue.push msg q
  | None -> Hashtbl.add s.channels ch (Queue.of_seq (Seq.return msg)));
  (match Hashtbl.find_opt s.parked ch with
  | Some k ->
    Hashtbl.remove s.parked ch;
    Queue.push (Resume k) s.runq;
    Condition.signal s.wake
  | None -> ());
  Mutex.unlock s.lock

let take s ch =
  Mutex.lock s.lock;
  let msg =
    match Hashtbl.find_opt s.channels ch with
    | None -> None
    | Some q ->
      let msg = Queue.pop q in
      if Queue.is_empty q then Hashtbl.remove s.channels ch;
      Some msg
  in
  Mutex.unlock s.lock;
  msg

(* only [dst] takes from the channel, so once woken it finds a message *)
let rec recv s ~src ~dst ~tag =
  match take s (src, dst, tag) with
  | Some msg -> msg
  | None ->
    perform (Park (src, dst, tag));
    recv s ~src ~dst ~tag

let handler s =
  {
    retc = (fun () -> Finished);
    exnc = (fun e -> Failed e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Park ch ->
          Some
            (fun (k : (a, status) continuation) ->
              Mutex.lock s.lock;
              (* a send may have landed since the receive looked *)
              if Hashtbl.mem s.channels ch then begin
                Mutex.unlock s.lock;
                continue k ()
              end
              else begin
                Hashtbl.replace s.parked ch k;
                Mutex.unlock s.lock;
                Parked
              end)
        | _ -> None);
  }

let stop s e =
  if Option.is_none s.failure then s.failure <- Some e;
  Condition.broadcast s.wake

let deadlock parked =
  let blocked =
    Hashtbl.fold
      (fun (src, dst, tag) _ acc ->
        Printf.sprintf "rank %d waiting on (src=%d, tag=%d)" dst src tag :: acc)
      parked []
  in
  Deadlock (String.concat "; " (List.sort compare blocked))

(* One domain's share of the run, called and returning with the lock
   held: run fibers until the run ends or fails. *)
let rec work s body =
  if Option.is_none s.failure then
    match Queue.take_opt s.runq with
    | Some fiber ->
      s.running <- s.running + 1;
      Mutex.unlock s.lock;
      let status =
        match fiber with
        | Start rank -> match_with body rank (handler s)
        | Resume k -> continue k ()
      in
      Mutex.lock s.lock;
      s.running <- s.running - 1;
      (match status with
      | Parked -> ()
      | Finished -> s.finished <- s.finished + 1
      | Failed e -> stop s e);
      work s body
    | None when s.running > 0 ->
      Condition.wait s.wake s.lock;
      work s body
    | None ->
      (* no fiber runs and none can: every rank is done, or each one
         left waits for a message that no rank will send *)
      if s.finished < s.nprocs then stop s (deadlock s.parked)
      else Condition.broadcast s.wake

let run ~domains ~nprocs body =
  if nprocs <= 0 then invalid_arg "Sched.run: nprocs";
  if domains <= 0 then invalid_arg "Sched.run: domains";
  let s =
    {
      nprocs;
      lock = Mutex.create ();
      wake = Condition.create ();
      runq = Queue.create ();
      channels = Hashtbl.create 64;
      parked = Hashtbl.create 16;
      running = 0;
      finished = 0;
      failure = None;
    }
  in
  for rank = 0 to nprocs - 1 do
    Queue.push (Start rank) s.runq
  done;
  let worker () =
    Mutex.lock s.lock;
    work s (body s);
    Mutex.unlock s.lock
  in
  let helpers =
    List.init (domains - 1) Fun.id
    |> List.filter_map (fun _ -> try Some (Domain.spawn worker) with _ -> None)
  in
  worker ();
  List.iter Domain.join helpers;
  (* a stopped run unwinds every fiber it left unfinished: OCaml never
     frees the stack of a continuation that is not resumed *)
  let unwind k = ignore (discontinue k Exit) in
  List.of_seq (Queue.to_seq s.runq)
  |> List.iter (function Resume k -> unwind k | Start _ -> ());
  List.iter unwind (List.of_seq (Hashtbl.to_seq_values s.parked));
  Option.iter raise s.failure
