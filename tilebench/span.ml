(* In-memory span recorder for the traced run.

   Each span is one call into a layer's public entry point, made from
   the benchmark's own code: a name (the layer), start and end on the
   host's monotonic clock, the span that was open when it started (its
   parent), and the op it belongs to. Spans are appended to a list and
   only looked at when the run ends. With [enabled] false, [with_] is a
   plain call: the untraced run pays one branch per layer call. *)

type t = {
  id : int;
  name : string;
  op : int;  (* -1 outside any op (set-up) *)
  parent : int;  (* -1 for a root *)
  t0 : float;
  t1 : float;
  attrs : (string * float) list;
}

let now = Tiles_obs.Clock.monotonic
let enabled = ref false
let recorded : t list ref = ref []
let next_id = ref 0

(* open spans of the calling domain, innermost first: (id, op) *)
let stack : (int * int) list ref = ref []

let reset () =
  recorded := [];
  stack := []

let fresh () =
  let id = !next_id in
  incr next_id;
  id

let add ?(attrs = []) ~name ~op ~parent ~t0 ~t1 () =
  let id = fresh () in
  if !enabled then
    recorded := { id; name; op; parent; t0; t1; attrs } :: !recorded;
  id

let with_ ?(attrs = fun _ -> []) ?op name f =
  if not !enabled then f ()
  else begin
    let id = fresh () in
    let parent, outer_op =
      match !stack with (p, o) :: _ -> (p, o) | [] -> (-1, -1)
    in
    let op = Option.value op ~default:outer_op in
    stack := (id, op) :: !stack;
    let t0 = now () in
    let close attrs =
      let t1 = now () in
      stack := List.tl !stack;
      recorded := { id; name; op; parent; t0; t1; attrs } :: !recorded
    in
    match f () with
    | r ->
      close (attrs r);
      r
    | exception e ->
      close [];
      raise e
  end

let attr s k = Option.value (List.assoc_opt k s.attrs) ~default:0.

(* length of the union of [intervals] clipped to [lo, hi] *)
let covered ~lo ~hi intervals =
  List.sort compare intervals
  |> List.fold_left
       (fun (total, reach) (a, b) ->
         let a = Float.max a reach and b = Float.min b hi in
         if b > a then (total +. (b -. a), b) else (total, reach))
       (0., lo)
  |> fst

(* Every recorded span with its self time: its duration minus the part
   of it that its children cover. *)
let with_self_times () =
  let spans = !recorded in
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then Hashtbl.add children s.parent (s.t0, s.t1))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, s.t1 -. s.t0 -. covered ~lo:s.t0 ~hi:s.t1 kids))
    spans
