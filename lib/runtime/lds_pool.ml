module Fbuf = Tiles_util.Fbuf
module A1 = Bigarray.Array1
module Lengths = Map.Make (Int)

type lease = { la : Fbuf.t; whole : Fbuf.t }

let la l = l.la

type not_poisoned = { np_length : int; np_slot : int; np_value : float }

exception Not_poisoned of not_poisoned

let not_poisoned_to_string e =
  Printf.sprintf
    "Lds_pool: an idle %d-slot LDS buffer holds %h at slot %d, not NaN: a \
     rank did not reset a cell it wrote"
    e.np_length e.np_value e.np_slot

let () =
  Printexc.register_printer (function
    | Not_poisoned e -> Some (not_poisoned_to_string e)
    | _ -> None)

let cap_bytes = 256 * 1024 * 1024

(* idle buffers by length, and their total size; every one is all-NaN *)
let lock = Mutex.create ()
let idle_by_length : Fbuf.t list Lengths.t ref = ref Lengths.empty
let idle_total = ref 0

let bytes b = 8 * Fbuf.length b

(* the smallest idle buffer of at least [slots] slots *)
let best_fit slots =
  Mutex.protect lock (fun () ->
      match Lengths.find_first_opt (fun k -> k >= slots) !idle_by_length with
      | None -> None
      | Some (k, bufs) ->
        let b = List.hd bufs in
        idle_by_length :=
          (match List.tl bufs with
          | [] -> Lengths.remove k !idle_by_length
          | rest -> Lengths.add k rest !idle_by_length);
        idle_total := !idle_total - bytes b;
        Some b)

let scan whole =
  for i = 0 to Fbuf.length whole - 1 do
    let v = A1.unsafe_get whole i in
    if not (Float.is_nan v) then
      raise
        (Not_poisoned
           { np_length = Fbuf.length whole; np_slot = i; np_value = v })
  done

let take ~check slots =
  match best_fit slots with
  | Some whole ->
    if check then scan whole;
    let la = if Fbuf.length whole = slots then whole else A1.sub whole 0 slots in
    { la; whole }
  | None ->
    let whole = Fbuf.make slots Float.nan in
    { la = whole; whole }

let give l =
  let b = bytes l.whole in
  Mutex.protect lock (fun () ->
      if !idle_total + b <= cap_bytes then begin
        idle_by_length :=
          Lengths.update (Fbuf.length l.whole)
            (fun bufs -> Some (l.whole :: Option.value bufs ~default:[]))
            !idle_by_length;
        idle_total := !idle_total + b
      end)

let idle () =
  Mutex.protect lock (fun () ->
      ( Lengths.fold (fun _ bufs n -> n + List.length bufs) !idle_by_length 0,
        !idle_total ))
