module Constr = Tiles_poly.Constr
module Polyhedron = Tiles_poly.Polyhedron
module Nest = Tiles_loop.Nest
module Dependence = Tiles_loop.Dependence
module Tiling = Tiles_core.Tiling
module Ratmat = Tiles_linalg.Ratmat
module Kernel = Tiles_runtime.Kernel
module Netmodel = Tiles_mpisim.Netmodel

type score = {
  completion : float;
  speedup : float;
  messages : int;
  bytes : int;
  points_computed : int;
  tiles_executed : int;
}

type t = { dir : string }

(* bump when the score record or the key rendering changes *)
let version = 4

let open_dir dir =
  if Sys.file_exists dir then begin
    if not (Sys.is_directory dir) then
      raise (Sys_error (dir ^ ": not a directory"))
  end
  else begin
    (* two processes (or domains) may race to create the directory; the
       loser's EEXIST is success, not an error *)
    try Unix.mkdir dir 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) when Sys.is_directory dir -> ()
  end;
  { dir }

let dir t = t.dir

let key ~nest ~tiling ~m ~kernel ~net ~overlap ~backend =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let addf x = add "%Lx;" (Int64.bits_of_float x) in
  add "v%d|" version;
  add "space:%d:" (Polyhedron.dim nest.Nest.space);
  List.iter
    (fun c ->
      for k = 0 to Constr.dim c - 1 do
        add "%d," (Constr.coeff c k)
      done;
      add "+%d;" (Constr.const c))
    (Polyhedron.constraints nest.Nest.space);
  add "|deps:";
  List.iter
    (fun d -> Array.iter (fun x -> add "%d," x) d; add ";")
    (Dependence.vectors nest.Nest.deps);
  add "|h:%s" (Ratmat.to_string tiling.Tiling.h);
  add "|m:%d" m;
  add "|kernel:%s:%d:" kernel.Kernel.name kernel.Kernel.width;
  List.iter
    (fun d -> Array.iter (fun x -> add "%d," x) d; add ";")
    kernel.Kernel.reads;
  add "|net:";
  addf net.Netmodel.latency;
  addf net.Netmodel.bandwidth;
  addf net.Netmodel.send_overhead;
  addf net.Netmodel.recv_overhead;
  addf net.Netmodel.flop_time;
  addf net.Netmodel.pack_time;
  (* contention variants score differently, so they key differently —
     this is why version went to 3 *)
  add "|model:";
  (match net.Netmodel.model with
  | Netmodel.Alpha_beta -> add "ab"
  | Netmodel.Contended c ->
    add "c:%d:%d:" c.Netmodel.snd_lanes c.Netmodel.rcv_lanes;
    (match c.Netmodel.uplink with None -> add "-" | Some u -> addf u));
  add "|overlap:%b" overlap;
  add "|backend:%s" backend;
  (* the retired walker subtile shape's "unblocked" suffix, kept so
     every existing v4 tune-cache and plan-cache key stays valid *)
  add "|inner:-";
  Digest.to_hex (Digest.string (Buffer.contents buf))

let path t k = Filename.concat t.dir (k ^ ".score")

let find t k =
  match open_in_bin (path t k) with
  | exception Sys_error _ -> None
  | ic ->
    (* a truncated or corrupt entry (killed writer, disk full, garbage)
       must read as a miss, never as an exception: Marshal raises
       Failure / End_of_file on bad input and the header version check
       rejects stale schemas *)
    let r =
      match (Marshal.from_channel ic : int * score) with
      | v, s when v = version -> Some s
      | _ -> None
      | exception _ -> None
    in
    close_in_noerr ic;
    r

(* distinguishes concurrent writers within one process: domains share a
   pid, so the temp name needs a per-process unique component too *)
let store_seq = Atomic.make 0

let store t k score =
  let final = path t k in
  let tmp =
    Filename.concat t.dir
      (Printf.sprintf ".%s.%d.%d.tmp" k (Unix.getpid ())
         (Atomic.fetch_and_add store_seq 1))
  in
  let oc = open_out_bin tmp in
  (match Marshal.to_channel oc ((version, score) : int * score) [] with
  | () -> ()
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  close_out oc;
  (* atomic publish: readers see either the complete entry or nothing *)
  Sys.rename tmp final
