(* What the three workloads share: the apps, the private work directory,
   seeded randomness and the loop that runs whole decks of ops. *)

module Nest = Tiles_loop.Nest
module Tiling = Tiles_core.Tiling
module Kernel = Tiles_runtime.Kernel

let net = Tiles_mpisim.Netmodel.fast_ethernet_cluster

(* ---------------- apps ---------------- *)

type app = {
  name : string;
  nest : Nest.t;
  kernel : Kernel.t;
  m : int;  (* mapping dimension *)
  variants : (string * (x:int -> y:int -> z:int -> Tiling.t)) list;
  ckernel : Tiles_codegen.Ckernel.t;  (* body and reads for Mpigen *)
  creads : Tiles_util.Vec.t list;
  skew : Tiles_linalg.Intmat.t option;
}

let app name ~size1 ~size2 =
  match name with
  | "sor" ->
    let module A = Tiles_apps.Sor in
    let p = A.make ~m_steps:size1 ~size:size2 in
    {
      name; nest = A.nest p; kernel = A.kernel p; m = A.mapping_dim;
      variants = A.variants; ckernel = A.ckernel; creads = A.skewed_reads;
      skew = Some A.skew_matrix;
    }
  | "jacobi" ->
    let module A = Tiles_apps.Jacobi in
    let p = A.make ~t_steps:size1 ~size:size2 in
    {
      name; nest = A.nest p; kernel = A.kernel p; m = A.mapping_dim;
      variants = A.variants; ckernel = A.ckernel; creads = A.skewed_reads;
      skew = Some A.skew_matrix;
    }
  | "adi" ->
    let module A = Tiles_apps.Adi in
    let p = A.make ~t_steps:size1 ~size:size2 in
    {
      name; nest = A.nest p; kernel = A.kernel p; m = A.mapping_dim;
      variants = A.variants; ckernel = A.ckernel; creads = A.creads;
      skew = None;
    }
  | other -> invalid_arg ("unknown app " ^ other)

let tiling app ~variant (x, y, z) = (List.assoc variant app.variants) ~x ~y ~z

(* ---------------- private caches ---------------- *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Every run gets its own directory under the current one, holding the
   native kernel cache and anything else that would land in the user's
   cache directory; it is emptied at the start and removed at exit, so
   no run sees another's compiled kernels. *)
let work_dir =
  Filename.concat
    (Filename.concat (Sys.getcwd ()) ".tilebench")
    (string_of_int (Unix.getpid ()))

let native_cache = Filename.concat work_dir "native"

let init_work_dir () =
  rm_rf work_dir;
  mkdir_p native_cache;
  Unix.putenv "TILEC_NATIVE_CACHE" native_cache;
  Unix.putenv "XDG_CACHE_HOME" (Filename.concat work_dir "xdg");
  at_exit (fun () ->
      rm_rf work_dir;
      try Unix.rmdir (Filename.dirname work_dir) with Unix.Unix_error _ -> ())

let empty_native_cache () =
  Array.iter
    (fun e -> rm_rf (Filename.concat native_cache e))
    (Sys.readdir native_cache)

(* ---------------- seeded randomness ---------------- *)

let rng seed salt = Random.State.make [| seed; salt |]

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ---------------- ops ---------------- *)

type op = {
  kind : string;
  wall : float;  (* seconds *)
  ok : bool;  (* completed and verified *)
  points : int;  (* iteration points the op computed or covered *)
}

let warn fmt = Printf.eprintf (fmt ^^ "\n%!")

let op_counter = ref 0

(* Run one op under its root span; an exception is a failed op, not a
   failed run. [f] returns whether the outputs checked out and the
   points covered. *)
let run_op kind f =
  let id = !op_counter in
  incr op_counter;
  let t0 = Span.now () in
  let ok, points =
    Span.with_ ~op:id "op" (fun () ->
        try f ()
        with e ->
          warn "%s op failed: %s" kind (Printexc.to_string e);
          (false, 0))
  in
  { kind; wall = Span.now () -. t0; ok; points }

(* Whole decks until [seconds] have passed: a deck holds every op kind
   in fixed proportion (the seed orders it), so a run's mix never
   depends on where the clock stopped. A full major collection between
   decks frees the last deck's grids, so peak memory is one deck's
   working set and not an accident of GC timing. Returns the ops and
   the elapsed seconds. *)
let run_decks ~seconds deck =
  let t_start = Span.now () in
  let rec go round acc =
    if round > 0 && Span.now () -. t_start >= seconds then acc
    else begin
      let ops = List.map (fun (kind, f) -> run_op kind f) (deck round) in
      Gc.full_major ();
      go (round + 1) (List.rev_append ops acc)
    end
  in
  let ops = List.rev (go 0 []) in
  (ops, Span.now () -. t_start)
