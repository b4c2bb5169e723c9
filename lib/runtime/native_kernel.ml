(* Compile-at-plan-time row kernels for the native walker.
 *
 * The per-(plan, kernel) C source from [Rowgen] is compiled once with
 * the system C compiler into a shared object, cached content-addressed
 * (digest of the source) like the tune cache, and dlopen'd; the walker
 * then calls the row entry through a small stub passing the local
 * array's Bigarray data pointer. Everything degrades gracefully: no C
 * compiler, no C body on the kernel, or a failed compile all surface as
 * [Error reason] and the walker falls back to the fast OCaml path.
 *
 * Environment knobs:
 *   TILEC_CC            compiler to use (default: cc)
 *   TILEC_NO_CC         non-empty: pretend no compiler exists
 *   TILEC_NATIVE_CACHE  cache directory (default: $XDG_CACHE_HOME/tilec
 *                       /native or ~/.cache/tilec/native, else a
 *                       tilec-native dir under the temp dir)
 *)

module Fbuf = Tiles_util.Fbuf
module Rowgen = Tiles_codegen.Rowgen

type fn = nativeint

external load_stub : string -> string -> nativeint = "tilec_native_load"

external row_stub :
  nativeint -> Fbuf.t -> int -> int array -> int array -> int -> unit
  = "tilec_native_row_bc" "tilec_native_row" [@@noalloc]

let getenv_nonempty v =
  match Sys.getenv_opt v with Some "" | None -> None | Some s -> Some s

let cc_command () =
  match getenv_nonempty "TILEC_CC" with Some cc -> cc | None -> "cc"

(* the PATH lookup is memoized (every build asks, and must not shell
   out to `command -v` every time); NOT a [lazy] — builds may run on
   several domains at once, and forcing a lazy from two domains raises
   [CamlinternalLazy.Undefined]. A racing duplicate probe is benign: both
   compute the same answer. The TILEC_NO_CC override is re-read per call
   so tests can toggle it within one process. *)
let cc_found_memo : bool option Atomic.t = Atomic.make None

let cc_found () =
  match Atomic.get cc_found_memo with
  | Some b -> b
  | None ->
    let cc = Filename.quote (cc_command ()) in
    let b =
      Sys.command (Printf.sprintf "command -v %s >/dev/null 2>&1" cc) = 0
    in
    Atomic.set cc_found_memo (Some b);
    b

let available () = getenv_nonempty "TILEC_NO_CC" = None && cc_found ()

let default_cache_dir () =
  match getenv_nonempty "TILEC_NATIVE_CACHE" with
  | Some d -> d
  | None ->
    let base =
      match getenv_nonempty "XDG_CACHE_HOME" with
      | Some d -> Filename.concat d "tilec"
      | None -> (
        match getenv_nonempty "HOME" with
        | Some h -> Filename.concat (Filename.concat h ".cache") "tilec"
        | None -> Filename.concat (Filename.get_temp_dir_name ()) "tilec")
    in
    Filename.concat base "native"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* distinguishes concurrent writers within one process: domains share a
   pid, so the temp name needs a per-process unique component too *)
let build_seq = Atomic.make 0

(* loaded entry points by .so path; dlopen'ing the same object from two
   domains is safe but the table keeps lookups cheap and single *)
let loaded : (string, nativeint) Hashtbl.t = Hashtbl.create 8
let loaded_mu = Mutex.create ()

(* one place defines how sources are compiled, because the cache key
   must cover it: a cached .so built with different flags is a
   different artifact *)
let compile_flags = "-O3 -march=native -ffp-contract=off -fPIC -shared"

let compile_to src so =
  let dir = Filename.dirname so in
  let tag =
    Printf.sprintf "%d.%d" (Unix.getpid ()) (Atomic.fetch_and_add build_seq 1)
  in
  let tmp_c = Filename.concat dir (Printf.sprintf ".tilec.%s.c" tag) in
  let tmp_so = Filename.concat dir (Printf.sprintf ".tilec.%s.so" tag) in
  let cleanup () =
    List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ tmp_c; tmp_so ]
  in
  let oc = open_out tmp_c in
  output_string oc src;
  close_out oc;
  let cmd =
    (* no -ffast-math, and contraction off explicitly: results must stay
       bit-identical to the OCaml walkers, which evaluate strict IEEE
       double in program order — -march=native alone would let the
       compiler fuse a*b+c into FMA and change the last bit *)
    Printf.sprintf "%s %s -o %s %s -lm 2>/dev/null" (cc_command ())
      compile_flags (Filename.quote tmp_so) (Filename.quote tmp_c)
  in
  let rc = Sys.command cmd in
  if rc <> 0 then begin
    cleanup ();
    Error (Printf.sprintf "C compiler exited with status %d" rc)
  end
  else begin
    (* atomic publish: concurrent builders race benignly, last rename
       wins with identical content *)
    Sys.rename tmp_so so;
    (try Sys.remove tmp_c with Sys_error _ -> ());
    Ok ()
  end

let load_path so =
  Mutex.lock loaded_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock loaded_mu)
    (fun () ->
      match Hashtbl.find_opt loaded so with
      | Some fn -> Ok fn
      | None -> (
        match load_stub so Rowgen.entry_symbol with
        | fn ->
          Hashtbl.replace loaded so fn;
          Ok fn
        | exception Failure msg -> Error ("dlopen: " ^ msg)))

(* The shared object's content address. The digest covers source,
   compiler and flags: any of them changing must miss the cache, not
   load a stale object. *)
let cache_path src =
  Filename.concat (default_cache_dir ())
    (Digest.to_hex
       (Digest.string (cc_command () ^ "\x00" ^ compile_flags ^ "\x00" ^ src))
    ^ ".so")

(* the cheap refusals come first: no source is rendered for a kernel
   that has no C body or a host that has no compiler *)
let build ~plan ~kernel () =
  match kernel.Kernel.ckernel with
  | None -> Error (Printf.sprintf "kernel %s has no C body" kernel.Kernel.name)
  | Some _ when not (available ()) -> Error "no C compiler available"
  | Some ck -> (
    let src =
      Rowgen.generate ~plan ~kernel:ck ~skew:kernel.Kernel.skew
        ~reads:kernel.Kernel.reads ()
    in
    let so = cache_path src in
    match mkdir_p (Filename.dirname so) with
    | exception Unix.Unix_error (e, _, _) ->
      Error ("cache dir: " ^ Unix.error_message e)
    | () -> (
      let compiled = if Sys.file_exists so then Ok () else compile_to src so in
      match compiled with Error _ as e -> e | Ok () -> load_path so))

let row fn ~la ~cur ~taps ~jrow ~len = row_stub fn la cur taps jrow len
