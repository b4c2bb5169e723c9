(* Hand-written transport programs run once on each backend: the
   simulator, and shared memory on a domain pool. Both take the same
   [comms -> int -> unit] program and share one fiber scheduler, so a
   program's blocked receives, per-channel order and counters must come
   out the same on both. *)

module Sim = Tiles_mpisim.Sim
module Recorder = Tiles_obs.Recorder

let net = Tiles_mpisim.Netmodel.fast_ethernet_cluster

(* Each backend runs [program] on [nprocs] ranks and returns the
   counting recorder it wrote to. *)
type run = nprocs:int -> (Sim.comms -> int -> unit) -> Recorder.t

let all : (string * run) list =
  [
    ( "sim",
      fun ~nprocs program ->
        let rc = Recorder.create ~clock:(fun () -> 0.) ~nprocs () in
        ignore (Sim.run ~recorder:rc ~nprocs ~net program);
        rc );
    ( "shm",
      fun ~nprocs program ->
        let rc = Recorder.create ~nprocs () in
        Tiles_runtime.Shm_executor.run_program ~recorder:rc ~nprocs program;
        rc );
  ]

(* [check name run] for every backend *)
let iter check = List.iter (fun (name, run) -> check name run) all

(* the exception a run raises, on every backend, as (backend, text) *)
let raised ~nprocs program =
  List.map
    (fun (name, run) ->
      match run ~nprocs program with
      | _ -> Alcotest.failf "%s: the run completed" name
      | exception e -> (name, Printexc.to_string e))
    all
