(** The one app table: every algorithm tilec compiles, with what each
    consumer needs of it. The CLI, the serve daemon and the bench harness
    all resolve a run's naming through {!resolve} (usually via
    {!Run_spec.resolve}); the daemon does so before admission, so a
    malformed request is rejected without taking a queue slot. Resolution
    is cheap (the nest and the tiling matrix); {!Tiles_core.Plan.make} is
    left to the caller. *)

type app = {
  name : string;
  instance :
    size1:int -> size2:int -> Tiles_loop.Nest.t * Tiles_runtime.Kernel.t;
      (** the nest and kernel at time-like extent [size1] (M or T) and
          spatial extent [size2] (N) *)
  m : int;  (** the paper's mapping dimension *)
  variants : (string * (x:int -> y:int -> z:int -> Tiles_core.Tiling.t)) list;
  pspace : unit -> Tiles_poly.Pspace.t;  (** symbolic-extent space *)
}

val find : string -> (app, string) result
(** [Error] names the unknown app and lists the known ones
    (sor | jacobi | adi). *)

type resolved = {
  app : app;
  variant : string;
  nest : Tiles_loop.Nest.t;
  kernel : Tiles_runtime.Kernel.t;
  m : int;  (** mapping dimension *)
  tiling : Tiles_core.Tiling.t;
}

val resolve :
  app:string ->
  size1:int ->
  size2:int ->
  variant:string ->
  tile:int * int * int ->
  (resolved, string) result
(** [Error] names the bad sizes / unknown app / unknown variant. An
    illegal or singular tiling raises what the variant's constructor
    raises ([Invalid_argument], [Failure] or, for a zero tile factor,
    [Division_by_zero]); {!Run_spec.resolve} turns those into [Error]
    too. *)
