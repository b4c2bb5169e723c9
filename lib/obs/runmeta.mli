(** Self-describing run metadata embedded in exported artifacts.

    CI uploads Chrome traces, [BENCH_*.json] files and perf baselines;
    once downloaded they lose their provenance unless they carry it.
    Every exporter therefore embeds one of these records under a
    [metadata] key: tool version, app, tiling variant, grid/tile
    parameters, process count, backend and network-model name. *)

val version : string
(** The tilec / bench tool version (single source of truth; the CLI's
    [--version] reports the same string). *)

type t = {
  app : string;        (** sor | jacobi | adi | … *)
  variant : string;    (** tiling variant (rect, nonrect, nr1…) *)
  size1 : int;         (** time-like extent (M or T) *)
  size2 : int;         (** spatial extent (N) *)
  tile : int * int * int;  (** tile factors x, y, z *)
  nprocs : int;
  backend : string;    (** sim | shm *)
  overlap : bool;      (** §5 overlapped schedule *)
  netmodel : string;   (** network-model name, "-" for wall-clock runs *)
  walker : string;     (** walker variant used (reference | fast |
                           native); "fast" for pre-1.3 files. Older
                           files may name the retired "strength"
                           walker; the string is kept as read. *)
  walker_fallback : string option;
      (** when a native walker was requested but could not be used
          (no C compiler, no C kernel body, check mode), the reason it
          fell back to the fast path; [None] otherwise *)
  job_id : string option;
      (** the serve-daemon job this run belongs to; [None] for
          standalone runs *)
  queued_s : float;
      (** seconds the job waited for admission before running; [0.] for
          standalone runs *)
}

val make :
  app:string ->
  variant:string ->
  size1:int ->
  size2:int ->
  tile:int * int * int ->
  nprocs:int ->
  backend:string ->
  ?overlap:bool ->
  netmodel:string ->
  ?walker:string ->
  ?walker_fallback:string ->
  ?job_id:string ->
  ?queued_s:float ->
  unit ->
  t
(** [overlap] defaults to false; files written before the field existed
    parse as blocking runs. [walker] defaults to ["fast"] and is omitted
    from {!to_json} at that default; [walker_fallback] / [job_id] /
    [queued_s] likewise default to [None] / [None] / [0.] when absent, so
    walker- and serve-unaware artifacts stay byte-identical. *)

val to_json : t -> Tiles_util.Json.t
(** Flat object including a [tilec_version] field. *)

val of_json : Tiles_util.Json.t -> (t, string) result
