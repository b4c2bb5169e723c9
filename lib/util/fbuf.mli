(** Flat unboxed [float64] storage: a 1-D C-layout {!Bigarray.Array1}.

    This is the backing store for grids, walker local arrays and message
    slabs: reads and writes never box, stores skip the GC write barrier,
    and the data pointer can be handed to native (dlopen'd) kernels
    unchanged. Hot loops should index with [Bigarray.Array1.unsafe_get]/
    [unsafe_set] (or the bounds-checked [a.{i}] sugar) directly — those
    compile to intrinsics; the helpers here are for cold code. *)

type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> t
(** Uninitialised buffer of the given length. *)

val make : int -> float -> t
(** Buffer of the given length, every slot set to the value. *)

val length : t -> int
val get : t -> int -> float
val set : t -> int -> float -> unit

val blit : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit
(** Zero-allocation copy of [len] slots ([Array1.sub] + [Array1.blit]). *)

val copy : t -> t
val append : t -> t -> t
val of_array : float array -> t
val to_array : t -> float array
