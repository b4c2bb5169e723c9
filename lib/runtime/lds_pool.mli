(** One process-wide pool of idle LDS buffers.

    A Full run's rank needs a local array of {!Walker.lds_total} cells,
    all NaN at the start (the poisoning that check mode and the walkers'
    "still unset" tests read). Allocating and NaN-filling that box on
    every run costs as much as a large part of the run, so ranks borrow
    buffers here instead: {!take} hands out the smallest idle buffer at
    least as large as asked, as a prefix, or a fresh NaN buffer when
    none fits. The borrower resets to NaN every cell it wrote before it
    {!give}s the buffer back, so every idle buffer is all-NaN. A
    borrower that fails gives nothing back.

    Safe to use from several domains at once. *)

type lease
(** A borrowed buffer. *)

val la : lease -> Tiles_util.Fbuf.t
(** The borrowed prefix, exactly as many slots as {!take} asked for. *)

type not_poisoned = {
  np_length : int;  (** slots of the idle buffer *)
  np_slot : int;  (** the first slot that is not NaN *)
  np_value : float;  (** its value *)
}

exception Not_poisoned of not_poisoned
(** Raised by a checking {!take} when an idle buffer holds a value other
    than NaN: a borrower gave it back without resetting a cell it
    wrote. *)

val not_poisoned_to_string : not_poisoned -> string

val cap_bytes : int
(** Idle bytes the pool keeps at most (256 MiB). *)

val take : check:bool -> int -> lease
(** [take ~check slots]: an all-NaN buffer of [slots] slots. Lookup is by
    length in a map, O(log buffers). With [check], a reused buffer is
    scanned whole first and {!Not_poisoned} raised if any slot is not
    NaN. *)

val give : lease -> unit
(** Return a lease whose every slot is NaN again. The buffer is dropped
    instead when keeping it would take the idle bytes past
    {!cap_bytes}. *)

val idle : unit -> int * int
(** Idle buffers and their total bytes. *)
