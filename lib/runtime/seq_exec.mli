(** Reference sequential execution of a kernel over its iteration space in
    lexicographic order — the paper's "original program", both the
    correctness oracle for the distributed executor and the baseline of
    the speedup measurements.

    The walkers mirror {!Walker.variant}: [Reference] is the original
    per-point loop ([Polyhedron.iter_points] + bounds-checked [Grid]
    accesses, a membership test per tap), the fast variants enumerate
    contiguous rows through the Fourier–Motzkin projection chain and
    read taps through precomputed flat-index deltas. Their grid's box
    covers the reach of the kernel's reads, and before a row runs, the
    cells of its out-of-space taps receive their boundary values if
    still unset, so [boundary] is called once per distinct out-of-space
    cell and field; each tap's in-space steps form one interval (one
    integer division per space constraint). Every row then runs the
    kernel's row body from start to end, its static lets read from a
    table over the space's box built once per run ({!Kernel.coefs}).
    [Native] runs the same OCaml row bodies as [Fastpath], never
    the compiled [.so], so a native parallel run is still checked against
    an independent implementation. All variants visit the space in the same
    lexicographic order, so results are bit-for-bit identical on the
    space (the fast variants' grid also holds the boundary values
    outside it). *)

val run :
  ?variant:Walker.variant ->
  ?check:bool ->
  space:Tiles_poly.Polyhedron.t ->
  kernel:Kernel.t ->
  unit ->
  Grid.t
(** [variant] defaults to {!Walker.Fastpath}; [check] (default false)
    makes the fast variants scan each row's reads below its first cell
    for NaN poisoning before the row body runs ({!Kernel.unset_read}),
    failing with "read of uninitialised grid cell" and the first
    failing iteration, and confirm that every boundary-filled source
    lies outside the space. *)

type check = {
  err : float;  (** {!Grid.max_abs_diff} against the oracle *)
  oracle_seconds : float;
      (** wall seconds of the oracle run that decided [err]: this call's,
          or on a digest match the memo's, taken when the oracle last
          really ran for this problem *)
}

val check :
  space:Tiles_poly.Polyhedron.t -> kernel:Kernel.t -> Grid.t -> check
(** [check ~space ~kernel g]: {!Grid.max_abs_diff} of [g] against
    {!run}'s grid over [space], without running the oracle when it is
    known. A process-wide memo maps the content that fixes the oracle's
    output — the kernel's IR ([ckernel]), [skew], [width], [reads] and
    the space's constraints — to the oracle's {!Grid.digest}. When it
    holds this problem's digest and [g]'s digest equals it, the answer is
    exactly [0.]. Otherwise the oracle runs, its digest is remembered
    (unless the difference is infinite, so a NaN-holding oracle is never
    remembered) and the exact difference is returned: a wrong run always
    reports the oracle's error. Each memo entry keeps the oracle's wall
    seconds beside its digest, replaced whenever the oracle runs again
    for the problem. The key trusts {!Kernel.of_ir}'s contract that a
    kernel's closures compute what its IR says; a kernel without IR
    ({!Kernel.make}) runs (and times) the oracle every time. The memo
    keeps the {!memo_capacity} most recently used problems behind a
    mutex, so domains share it. *)

val max_abs_err :
  space:Tiles_poly.Polyhedron.t -> kernel:Kernel.t -> Grid.t -> float
(** [(check ~space ~kernel g).err]. *)

val memo_capacity : int
(** How many problems the memo of {!check} keeps. *)
