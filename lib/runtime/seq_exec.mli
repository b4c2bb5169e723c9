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
    kernel's row body, or its [compute] loop, from start to end.
    [Native] runs the same OCaml row bodies as [Fastpath], never the
    compiled [.so], so a native parallel run is still checked against an
    independent implementation. All variants visit the space in the same
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
    makes the fast variants validate reads against NaN poisoning and
    confirm that every boundary-filled source lies outside the space
    (and disables the unrolled row bodies, so rows take the [compute]
    loop and every read is inspected). *)
