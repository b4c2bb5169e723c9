(** Reference sequential execution of a kernel over its iteration space in
    lexicographic order — the paper's "original program", both the
    correctness oracle for the distributed executor and the baseline of
    the speedup measurements.

    The walkers mirror {!Walker.variant}: [Reference] is the original
    per-point loop ([Polyhedron.iter_points] + bounds-checked [Grid]
    accesses), the fast variants enumerate contiguous rows through the
    Fourier–Motzkin projection chain and read taps through precomputed
    flat-index deltas. Each row splits into a boundary prefix, an
    interior run and a boundary suffix: the interior run holds the
    points all of whose taps land in the space (an interval, found with
    one integer division per space constraint) and runs the kernel's
    row body, or its unguarded [compute] loop; the prefix and suffix
    test each tap for membership and read [boundary] values outside.
    [Native] runs the same OCaml row bodies as [Fastpath], never the
    compiled [.so], so a native parallel run is still checked against an
    independent implementation. All variants visit the space in the same
    lexicographic order, so results are bit-for-bit identical. *)

val run :
  ?variant:Walker.variant ->
  ?check:bool ->
  space:Tiles_poly.Polyhedron.t ->
  kernel:Kernel.t ->
  unit ->
  Grid.t
(** [variant] defaults to {!Walker.Fastpath}; [check] (default false)
    makes the fast variants validate reads against NaN poisoning (and
    disables the unrolled row bodies, so interior runs take the
    [compute] loop and every read is inspected). *)
