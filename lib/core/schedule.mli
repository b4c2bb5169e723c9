(** The linear time schedule [Π = (1, 1, …, 1)] over the tile space and
    the paper's analytic completion-time argument (§4.1).

    A tile [j^S] executes at step [Π·j^S]; the makespan in steps is
    [max Π·j^S − min Π·j^S + 1] over candidate tiles. The paper's
    rectangular-vs-non-rectangular analysis compares
    [t = Π·⌊H·j_max⌋]-style expressions; we compute the exact step count
    from the candidate tile set, which subsumes that argument without
    needing [j_max] in closed form. *)

val steps : Plan.t -> int
(** Exact number of wavefront steps of the plan's tile space, from the
    mapping's chains in O(nprocs): every chain position is a candidate
    tile and every candidate tile a chain position. Raises
    [Invalid_argument] on an empty tile space. *)

val last_point_step : Plan.t -> int
(** The paper's §4 analytic quantity: [Π·⌊H·j_max⌋], the linear-schedule
    step of the lexicographically last iteration. The rectangular vs
    non-rectangular comparisons of §4.1–4.3 are differences of this value
    ([t_r − t_nr = M/z] for SOR, [(T+I)/2x] for Jacobi, [N/y + N/z] for
    ADI's nr3). Unlike {!steps} it is not inflated by nearly-empty corner
    tiles of oblique tilings. *)

val effective_steps : Plan.t -> int
(** [last_point_step − first_point_step + 1]: the schedule length between
    the first and last {e real} iterations. Unlike {!steps} it is not
    inflated by the nearly-empty corner tiles of oblique tilings
    (reproduction finding 4 in DESIGN.md), so the tuner's analytic
    predictor ranks mixed shape families sensibly. *)
