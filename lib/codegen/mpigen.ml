module Plan = Tiles_core.Plan
module Tiling = Tiles_core.Tiling
module Mapping = Tiles_core.Mapping
module Comm = Tiles_core.Comm
module Count_table = Tiles_core.Count_table
module Intmat = Tiles_linalg.Intmat

(* C has no empty arrays: a table without rows or columns gets a zero
   row or column that nothing reads *)
let table2 name ~cols rows =
  let cols = max 1 cols in
  let pad r = if r = [||] then Array.make cols 0 else r in
  Emit_common.int_table2 name
    (if rows = [||] then [| Array.make cols 0 |] else Array.map pad rows)

(* The plan's message schedule, printed from its count table. Rank r's
   tile at chain position trel is entry FIRST[r] + trel; SEND[e][d] is
   the cells it sends in direction d (-1: none) to rank SDST[r][d], and
   its receives are RECV[RFIRST[e]] .. RECV[RFIRST[e + 1] - 1], in
   channel order, each { source rank, tag (the source's t^S), direction,
   d^S index, cells }. *)
let schedule_tables (plan : Plan.t) ~nd =
  let counts = Plan.counts plan in
  let mapping = plan.Plan.mapping in
  let np = Mapping.nprocs mapping in
  let first = Array.make np 0 in
  let ne = ref 0 and nrecv = ref 0 in
  let sends = ref [] and rfirst = ref [ 0 ] and recvs = ref [] in
  for rank = 0 to np - 1 do
    first.(rank) <- !ne;
    let lo, hi = Mapping.chain mapping rank in
    for trel = 0 to hi - lo do
      sends :=
        Array.init nd (fun dir -> Count_table.slab counts ~rank ~trel ~dir)
        :: !sends;
      List.iter
        (fun { Count_table.src; tag; dir; ds; cells } ->
          recvs := [| src; tag; dir; ds; cells |] :: !recvs;
          incr nrecv)
        (Count_table.recvs counts ~rank ~trel);
      rfirst := !nrecv :: !rfirst;
      incr ne
    done
  done;
  let rows l = Array.of_list (List.rev l) in
  [
    Emit_common.int_table1 "FIRST" first;
    table2 "SEND" ~cols:nd (rows !sends);
    table2 "SDST" ~cols:nd
      (Array.init np (fun rank ->
           Array.init nd (fun dir -> Count_table.dst counts ~rank ~dir)));
    Emit_common.int_table1 "RFIRST" (rows !rfirst);
    table2 "RECV" ~cols:5 (rows !recvs);
  ]

let generate ~plan ~kernel ~reads ?skew () =
  let tiling = plan.Plan.tiling in
  let n = Tiling.dim tiling in
  let skew = match skew with Some s -> s | None -> Intmat.identity n in
  if List.length reads <> Tiles_kir.Kir.nreads kernel then
    invalid_arg "Mpigen.generate: reads count differs from kernel.nreads";
  let mapping = plan.Plan.mapping in
  let comm = plan.Plan.comm in
  let np = Mapping.nprocs mapping in
  let chlo = Array.init np (fun r -> fst (Mapping.chain mapping r)) in
  let chhi = Array.init np (fun r -> snd (Mapping.chain mapping r)) in
  let dirs = comm.Comm.dm in
  let nd = List.length dirs in
  let max_ds =
    List.fold_left (fun acc (_, dss) -> max acc (List.length dss)) 1 dirs
  in
  (* d^S(d^m) of direction d at rows d * MAXDS + s, in receive order:
     a receive's d^S index is s *)
  let dirds =
    List.concat_map
      (fun (_, dss) ->
        List.init max_ds (fun s ->
            Option.value (List.nth_opt dss s) ~default:[||]))
      dirs
  in
  let tables =
    Emit_common.tables ~plan ~kernel ~skew ~reads
    @ [
        Printf.sprintf "#define MDIM %d" comm.Comm.m;
        Printf.sprintf "#define NP %d" np;
        Printf.sprintf "#define ND %d" nd;
        Printf.sprintf "#define MAXDS %d" max_ds;
        Printf.sprintf "#define TSMIN %d" (Array.fold_left min max_int chlo);
        Emit_common.int_table2 "PIDS" mapping.Mapping.pids;
        Emit_common.int_table1 "CHLO" chlo;
        Emit_common.int_table1 "CHHI" chhi;
        Emit_common.int_table1 "OFF" comm.Comm.off;
        table2 "DIRDS" ~cols:n (Array.of_list dirds);
        table2 "SLABLO" ~cols:n
          (Array.of_list
             (List.map (fun (dm, _) -> Comm.slab_lo comm ~dm) dirs));
      ]
    @ schedule_tables plan ~nd
  in
  let runtime =
    [
      {|/* ------------------------------------------------------------------ */
/* tile-space / mapping helpers                                         */
static int LDIMS[NDIM];
static long LSTR[NDIM]; /* row-major LDS strides (innermost = 1) */
static double *LA;

static void join_tile(const int *pid, int ts, int *s) {
  int k, kk = 0;
  for (k = 0; k < NDIM; k++) s[k] = (k == MDIM) ? ts : pid[kk++];
}|};
      {|/* LDS addressing (Tables 1-2): condensed coordinates + halo offsets */
static void lds_coords(const int *jp, int trel, int *q) {
  int k;
  for (k = 0; k < NDIM; k++)
    q[k] = (k == MDIM ? floord(trel * V[k] + jp[k], CS[k])
                      : floord(jp[k], CS[k])) + OFF[k];
}
static long lds_lin(const int *q) {
  int k; long idx = 0;
  for (k = 0; k < NDIM; k++) idx = idx * LDIMS[k] + q[k];
  return idx;
}
/* constant LDS cell shift of an unpack placement d^S (the lds_coords
   offset is affine in q, so the shift is row-independent) */
static long lds_shift(const int *ds) {
  int k; long sh = 0;
  for (k = 0; k < NDIM; k++) sh += (long)ds[k] * (V[k] / CS[k]) * LSTR[k];
  return sh;
}|};
      {|/* visitor-driven sweep of one tile's TTIS slab [lo, V), clipped to J^n */
typedef struct {
  double *buf;       /* pack/unpack staging */
  long cap;          /* cells buf holds: a longer walk only counts */
  long cnt;
  int trel;
  const int *tile;
  long dshift;       /* unpack placement shift, in LDS cells */
  long rowoff[NRD];  /* per-row tap cell offsets (want_taps only) */
  int want_taps;
  double sum;
} vctx;
typedef void (*visit_fn)(const int *jp, const int *j, long cell, vctx *cx);

static void slab_rec(int k, int *jp, const int *lo, visit_fn fn, vctx *cx) {
  int r = ttis_start(k, jp);
  int lb = lo[k] > 0 ? lo[k] : 0;
  int start = r + CS[k] * ceild(lb - r, CS[k]);
  if (k == NDIM - 1) {
    /* innermost row: hoist global/LDS addressing to the row start, then
       advance by constant deltas -- consecutive TTIS points occupy
       consecutive LDS cells, so the cell stride is 1 */
    int j[NDIM], q[NDIM], i;
    long cell;
    if (start >= V[k]) return;
    jp[k] = start;
    global_of(cx->tile, jp, j);
    lds_coords(jp, cx->trel, q);
    cell = lds_lin(q);
    if (cx->want_taps) {
      int sp[NDIM], qq[NDIM], rd;
      for (rd = 0; rd < NRD; rd++) {
        for (i = 0; i < NDIM; i++) sp[i] = jp[i] - DP[rd][i];
        lds_coords(sp, cx->trel, qq);
        cx->rowoff[rd] = lds_lin(qq) - cell;
      }
    }
    for (; jp[k] < V[k]; jp[k] += CS[k]) {
      if (in_space(j)) fn(jp, j, cell, cx);
      for (i = 0; i < NDIM; i++) j[i] += JSTEP[i];
      cell += 1;
    }
    return;
  }
  for (jp[k] = start; jp[k] < V[k]; jp[k] += CS[k])
    slab_rec(k + 1, jp, lo, fn, cx);
}
static void sweep(const int *lo, visit_fn fn, vctx *cx) {
  int jp[NDIM];
  slab_rec(0, jp, lo, fn, cx);
}

static void v_pack(const int *jp, const int *j, long cell, vctx *cx) {
  int f;
  (void)jp; (void)j;
  if (cx->cnt < cx->cap)
    for (f = 0; f < W; f++) cx->buf[cx->cnt * W + f] = LA[cell * W + f];
  cx->cnt++;
}
static void v_unpack(const int *jp, const int *j, long cell, vctx *cx) {
  int f;
  (void)jp; (void)j;
  if (cx->cnt < cx->cap)
    for (f = 0; f < W; f++)
      LA[(cell - cx->dshift) * W + f] = cx->buf[cx->cnt * W + f];
  cx->cnt++;
}
static void v_sum(const int *jp, const int *j, long cell, vctx *cx) {
  int f;
  (void)jp; (void)j;
  for (f = 0; f < W; f++) cx->sum += LA[cell * W + f];
  cx->cnt++;
}

/* pack (v_pack) or unpack (v_unpack) one slab of direction d through
   buf, which holds the schedule's cells. A walk of any other length is
   the C form of the OCaml protocol's Slab_mismatch. */
static void move_slab(visit_fn fn, int d, double *buf, int cells,
                      const int *tile, int trel, long dshift, int rank,
                      int ts) {
  vctx cx;
  memset(&cx, 0, sizeof cx);
  cx.buf = buf;
  cx.cap = cells;
  cx.tile = tile;
  cx.trel = trel;
  cx.dshift = dshift;
  sweep(SLABLO[d], fn, &cx);
  if (cx.cnt == cells) return;
  fprintf(stderr,
          "rank %d %s cell count mismatch for direction %d at tile t^S=%d: "
          "expected %d cells, walked %ld\n",
          rank, fn == v_pack ? "pack" : "unpack", d, ts, cells, cx.cnt);
  MPI_Abort(MPI_COMM_WORLD, 1);
}|};
      {|/* LDS read for the loop body: halo-aware via the per-row constant tap
   offsets, boundary-aware via the space test on the source point */
static double rd_mpi(const vctx *cx, const int *j, long cell, int r, int f) {
  int src[NDIM], k;
  for (k = 0; k < NDIM; k++) src[k] = j[k] - D[r][k];
  if (!in_space(src)) return boundary(src, f);
  return LA[(cell + cx->rowoff[r]) * W + f];
}
#define RD(i, f) rd_mpi(cx, j, cell, (i), (f))
#define WR(f) out[(f)]
#define J(k) jo[(k)]|};
    ]
  in
  let compute_visitor =
    [
      "static void v_compute(const int *jp, const int *j, long cell, vctx *cx) {";
      "  double out[W]; int jo[NDIM], f;";
      "  (void)jp;";
      "  orig(j, jo);";
      "  /* ---- loop body ---- */";
    ]
    @ List.map (fun l -> "  " ^ l) (Tiles_kir.Kir.c_body kernel)
    @ [
        "  /* ---- store ---- */";
        "  for (f = 0; f < W; f++) LA[cell * W + f] = out[f];";
        "  cx->cnt++;";
        "}";
      ]
  in
  let main =
    {|int main(int argc, char **argv) {
  int rank, nprocs, k, ts, d, i;
  const int *pid;
  int chlo, chhi, ntiles;
  long tot, npoints = 0, nsent = 0;
  int zero_lo[NDIM] = { 0 };
  double local[3], global[3];

  MPI_Init(&argc, &argv);
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  MPI_Comm_size(MPI_COMM_WORLD, &nprocs);
  if (nprocs != NP) {
    if (rank == 0) fprintf(stderr, "this program requires exactly %d ranks\n", NP);
    MPI_Finalize();
    return 1;
  }
  pid = PIDS[rank];
  chlo = CHLO[rank];
  chhi = CHHI[rank];
  ntiles = chhi - chlo + 1;
  tot = 1;
  for (k = 0; k < NDIM; k++) {
    LDIMS[k] = OFF[k] + (k == MDIM ? ntiles : 1) * (V[k] / CS[k]);
    tot *= LDIMS[k];
  }
  LSTR[NDIM - 1] = 1;
  for (k = NDIM - 2; k >= 0; k--) LSTR[k] = LSTR[k + 1] * LDIMS[k + 1];
  LA = (double *)calloc((size_t)tot * W, sizeof(double));

  for (ts = chlo; ts <= chhi; ts++) {
    int trel = ts - chlo, e = FIRST[rank] + trel;
    int tile[NDIM];
    join_tile(pid, ts, tile);

    /* ---------------- RECEIVE ---------------- */
    for (i = RFIRST[e]; i < RFIRST[e + 1]; i++) {
      const int *rv = RECV[i]; /* source, tag, direction, d^S, cells */
      int ptile[NDIM];
      double *buf = (double *)malloc((size_t)(rv[4] * W + 1) * sizeof(double));
      MPI_Recv(buf, rv[4] * W, MPI_DOUBLE, rv[0], rv[1] - TSMIN,
               MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      join_tile(PIDS[rv[0]], rv[1], ptile);
      move_slab(v_unpack, rv[2], buf, rv[4], ptile, trel,
                lds_shift(DIRDS[rv[2] * MAXDS + rv[3]]), rank, ts);
      free(buf);
    }

    /* ---------------- COMPUTE ---------------- */
    {
      vctx cx;
      memset(&cx, 0, sizeof cx);
      cx.tile = tile;
      cx.trel = trel;
      cx.want_taps = 1;
      sweep(zero_lo, v_compute, &cx);
      npoints += cx.cnt;
    }

    /* ---------------- SEND ---------------- */
    for (d = 0; d < ND; d++) {
      int cells = SEND[e][d];
      double *buf;
      if (cells < 0) continue;
      buf = (double *)malloc((size_t)(cells * W + 1) * sizeof(double));
      move_slab(v_pack, d, buf, cells, tile, trel, 0, rank, ts);
      MPI_Send(buf, cells * W, MPI_DOUBLE, SDST[rank][d], ts - TSMIN,
               MPI_COMM_WORLD);
      nsent++;
      free(buf);
    }
  }

  /* ---------------- verification output ---------------- */
  {
    vctx cx;
    double lsum = 0.0;
    for (ts = chlo; ts <= chhi; ts++) {
      int tile[NDIM];
      join_tile(pid, ts, tile);
      memset(&cx, 0, sizeof cx);
      cx.tile = tile;
      cx.trel = ts - chlo;
      sweep(zero_lo, v_sum, &cx);
      lsum += cx.sum;
    }
    local[0] = lsum;
    local[1] = (double)npoints;
    local[2] = (double)nsent;
    MPI_Reduce(local, global, 3, MPI_DOUBLE, MPI_SUM, 0, MPI_COMM_WORLD);
    if (rank == 0) {
      printf("points %ld\n", (long)global[1]);
      printf("messages %ld\n", (long)global[2]);
      printf("checksum %.10e\n", global[0]);
    }
  }
  free(LA);
  MPI_Finalize();
  return 0;
}|}
  in
  let buf = Buffer.create 8192 in
  List.iter
    (fun l ->
      Buffer.add_string buf l;
      Buffer.add_char buf '\n')
    ([ "#include <stdio.h>"; "#include <stdlib.h>"; "#include <string.h>";
       "#include <math.h>"; "#include \"mpi.h\""; "" ]
    @ [ C_ast.helpers; "" ]
    @ tables
    @ runtime @ compute_visitor
    @ [ ""; main ]);
  Buffer.contents buf
