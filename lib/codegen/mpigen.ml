module Plan = Tiles_core.Plan
module Tiling = Tiles_core.Tiling
module Tile_space = Tiles_core.Tile_space
module Mapping = Tiles_core.Mapping
module Comm = Tiles_core.Comm
module Polyhedron = Tiles_poly.Polyhedron
module Intmat = Tiles_linalg.Intmat
module Vec = Tiles_util.Vec

let direction_tables (plan : Plan.t) =
  let comm = plan.Plan.comm in
  let n = Tiling.dim plan.Plan.tiling in
  let dirs = comm.Comm.dm in
  let nd = List.length dirs in
  let max_ds =
    List.fold_left (fun acc (_, dss) -> max acc (List.length dss)) 1 dirs
  in
  let dmv = Array.make_matrix nd (max 1 (n - 1)) 0 in
  let dirnds = Array.make nd 0 in
  let dirds = Array.init nd (fun _ -> Array.make_matrix max_ds n 0) in
  let slablo = Array.make nd [||] in
  List.iteri
    (fun d (dm, dss) ->
      Array.blit dm 0 dmv.(d) 0 (n - 1);
      (* d^S(d^m) comes in receive order, matching the channel order *)
      dirnds.(d) <- List.length dss;
      List.iteri (fun s dS -> Array.blit dS 0 dirds.(d).(s) 0 n) dss;
      slablo.(d) <- Comm.slab_lo comm ~dm)
    dirs;
  (nd, max_ds, dmv, dirnds, dirds, slablo)

let generate ~plan ~kernel ~reads ?skew () =
  let tiling = plan.Plan.tiling in
  let n = Tiling.dim tiling in
  let skew = match skew with Some s -> s | None -> Intmat.identity n in
  if List.length reads <> Tiles_kir.Kir.nreads kernel then
    invalid_arg "Mpigen.generate: reads count differs from kernel.nreads";
  let mapping = plan.Plan.mapping in
  let comm = plan.Plan.comm in
  let m = comm.Comm.m in
  let np = Mapping.nprocs mapping in
  let pids = Array.init np (fun r -> Mapping.pid_of_rank mapping r) in
  let chlo = Array.init np (fun r -> fst (Mapping.chain mapping r)) in
  let chhi = Array.init np (fun r -> snd (Mapping.chain mapping r)) in
  let tsmin = Array.fold_left min max_int chlo in
  let nd, max_ds, dmv, dirnds, dirds, slablo = direction_tables plan in
  let flat_dirds =
    (* 3-D table flattened to [ND][MAXDS][NDIM] initialiser *)
    let row v = "{ " ^ String.concat ", " (Array.to_list (Array.map string_of_int v)) ^ " }" in
    let block d =
      "{ " ^ String.concat ", " (Array.to_list (Array.map row dirds.(d))) ^ " }"
    in
    Printf.sprintf "static const int DIRDS[%d][%d][%d] = { %s };" (max 1 nd)
      max_ds n
      (String.concat ", " (List.init nd block))
  in
  let ts_tables =
    Emit_common.constraint_tables "TS"
      (Polyhedron.constraints plan.Plan.tspace.Tile_space.poly)
      n
  in
  let tables =
    Emit_common.tables ~plan ~kernel ~skew ~reads
    @ ts_tables
    @ [
        Printf.sprintf "#define MDIM %d" m;
        Printf.sprintf "#define NP %d" np;
        Printf.sprintf "#define ND %d" nd;
        Printf.sprintf "#define TSMIN %d" tsmin;
        Emit_common.int_table2 "PIDS"
          (Array.map (fun p -> if n = 1 then [| 0 |] else p) pids);
        Emit_common.int_table1 "CHLO" chlo;
        Emit_common.int_table1 "CHHI" chhi;
        Emit_common.int_table1 "CCV" comm.Comm.cc;
        Emit_common.int_table1 "OFF" comm.Comm.off;
        Emit_common.int_table2 "DMV" dmv;
        Emit_common.int_table1 "DIRNDS" dirnds;
        flat_dirds;
      ]
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
}

/* the paper's valid(): is (pid, ts) a candidate tile? */
static int valid(const int *pid, int ts) {
  int s[NDIM], c, k; long acc;
  join_tile(pid, ts, s);
  for (c = 0; c < TSNC; c++) {
    acc = TSB[c];
    for (k = 0; k < NDIM; k++) acc += (long)TSA[c][k] * s[k];
    if (acc < 0) return 0;
  }
  return 1;
}

static int rank_of(const int *pid) {
  int r, k, ok;
  for (r = 0; r < NP; r++) {
    ok = 1;
    for (k = 0; k < NDIM - 1; k++)
      if (PIDS[r][k] != pid[k]) { ok = 0; break; }
    if (ok) return r;
  }
  return -1;
}

/* lexicographically minimum valid successor of (pid_pred, pred_ts) in
   direction d; successors share the pid, so this is the least ts */
static int minsucc_ts(const int *succ_pid, int pred_ts, int d) {
  int s, best = 1 << 30;
  for (s = 0; s < DIRNDS[d]; s++) {
    int ts = pred_ts + DIRDS[d][s][MDIM];
    if (valid(succ_pid, ts) && ts < best) best = ts;
  }
  return best;
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

static void v_count(const int *jp, const int *j, long cell, vctx *cx) {
  (void)jp; (void)j; (void)cell; cx->cnt++;
}
static void v_pack(const int *jp, const int *j, long cell, vctx *cx) {
  int f;
  (void)jp; (void)j;
  for (f = 0; f < W; f++) cx->buf[cx->cnt * W + f] = LA[cell * W + f];
  cx->cnt++;
}
static void v_unpack(const int *jp, const int *j, long cell, vctx *cx) {
  int f;
  (void)jp; (void)j;
  for (f = 0; f < W; f++)
    LA[(cell - cx->dshift) * W + f] = cx->buf[cx->cnt * W + f];
  cx->cnt++;
}
static void v_sum(const int *jp, const int *j, long cell, vctx *cx) {
  int f;
  (void)jp; (void)j;
  for (f = 0; f < W; f++) cx->sum += LA[cell * W + f];
  cx->cnt++;
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
  int rank, nprocs, k, ts, d, s;
  const int *pid;
  int chlo, chhi, ntiles;
  long tot, npoints = 0;
  int zero_lo[NDIM] = { 0 };
  double local[2], global[2];

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
    int trel = ts - chlo;
    int tile[NDIM];
    join_tile(pid, ts, tile);

    /* ---------------- RECEIVE ---------------- */
    for (d = 0; d < ND; d++) {
      int ppid[NDIM > 1 ? NDIM - 1 : 1];
      for (k = 0; k < NDIM - 1; k++) ppid[k] = pid[k] - DMV[d][k];
      for (s = 0; s < DIRNDS[d]; s++) {
        int pred_ts = ts - DIRDS[d][s][MDIM];
        if (valid(ppid, pred_ts) && minsucc_ts(pid, pred_ts, d) == ts) {
          int ptile[NDIM];
          vctx cx;
          double *buf;
          join_tile(ppid, pred_ts, ptile);
          memset(&cx, 0, sizeof cx);
          cx.tile = ptile;
          sweep(SLABLO[d], v_count, &cx);
          buf = (double *)malloc((size_t)(cx.cnt * W + 1) * sizeof(double));
          MPI_Recv(buf, (int)(cx.cnt * W), MPI_DOUBLE, rank_of(ppid),
                   pred_ts - TSMIN, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
          cx.buf = buf;
          cx.cnt = 0;
          cx.trel = trel;
          cx.dshift = lds_shift(DIRDS[d][s]);
          sweep(SLABLO[d], v_unpack, &cx);
          free(buf);
        }
      }
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
      int spid[NDIM > 1 ? NDIM - 1 : 1], succ = 0;
      for (k = 0; k < NDIM - 1; k++) spid[k] = pid[k] + DMV[d][k];
      for (s = 0; s < DIRNDS[d]; s++)
        if (valid(spid, ts + DIRDS[d][s][MDIM])) succ = 1;
      if (succ) {
        vctx cx;
        double *buf;
        memset(&cx, 0, sizeof cx);
        cx.tile = tile;
        cx.trel = trel;
        sweep(SLABLO[d], v_count, &cx);
        buf = (double *)malloc((size_t)(cx.cnt * W + 1) * sizeof(double));
        cx.buf = buf;
        cx.cnt = 0;
        sweep(SLABLO[d], v_pack, &cx);
        MPI_Send(buf, (int)(cx.cnt * W), MPI_DOUBLE, rank_of(spid),
                 ts - TSMIN, MPI_COMM_WORLD);
        free(buf);
      }
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
    MPI_Reduce(local, global, 2, MPI_DOUBLE, MPI_SUM, 0, MPI_COMM_WORLD);
    if (rank == 0) {
      printf("points %ld\n", (long)global[1]);
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
    @ [ Emit_common.int_table2 "SLABLO" slablo ]
    @ runtime @ compute_visitor
    @ [ ""; main ]);
  Buffer.contents buf
