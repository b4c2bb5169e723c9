(* C source for the native walker: one compiled row function per
   (plan, kernel, skew). The OCaml walker keeps the row enumeration
   (Fourier–Motzkin + residue alignment) and hands each row to the
   compiled entry point, which does the per-point work: interior rows
   read through precomputed flat tap offsets with no guards; boundary
   rows guard each tap with [in_space] and fall back to the boundary
   function in original coordinates. Tap offsets arrive as LDS *cell*
   deltas exactly as the fast OCaml path uses them, so the two paths
   address identically and results are bit-for-bit equal. *)

module Plan = Tiles_core.Plan

let entry_symbol = "tilec_row"

let generate ~plan ~kernel ~skew ~reads () =
  let uses_j = Tiles_kir.Kir.uses_j kernel in
  let width = Tiles_kir.Kir.width kernel in
  let body = List.map (fun l -> "  " ^ l) (Tiles_kir.Kir.c_body kernel) in
  let store =
    if width = 1 then [ "  la[cur] = out[0];" ]
    else [ "  for (f = 0; f < W; f++) la[cur * W + f] = out[f];" ]
  in
  let advance_j = [ "  for (k = 0; k < NDIM; k++) j[k] += JSTEP[k];" ] in
  let per_point ~interior =
    (if uses_j then [ "  orig(j, jo);" ] else [])
    @ body @ store @ [ "  cur++;" ]
    @ (if uses_j || not interior then advance_j else [])
  in
  let scratch =
    [
      "  int jo[NDIM]; double out[W]; long s; int k, f;";
      "  (void)jo; (void)k; (void)f;";
    ]
  in
  let loop lines =
    [ "  for (s = 0; s < len; s++) {" ]
    @ List.map (fun l -> "  " ^ l) lines
    @ [ "  }" ]
  in
  let row_fn name ~interior =
    [
      Printf.sprintf
        "static void %s(double *la, long cur, const long *taps, int *j, \
         long len)"
        name;
      "{";
    ]
    @ scratch
    @ loop (per_point ~interior)
    @ [ "}" ]
  in
  let prelude =
    Emit_common.tables ~plan ~kernel ~skew ~reads
    @ [
        {|/* boundary-aware tap read: guard in skewed coordinates, boundary
   values in original coordinates (boundary() un-skews internally) */
static double rd_b(const double *la, long cur, const long *taps,
                   const int *j, int i, int f) {
  int src[NDIM], k;
  for (k = 0; k < NDIM; k++) src[k] = j[k] - D[i][k];
  return in_space(src) ? la[(cur + taps[i]) * W + f] : boundary(src, f);
}|};
        "#define WR(f) out[(f)]";
        "#define J(k) jo[(k)]";
        "";
        "#define RD(i, f) la[(cur + taps[(i)]) * W + (f)]";
      ]
    @ row_fn "row_interior" ~interior:true
    @ [ "#undef RD"; ""; "#define RD(i, f) rd_b(la, cur, taps, j, (i), (f))" ]
    @ row_fn "row_boundary" ~interior:false
    @ [ "#undef RD" ]
  in
  let entry =
    {
      C_ast.ret = "void";
      name = entry_symbol;
      params =
        [
          ("double *", "la");
          ("long", "cur");
          ("const long *", "taps");
          ("const long *", "j0");
          ("long", "len");
          ("long", "interior");
        ];
      body =
        [
          C_ast.RawStmt "int j[NDIM]; int k;";
          C_ast.RawStmt "for (k = 0; k < NDIM; k++) j[k] = (int)j0[k];";
          C_ast.RawStmt
            "if (interior) row_interior(la, cur, taps, j, len);";
          C_ast.RawStmt "else row_boundary(la, cur, taps, j, len);";
        ];
    }
  in
  C_ast.program ~includes:[ "math.h" ] ~prelude [ entry ]
