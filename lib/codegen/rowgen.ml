(* C source for the native walker: one compiled row function per
   (plan, kernel, skew). The OCaml walker keeps the row enumeration
   (the plan's row table) and hands each row to the compiled entry
   point, which does the per-point work: every tap reads through the
   precomputed flat tap offsets with no guard, since the walker has
   filled each tap cell outside the space with its boundary value before
   the rank's first tile. Tap offsets arrive as LDS *cell* deltas exactly
   as the fast OCaml path uses them, so the two paths address
   identically and results are bit-for-bit equal. *)

module Plan = Tiles_core.Plan

let entry_symbol = "tilec_row"

let generate ~plan ~kernel ~skew ~reads () =
  let uses_j = Tiles_kir.Kir.uses_j kernel in
  let width = Tiles_kir.Kir.width kernel in
  let body = List.map (fun l -> "    " ^ l) (Tiles_kir.Kir.c_body kernel) in
  let store =
    if width = 1 then [ "    la[cur] = out[0];" ]
    else [ "    for (f = 0; f < W; f++) la[cur * W + f] = out[f];" ]
  in
  let per_point =
    (if uses_j then [ "    orig(j, jo);" ] else [])
    @ body @ store @ [ "    cur++;" ]
    @
    if uses_j then [ "    for (k = 0; k < NDIM; k++) j[k] += JSTEP[k];" ]
    else []
  in
  let prelude =
    Emit_common.tables ~plan ~kernel ~skew ~reads
    @ [
        "#define WR(f) out[(f)]";
        "#define J(k) jo[(k)]";
        "#define RD(i, f) la[(cur + taps[(i)]) * W + (f)]";
      ]
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
        ];
      body =
        List.map
          (fun l -> C_ast.RawStmt l)
          ([
             "int j[NDIM], jo[NDIM]; double out[W]; long s; int k, f;";
             "(void)jo; (void)f;";
             "for (k = 0; k < NDIM; k++) j[k] = (int)j0[k];";
             "for (s = 0; s < len; s++) {";
           ]
          @ per_point @ [ "}" ]);
    }
  in
  C_ast.program ~includes:[ "math.h" ] ~prelude [ entry ]
