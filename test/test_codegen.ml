module Polyhedron = Tiles_poly.Polyhedron
module Nest = Tiles_loop.Nest
module Tiling = Tiles_core.Tiling
module Plan = Tiles_core.Plan
module C_ast = Tiles_codegen.C_ast
module Pseqgen = Tiles_codegen.Pseqgen
module Mpigen = Tiles_codegen.Mpigen
module Kernel = Tiles_runtime.Kernel
module Grid = Tiles_runtime.Grid
module Seq_exec = Tiles_runtime.Seq_exec
module Sor = Tiles_apps.Sor
module Jacobi = Tiles_apps.Jacobi
module Adi = Tiles_apps.Adi
module Triband = Tiles_apps.Triband

(* ---------- C AST ---------- *)

let expr_str e =
  let b = Buffer.create 64 in
  C_ast.pp_expr b e;
  Buffer.contents b

let test_expr_printing () =
  Alcotest.(check string) "add" "(x + 1)" (expr_str C_ast.(Add (Var "x", Int 1)));
  Alcotest.(check string) "floord" "floord(x, 2)"
    (expr_str C_ast.(FloorDiv (Var "x", Int 2)));
  Alcotest.(check string) "max" "imax(a, b)"
    (expr_str C_ast.(Max (Var "a", Var "b")));
  Alcotest.(check string) "neg int" "(-3)" (expr_str (C_ast.Int (-3)));
  Alcotest.(check string) "idx" "a[i][j]"
    (expr_str C_ast.(Idx ("a", [ Var "i"; Var "j" ])))

let test_simplify () =
  let s = C_ast.simplify in
  Alcotest.(check string) "x+0" "x" (expr_str (s C_ast.(Add (Var "x", Int 0))));
  Alcotest.(check string) "1*x" "x" (expr_str (s C_ast.(Mul (Int 1, Var "x"))));
  Alcotest.(check string) "0*x" "0" (expr_str (s C_ast.(Mul (Int 0, Var "x"))));
  Alcotest.(check string) "fold" "7" (expr_str (s C_ast.(Add (Int 3, Int 4))));
  Alcotest.(check string) "fdiv fold" "(-2)"
    (expr_str (s C_ast.(FloorDiv (Int (-7), Int 4))))

let test_balanced_braces src =
  let opens = ref 0 and closes = ref 0 in
  String.iter
    (fun c ->
      if c = '{' then incr opens else if c = '}' then incr closes)
    src;
  Alcotest.(check int) "balanced braces" !opens !closes

(* ---------- compile & run helpers ---------- *)

let run_cmd cmd =
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 256 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (status, Buffer.contents buf)

let tmpdir = Filename.get_temp_dir_name ()

(* locate the vendored MPI stub: walk up from cwd (works both under
   `dune runtest`, where deps are staged at _build/default/vendor, and
   when running the test binary from the source tree) *)
let stub_dir =
  lazy
    (let rec search dir depth =
       let cand = Filename.concat dir "vendor/mpistub" in
       if Sys.file_exists (Filename.concat cand "mpi.h") then Some cand
       else if depth = 0 then None
       else search (Filename.dirname dir) (depth - 1)
     in
     match search (Sys.getcwd ()) 8 with
     | Some d -> d
     | None -> Alcotest.fail "vendor/mpistub not found from cwd")

(* compile [src]; returns the executable's path *)
let compile ~mpi name src =
  let base = Filename.concat tmpdir ("tiles_" ^ name) in
  let cfile = base ^ ".c" and exe = base ^ ".exe" in
  let oc = open_out cfile in
  output_string oc src;
  close_out oc;
  let compile =
    if mpi then
      (* warnings are errors: no helper the schedule tables made dead
         stays behind *)
      let stub = Lazy.force stub_dir in
      Printf.sprintf
        "gcc -O1 -std=c99 -Wall -Wextra -Werror -I %s %s %s -lm -o %s 2>&1"
        (Filename.quote stub) (Filename.quote cfile)
        (Filename.quote (Filename.concat stub "mpi_stub.c"))
        (Filename.quote exe)
    else
      Printf.sprintf "gcc -O1 -std=c99 %s -lm -o %s 2>&1" (Filename.quote cfile)
        (Filename.quote exe)
  in
  let status, out = run_cmd compile in
  if status <> Unix.WEXITED 0 then
    Alcotest.failf "gcc failed for %s:\n%s" name out;
  exe

let compile_and_run ?(nprocs = 1) ~mpi name src =
  let exe = compile ~mpi name src in
  let status, out =
    run_cmd (Printf.sprintf "TILES_MPI_NPROCS=%d %s 2>&1" nprocs (Filename.quote exe))
  in
  if status <> Unix.WEXITED 0 then Alcotest.failf "%s run failed:\n%s" name out;
  out

let parse_output out =
  let points = ref (-1) and checksum = ref Float.nan in
  List.iter
    (fun line ->
      (try Scanf.sscanf line "points %d" (fun p -> points := p) with _ -> ());
      (* %a (sequential, exact) or %e (MPI) *)
      try Scanf.sscanf line "checksum %s" (fun c -> checksum := float_of_string c)
      with _ -> ())
    (String.split_on_char '\n' out);
  (!points, !checksum)

let rel_close a b =
  Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

(* the C generators' arguments, all carried by the resolved kernel *)
let c_kernel (k : Kernel.t) = Option.get k.Kernel.ckernel

(* the sequential program sums like Grid.checksum and prints %a *)
let check_exact name checksum oracle =
  if Int64.bits_of_float checksum <> Int64.bits_of_float oracle then
    Alcotest.failf "%s checksum %h vs oracle %h" name checksum oracle

(* ---------- generated sequential code vs OCaml oracle ---------- *)

let check_seq ~name ~nest ~kernel ~tiling =
  let space = nest.Nest.space in
  let src =
    Pseqgen.generate ~pspace:(Tiles_poly.Pspace.of_polyhedron space) ~tiling
      ~kernel:(c_kernel kernel) ~reads:kernel.Kernel.reads
      ~skew:kernel.Kernel.skew ()
  in
  test_balanced_braces src;
  let out = compile_and_run ~mpi:false name src in
  let points, checksum = parse_output out in
  Alcotest.(check int) (name ^ " points") (Polyhedron.count_points space) points;
  check_exact name checksum
    (Grid.checksum (Seq_exec.run ~space ~kernel ()) space)

let test_seqgen_sor () =
  let p = Sor.make ~m_steps:5 ~size:7 in
  check_seq ~name:"seq_sor" ~nest:(Sor.nest p) ~kernel:(Sor.kernel p)
    ~tiling:(Sor.nonrect ~x:3 ~y:4 ~z:3)

let test_seqgen_jacobi () =
  let p = Jacobi.make ~t_steps:4 ~size:6 in
  check_seq ~name:"seq_jacobi" ~nest:(Jacobi.nest p) ~kernel:(Jacobi.kernel p)
    ~tiling:(Jacobi.nonrect ~x:2 ~y:4 ~z:4)

let test_seqgen_adi () =
  let p = Adi.make ~t_steps:4 ~size:6 in
  check_seq ~name:"seq_adi" ~nest:(Adi.nest p) ~kernel:(Adi.kernel p)
    ~tiling:(Adi.nr3 ~x:2 ~y:3 ~z:3)

let test_seqgen_triband () =
  let p = Triband.make ~size:11 in
  check_seq ~name:"seq_triband" ~nest:(Triband.nest p)
    ~kernel:(Triband.kernel p) ~tiling:(Triband.oblique ~x:3 ~y:4)

(* ---------- generated MPI code vs OCaml oracle ---------- *)

(* the [messages N] line of an MPI program: its MPI_Send count *)
let parse_messages out =
  List.fold_left
    (fun acc line ->
      try Scanf.sscanf line "messages %d" (fun k -> Some k) with _ -> acc)
    None
    (String.split_on_char '\n' out)

let check_mpi ?m ~name ~nest ~kernel ~tiling () =
  let plan = Plan.make ?m nest tiling in
  let src =
    Mpigen.generate ~plan ~kernel:(c_kernel kernel) ~reads:kernel.Kernel.reads
      ~skew:kernel.Kernel.skew ()
  in
  test_balanced_braces src;
  Alcotest.(check bool) "has MPI_Send" true
    (Astring.String.is_infix ~affix:"MPI_Send" src);
  let out = compile_and_run ~mpi:true ~nprocs:(Plan.nprocs plan) name src in
  let points, checksum = parse_output out in
  let space = nest.Nest.space in
  Alcotest.(check int) (name ^ " points") (Polyhedron.count_points space) points;
  Alcotest.(check (option int)) (name ^ " messages")
    (Some (fst (Plan.comm_stats plan)))
    (parse_messages out);
  let oracle = Grid.checksum (Seq_exec.run ~space ~kernel ()) space in
  if not (rel_close checksum oracle) then
    Alcotest.failf "%s checksum %.12e vs oracle %.12e (procs=%d)" name checksum
      oracle (Plan.nprocs plan)

let test_mpigen_sor () =
  let p = Sor.make ~m_steps:6 ~size:8 in
  check_mpi ~m:2 ~name:"mpi_sor" ~nest:(Sor.nest p) ~kernel:(Sor.kernel p)
    ~tiling:(Sor.nonrect ~x:3 ~y:4 ~z:4) ()

let test_mpigen_sor_rect () =
  let p = Sor.make ~m_steps:6 ~size:8 in
  check_mpi ~m:2 ~name:"mpi_sor_rect" ~nest:(Sor.nest p) ~kernel:(Sor.kernel p)
    ~tiling:(Sor.rect ~x:3 ~y:4 ~z:4) ()

let test_mpigen_jacobi () =
  let p = Jacobi.make ~t_steps:4 ~size:7 in
  check_mpi ~m:0 ~name:"mpi_jacobi" ~nest:(Jacobi.nest p)
    ~kernel:(Jacobi.kernel p) ~tiling:(Jacobi.nonrect ~x:2 ~y:4 ~z:4) ()

let test_mpigen_adi () =
  let p = Adi.make ~t_steps:5 ~size:8 in
  check_mpi ~m:0 ~name:"mpi_adi" ~nest:(Adi.nest p) ~kernel:(Adi.kernel p)
    ~tiling:(Adi.nr3 ~x:3 ~y:4 ~z:4) ()

(* ---------- Bounds ---------- *)

let test_bounds_exprs () =
  let module Constr = Tiles_poly.Constr in
  let module FM = Tiles_poly.Fourier_motzkin in
  (* x0 >= 2, x0 <= 9, x1 >= x0, 2*x1 <= 3*x0 + 5 *)
  let cs =
    [
      Constr.ge [| 1; 0 |] 2;
      Constr.le [| 1; 0 |] 9;
      Constr.ge [| -1; 1 |] 0;
      Constr.le [| -3; 2 |] 5;
    ]
  in
  let proj = FM.project cs ~dim:2 in
  let name k = Printf.sprintf "x%d" k in
  Alcotest.(check string) "x0 lower" "2"
    (expr_str (Tiles_codegen.Bounds.lower (FM.system proj ~var:0) ~var:0 ~name));
  Alcotest.(check string) "x0 upper" "9"
    (expr_str (Tiles_codegen.Bounds.upper (FM.system proj ~var:0) ~var:0 ~name));
  Alcotest.(check string) "x1 lower" "x0"
    (expr_str (Tiles_codegen.Bounds.lower (FM.system proj ~var:1) ~var:1 ~name));
  Alcotest.(check string) "x1 upper" "floord((5 + (3 * x0)), 2)"
    (expr_str (Tiles_codegen.Bounds.upper (FM.system proj ~var:1) ~var:1 ~name));
  (* passing the unprojected system is an error, not a silent wrong bound *)
  Alcotest.(check bool) "unprojected raises" true
    (try
       ignore (Tiles_codegen.Bounds.upper cs ~var:0 ~name);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "unbounded raises" true
    (try
       ignore
         (Tiles_codegen.Bounds.upper [ Constr.ge [| 1 |] 0 ] ~var:0 ~name);
       false
     with Failure _ -> true)

let test_seqgen_rejects_read_mismatch () =
  let p = Adi.make ~t_steps:3 ~size:4 in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Pseqgen.generate
            ~pspace:(Tiles_poly.Pspace.of_polyhedron (Adi.nest p).Nest.space)
            ~tiling:(Adi.rect ~x:2 ~y:2 ~z:2) ~kernel:Adi.ckernel
            ~reads:[ [| 1; 0; 0 |] ] ());
       false
     with Invalid_argument _ -> true)

let test_mpigen_adi_rect () =
  let p = Adi.make ~t_steps:5 ~size:8 in
  check_mpi ~m:0 ~name:"mpi_adi_rect" ~nest:(Adi.nest p) ~kernel:(Adi.kernel p)
    ~tiling:(Adi.rect ~x:3 ~y:4 ~z:4) ()

let test_mpigen_single_process () =
  (* a plan whose grid collapses to one pid still generates and runs *)
  let p = Adi.make ~t_steps:6 ~size:4 in
  check_mpi ~m:0 ~name:"mpi_adi_1p" ~nest:(Adi.nest p) ~kernel:(Adi.kernel p)
    ~tiling:(Adi.rect ~x:2 ~y:4 ~z:4) ()

(* ---------- parametric sequential generation ---------- *)

let compile_parametric name src =
  let base = Filename.concat tmpdir ("tiles_" ^ name) in
  let cfile = base ^ ".c" and exe = base ^ ".exe" in
  let oc = open_out cfile in
  output_string oc src;
  close_out oc;
  let status, out =
    run_cmd
      (Printf.sprintf "gcc -O1 -std=c99 %s -lm -o %s 2>&1"
         (Filename.quote cfile) (Filename.quote exe))
  in
  if status <> Unix.WEXITED 0 then Alcotest.failf "gcc failed:\n%s" out;
  exe

let run_parametric exe args =
  let status, out =
    run_cmd (Printf.sprintf "%s %s 2>&1" (Filename.quote exe) args)
  in
  if status <> Unix.WEXITED 0 then Alcotest.failf "run failed:\n%s" out;
  parse_output out

let check_parametric ~name ~pspace ~tiling ~kernel_ml ~mk_nest sizes =
  let src =
    Pseqgen.generate ~pspace ~tiling ~kernel:(c_kernel kernel_ml)
      ~reads:kernel_ml.Kernel.reads ~skew:kernel_ml.Kernel.skew ()
  in
  test_balanced_braces src;
  (* one binary, several problem sizes *)
  let exe = compile_parametric name src in
  List.iter
    (fun (a, b) ->
      let points, checksum = run_parametric exe (Printf.sprintf "%d %d" a b) in
      let nest : Tiles_loop.Nest.t = mk_nest a b in
      Alcotest.(check int)
        (Printf.sprintf "%s points (%d,%d)" name a b)
        (Polyhedron.count_points nest.Nest.space)
        points;
      check_exact
        (Printf.sprintf "%s (%d,%d)" name a b)
        checksum
        (Grid.checksum
           (Seq_exec.run ~space:nest.Nest.space ~kernel:kernel_ml ())
           nest.Nest.space))
    sizes

let test_pseqgen_sor () =
  check_parametric ~name:"pseq_sor" ~pspace:(Sor.pspace ())
    ~tiling:(Sor.nonrect ~x:3 ~y:4 ~z:3)
    ~kernel_ml:(Sor.kernel (Sor.make ~m_steps:2 ~size:2))
    ~mk_nest:(fun m n -> Sor.nest (Sor.make ~m_steps:m ~size:n))
    [ (5, 7); (6, 9); (8, 8) ]

let test_pseqgen_adi () =
  check_parametric ~name:"pseq_adi" ~pspace:(Adi.pspace ())
    ~tiling:(Adi.nr3 ~x:2 ~y:3 ~z:3)
    ~kernel_ml:(Adi.kernel (Adi.make ~t_steps:2 ~size:2))
    ~mk_nest:(fun t n -> Adi.nest (Adi.make ~t_steps:t ~size:n))
    [ (4, 6); (5, 9); (7, 7) ]

let test_pseqgen_jacobi () =
  (* parametric + non-unimodular strides (1,2,1) together *)
  check_parametric ~name:"pseq_jacobi" ~pspace:(Jacobi.pspace ())
    ~tiling:(Jacobi.nonrect ~x:2 ~y:4 ~z:4)
    ~kernel_ml:(Jacobi.kernel (Jacobi.make ~t_steps:2 ~size:2))
    ~mk_nest:(fun t n -> Jacobi.nest (Jacobi.make ~t_steps:t ~size:n))
    [ (4, 7); (6, 10) ]

let test_mpigen_triband () =
  (* a triangular iteration space through the generated-code path *)
  let p = Triband.make ~size:18 in
  check_mpi ~m:0 ~name:"mpi_triband" ~nest:(Triband.nest p)
    ~kernel:(Triband.kernel p) ~tiling:(Triband.oblique ~x:4 ~y:5) ()

let test_mpigen_structure () =
  let p = Adi.make ~t_steps:4 ~size:6 in
  let plan = Plan.make ~m:0 (Adi.nest p) (Adi.nr3 ~x:2 ~y:3 ~z:3) in
  let src = Mpigen.generate ~plan ~kernel:Adi.ckernel ~reads:Adi.creads () in
  let has needle = Astring.String.is_infix ~affix:needle src in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %s" needle) true
        (has needle))
    [
      "MPI_Init"; "MPI_Recv"; "MPI_Send"; "MPI_Reduce"; "MPI_Finalize";
      "MPI_Abort"; "RFIRST["; "RECV["; "SEND["; "SDST["; "move_slab(";
      "lds_coords"; "ttis_start";
    ];
  (* the schedule is printed, not derived again in C *)
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "lacks %s" needle) false
        (has needle))
    [ "minsucc_ts"; "valid("; "rank_of"; "v_count" ]

(* a rank that exits before sending what rank 0 waits for: rank 0 sees
   EOF, says so (with no errno text, which would read "Success") and the
   program exits 1 *)
let test_mpi_stub_peer_exit () =
  let src =
    {|#include "mpi.h"
#include <stdio.h>
int main(int argc, char **argv) {
  int rank;
  double x = 0.;
  MPI_Init(&argc, &argv);
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  if (rank == 0)
    MPI_Recv(&x, 1, MPI_DOUBLE, 1, 7, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
  MPI_Finalize();
  printf("received %g\n", x);
  return 0;
}
|}
  in
  let exe = compile ~mpi:true "mpi_peer_exit" src in
  (* stderr only *)
  let status, err =
    run_cmd
      (Printf.sprintf "TILES_MPI_NPROCS=2 %s 2>&1 >/dev/null"
         (Filename.quote exe))
  in
  Alcotest.(check bool) "exit status 1" true (status = Unix.WEXITED 1);
  let has affix = Astring.String.is_infix ~affix err in
  Alcotest.(check bool)
    ("reports the EOF: " ^ err)
    true
    (has "mpistub rank 0: unexpected EOF from peer\n");
  Alcotest.(check bool) ("no errno text: " ^ err) false (has "Success")

let () =
  Alcotest.run "tiles_codegen"
    [
      ( "c-ast",
        [
          Alcotest.test_case "printing" `Quick test_expr_printing;
          Alcotest.test_case "simplify" `Quick test_simplify;
        ] );
      ("bounds", [ Alcotest.test_case "exprs" `Quick test_bounds_exprs ]);
      ( "seqgen",
        [
          Alcotest.test_case "sor" `Quick test_seqgen_sor;
          Alcotest.test_case "jacobi" `Quick test_seqgen_jacobi;
          Alcotest.test_case "adi" `Quick test_seqgen_adi;
          Alcotest.test_case "triband" `Quick test_seqgen_triband;
          Alcotest.test_case "read mismatch" `Quick test_seqgen_rejects_read_mismatch;
          Alcotest.test_case "parametric sor" `Quick test_pseqgen_sor;
          Alcotest.test_case "parametric adi" `Quick test_pseqgen_adi;
          Alcotest.test_case "parametric jacobi" `Quick test_pseqgen_jacobi;
        ] );
      ( "mpigen",
        [
          Alcotest.test_case "structure" `Quick test_mpigen_structure;
          Alcotest.test_case "sor nonrect" `Quick test_mpigen_sor;
          Alcotest.test_case "sor rect" `Quick test_mpigen_sor_rect;
          Alcotest.test_case "jacobi" `Quick test_mpigen_jacobi;
          Alcotest.test_case "adi" `Quick test_mpigen_adi;
          Alcotest.test_case "adi rect" `Quick test_mpigen_adi_rect;
          Alcotest.test_case "single process" `Quick test_mpigen_single_process;
          Alcotest.test_case "triband triangular" `Quick test_mpigen_triband;
          Alcotest.test_case "stub: peer exits early" `Quick
            test_mpi_stub_peer_exit;
        ] );
    ]
