(* Prints the OCaml renditions of every kernel in Defs, one module per
   kernel ending in the runtime kernel built from the IR value itself;
   the rule in lib/apps/dune writes them to bodies.ml. *)

let () =
  print_string "(* Generated from lib/apps/kernels/defs.ml; do not edit. *)\n";
  Tiles_kernels.Defs.all
  |> List.iter (fun (k : Tiles_kir.Kir.t) ->
         Printf.printf
           "\nmodule %s = struct\n%s\nlet kernel =\n\
           \  Tiles_runtime.Kernel.of_ir Tiles_kernels.Defs.%s ~compute ~row\n\
           \    ~statics ~boundary ()\nend\n"
           (String.capitalize_ascii k.name) (Tiles_kir.Kir.ml_defs k) k.name)
