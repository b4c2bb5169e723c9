(** The loop bodies of the apps, each written once as {!Tiles_kir.Kir}
    IR over original (unskewed) coordinates. [gen_bodies] prints their
    OCaml renditions into [lib/apps] at build time; the code generators
    print their C renditions. Each is bound under its kernel's name,
    which the generated code uses to refer back to it; [all] lists the
    four. *)

val sor : Tiles_kir.Kir.t
val jacobi : Tiles_kir.Kir.t
val adi : Tiles_kir.Kir.t
val triband : Tiles_kir.Kir.t
val all : Tiles_kir.Kir.t list
