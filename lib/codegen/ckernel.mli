(** The loop body the code generators print, as {!Tiles_kir.Kir} IR:
    {!Tiles_kir.Kir.c_body} over the macros [J(k)] (original-space
    coordinate), [RD(i, f)] (field [f] at [j − reads.(i)]) and [WR(f)],
    and {!Tiles_kir.Kir.c_boundary} for points outside the space. *)

type t = Tiles_kir.Kir.t
