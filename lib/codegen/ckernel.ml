type t = Tiles_kir.Kir.t
