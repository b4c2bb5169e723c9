type iexpr = J of int | Int of int | Iop of iop * iexpr * iexpr
and iop = Iadd | Isub | Imul | Imod

type expr =
  | Rd of int array * int
  | Const of float
  | Op of op * expr * expr
  | Sin of expr
  | Cos of expr
  | Float of iexpr
  | Var of string

and op = Add | Sub | Mul | Div

type t = {
  name : string;
  dim : int;
  lets : (string * expr) list;
  out : expr list;
  boundary : expr list;
}

(* the nodes of an expression, preorder, left to right *)
let rec nodes e =
  e
  :: (match e with
     | Op (_, a, b) -> nodes a @ nodes b
     | Sin a | Cos a -> nodes a
     | _ -> [])

let rec inodes = function
  | Iop (_, a, b) as e -> e :: (inodes a @ inodes b)
  | e -> [ e ]

let coords es =
  List.concat_map
    (function Float i -> inodes i | _ -> [])
    (List.concat_map nodes es)

let exprs k = List.map snd k.lets @ k.out
let dedup l = List.fold_right (fun x acc -> x :: List.filter (( <> ) x) acc) l []

(* distinct (offset, field) pairs in first-use order *)
let taps k =
  dedup
    (List.filter_map
       (function Rd (d, f) -> Some (d, f) | _ -> None)
       (List.concat_map nodes (exprs k)))

let reads k = dedup (List.map fst (taps k))
let width k = List.length k.out
let nreads k = List.length (reads k)
let mentions_j es = List.exists (function J _ -> true | _ -> false) (coords es)
let uses_j k = mentions_j (exprs k)

let jset es =
  List.sort_uniq compare
    (List.filter_map (function J c -> Some c | _ -> None) (coords es))

(* A let that reads no data and no other let and leaves some coordinate
   out: its values over the coordinates it mentions fit a table. *)
let statics k =
  List.filter_map
    (fun (v, e) ->
      let cs = jset [ e ] in
      if
        List.length cs < k.dim
        && not
             (List.exists (function Rd _ | Var _ -> true | _ -> false) (nodes e))
      then Some (v, cs)
      else None)
    k.lets

let make ~name ~dim ?(lets = []) ~out ~boundary () =
  let k = { name; dim; lets; out; boundary } in
  let fail what = invalid_arg (Printf.sprintf "Kir.make %s: %s" name what) in
  if out = [] || List.length boundary <> width k then
    fail "need one boundary expression per output";
  (* a let sees the lets before it; the boundary sees no lets and no data *)
  let check scope ~data e =
    List.iter
      (function
        | Rd (d, f) ->
          if (not data) || Array.length d <> dim || f < 0 || f >= width k then
            fail "read"
        | Var v -> if not (List.mem v scope) then fail ("unbound " ^ v)
        | _ -> ())
      (nodes e);
    if List.exists (function J c -> c < 0 || c >= dim | _ -> false) (coords [ e ])
    then fail "coordinate"
  in
  let names = List.map fst lets in
  List.iteri
    (fun n (_, e) -> check (List.filteri (fun i _ -> i < n) names) ~data:true e)
    lets;
  List.iter (check names ~data:true) out;
  List.iter (check [] ~data:false) boundary;
  if reads k = [] then fail "no reads";
  k

(* ---------- printing ---------- *)

(* the shortest decimal that reads back to [x] exactly *)
let float_lit x =
  let s =
    List.find
      (fun s -> float_of_string s = x)
      (List.map (fun p -> Printf.sprintf "%.*g" p x) [ 15; 16; 17 ])
  in
  let s = if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0" in
  if Float.sign_bit x then "(" ^ s ^ ")" else s

let index reads d = Option.get (List.find_index (( = ) d) reads)

(* Both languages rank additive 1 < multiplicative 2 < atom 3 with every
   binary operator left-associative, so one precedence walk serves C and
   OCaml ([ml]) and the parentheses follow the tree exactly. [rd i f]
   prints field [f] of read [i], [jk k] coordinate [k]. *)
let pr ~ml ~rd ~jk reads =
  let bin go ctx p a o b =
    let s = go p a ^ " " ^ o ^ " " ^ go (p + 1) b in
    if p < ctx then "(" ^ s ^ ")" else s
  in
  let rec pr_i ctx = function
    | J k -> jk k
    | Int n -> if n < 0 then Printf.sprintf "(%d)" n else string_of_int n
    | Iop (Iadd, a, b) -> bin pr_i ctx 1 a "+" b
    | Iop (Isub, a, b) -> bin pr_i ctx 1 a "-" b
    | Iop (Imul, a, b) -> bin pr_i ctx 2 a "*" b
    | Iop (Imod, a, b) -> bin pr_i ctx 2 a (if ml then "mod" else "%") b
  in
  let call f a = if ml then f ^ " (" ^ a ^ ")" else f ^ "(" ^ a ^ ")" in
  let rec go ctx = function
    | Rd (d, f) -> rd (index reads d) f
    | Const x -> float_lit x
    | Op (o, a, b) ->
      let s, p =
        match o with Add -> ("+", 1) | Sub -> ("-", 1) | Mul -> ("*", 2) | Div -> ("/", 2)
      in
      bin go ctx p a (if ml then s ^ "." else s) b
    | Sin a -> call "sin" (go 0 a)
    | Cos a -> call "cos" (go 0 a)
    | Float i -> (if ml then "float_of_int " else "(double)") ^ pr_i 3 i
    | Var v -> "v_" ^ v
  in
  go 0

(* one line per field, the last field as the fallback *)
let by_field ~test ~last es =
  List.mapi (fun f e -> if f = List.length es - 1 then last e else test f e) es

let c_body k =
  let pr = pr ~ml:false ~rd:(Printf.sprintf "RD(%d,%d)") ~jk:(Printf.sprintf "J(%d)") (reads k) in
  let lets =
    List.map (fun (v, e) -> Printf.sprintf "  double v_%s = %s;" v (pr e)) k.lets
  in
  let outs = List.mapi (fun f e -> Printf.sprintf "WR(%d) = %s;" f (pr e)) k.out in
  if lets = [] then outs else ("{" :: lets) @ List.map (( ^ ) "  ") outs @ [ "}" ]

let c_boundary k =
  let pr = pr ~ml:false ~rd:(fun _ _ -> "") ~jk:(Printf.sprintf "j[%d]") [] in
  by_field k.boundary
    ~test:(fun f e -> Printf.sprintf "if (f == %d) return %s;" f (pr e))
    ~last:(fun e -> Printf.sprintf "return %s;" (pr e))

let ml_defs k =
  let p = Printf.sprintf and reads = reads k in
  let pr ?(jk = p "j.(%d)") e = pr ~ml:true ~rd:(p "r%d_%d") ~jk reads e in
  (* each (read, field) tap let-bound once, in first-use order *)
  let tap_lets ind get =
    List.map
      (fun (d, f) ->
        let i = index reads d in
        p "%slet r%d_%d = %s in" ind i f (get i f))
      (taps k)
  in
  let compute =
    p "let compute ~read ~%s ~out =" (if uses_j k then "j" else "j:_")
    :: tap_lets "  " (p "read %d %d")
    @ List.map (fun (v, e) -> p "  let v_%s = %s in" v (pr e)) k.lets
    @ [
        "  "
        ^ String.concat ";\n  "
            (List.mapi (fun f e -> p "out.(%d) <- %s" f (pr e)) k.out);
      ]
  in
  (* statics: each static let as a function of the coordinates, the
     expression [compute] evaluates per point *)
  let statics = statics k in
  let static_fns =
    if statics = [] then [ "let statics = [||]" ]
    else
      "let statics =" :: "  [|"
      :: List.map
           (fun (v, _) ->
             p "    (fun (j : int array) -> %s);" (pr (List.assoc v k.lets)))
           statics
      @ [ "  |]" ]
  in
  (* row: the fast walkers' interior row. The [la] annotation is
     load-bearing: left polymorphic in kind/layout, every access compiles
     to a generic C call instead of an inline load. A static let is read
     from the table at [c + s·d]; other coordinates step from [j] by
     [jstep]. *)
  let wd = width k in
  let dynamic =
    List.filter (fun (v, _) -> not (List.mem_assoc v statics)) k.lets
  in
  let js = jset (List.map snd dynamic @ k.out) in
  let steps = statics <> [] || js <> [] in
  let b = if wd = 1 then "i" else "b" in
  let slot base f = if f = 0 then base else p "%s + %d" base f in
  let pr_r = pr ~jk:(p "j%d") in
  let get a i = p "Bigarray.Array1.unsafe_get %s (%s)" a i in
  let kernel = "Tiles_runtime.Kernel" in
  let row =
    p "let row ~(la : Tiles_util.Fbuf.t) ~dst ~taps ~len ~%s ~%s ~%s ="
      (if steps then "j" else "j:_")
      (if steps then "jstep" else "jstep:_")
      (if statics = [] then "coefs:_" else p "(coefs : %s.coefs)" kernel)
    :: List.mapi
         (fun i _ ->
           if wd = 1 then p "  let t%d = taps.(%d) in" i i
           else p "  let t%d = %d * taps.(%d) in" i wd i)
         reads
    @ (if statics = [] then []
       else
         [ p "  let cf : Tiles_util.Fbuf.t = coefs.%s.data in" kernel ])
    @ List.concat
        (List.mapi
           (fun q _ ->
             [
               p "  let c%d = %s.coef_start coefs %d j in" q kernel q;
               p "  let d%d = %s.coef_step coefs %d jstep in" q kernel q;
             ])
           statics)
    @ List.map
        (fun c -> p "  let jb%d = j.(%d) and jd%d = jstep.(%d) in" c c c c)
        js
    @ [ "  for i = dst to dst + len - 1 do" ]
    @ (if steps then [ "    let s = i - dst in" ] else [])
    @ (if wd > 1 then [ p "    let b = %d * i in" wd ] else [])
    @ List.map (fun c -> p "    let j%d = jb%d + (s * jd%d) in" c c c) js
    @ tap_lets "    " (fun i f -> get "la" (slot (p "%s + t%d" b i) f))
    @ List.map
        (fun (v, e) ->
          match List.find_index (fun (w, _) -> w = v) statics with
          | Some q ->
            p "    let v_%s = %s in" v (get "cf" (p "c%d + (s * d%d)" q q))
          | None -> p "    let v_%s = %s in" v (pr_r e))
        k.lets
    @ List.mapi (fun f e -> p "    let o%d = %s in" f (pr_r e)) k.out
    @ [
        "    "
        ^ String.concat ";\n    "
            (List.mapi
               (fun f _ ->
                 p "Bigarray.Array1.unsafe_set la (%s) o%d" (slot b f) f)
               k.out);
        "  done";
      ]
  in
  let boundary =
    p "let boundary %s %s ="
      (if mentions_j k.boundary then "(j : int array)" else "_")
      (if width k = 1 then "_" else "f")
    :: by_field k.boundary
         ~test:(fun f e -> p "  if f = %d then %s else" f (pr e))
         ~last:(fun e -> "  " ^ pr e)
  in
  String.concat "\n"
    (List.concat_map (fun d -> d @ [ "" ]) [ compute; static_fns; row; boundary ])
