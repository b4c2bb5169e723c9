(* Smoke test of the benchmark itself: every workload at minimum length
   on a small seed, untraced and traced. Each run must print, as its last
   line, every metric BENCHMARK.json names for that mode, finite and with
   its unit, and fail no op.

     smoke.exe path/to/main.exe path/to/BENCHMARK.json *)

module Json = Tiles_util.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("smoke: " ^ s); exit 1) fmt

let member k j =
  match Json.member k j with Some v -> v | None -> fail "missing key %s" k

let list k j = match member k j with Json.List l -> l | _ -> fail "%s: not a list" k
let str k j = match Json.to_str_opt (member k j) with Some s -> s | None -> fail "%s: not a string" k

let run main args =
  let ic = Unix.open_process_args_in main (Array.of_list (main :: args)) in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "%s exited abnormally" (String.concat " " args));
  match List.rev (List.filter (fun l -> String.trim l <> "") lines) with
  | last :: _ -> (
    match Json.parse last with
    | Ok j -> j
    | Error e -> fail "%s: last line is not JSON: %s" (String.concat " " args) e)
  | [] -> fail "%s printed nothing" (String.concat " " args)

let () =
  let main =
    let m = Sys.argv.(1) in
    if Filename.is_implicit m then Filename.concat (Sys.getcwd ()) m else m
  in
  let spec =
    match Json.parse (In_channel.with_open_text Sys.argv.(2) In_channel.input_all) with
    | Ok j -> j
    | Error e -> fail "BENCHMARK.json: %s" e
  in
  let named k = List.map (fun m -> (str "name" m, str "unit" m)) (list k spec) in
  List.iter
    (fun w ->
      let workload = str "name" w in
      List.iter
        (fun (trace, expected) ->
          let args =
            [ "--workload"; workload; "--seed"; "7"; "--seconds"; "1"; "--trace"; trace ]
          in
          let r = run main args in
          let where = workload ^ " --trace " ^ trace in
          if member "correct" r <> Json.Bool true then fail "%s: not correct" where;
          if member "failed" r <> Json.Int 0 then fail "%s: fail_ratio is not 0" where;
          (match member "attempted" r with
          | Json.Int n when n >= 1 -> ()
          | _ -> fail "%s: no op attempted" where);
          let metrics = member "metrics" r in
          List.iter
            (fun (name, unit) ->
              let m =
                match Json.member name metrics with
                | Some m -> m
                | None -> fail "%s: metric %s missing" where name
              in
              (match Json.to_float_opt (member "value" m) with
              | Some v when Float.is_finite v -> ()
              | _ -> fail "%s: %s is not a finite number" where name);
              if str "unit" m <> unit then fail "%s: %s has unit %s, not %s" where name (str "unit" m) unit)
            expected;
          Printf.printf "smoke: %s ok (%d metrics)\n%!" where (List.length expected))
        [ ("0", named "end_to_end"); ("1", named "per_layer") ])
    (list "workloads" spec)
