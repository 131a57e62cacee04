(* The golden table: for every op kind the benchmark runs, the
   simulated results it must reproduce. An op whose observed fields
   differ from its entry failed, however fast it ran, so a "speed-up"
   that changes a simulated result cannot pass as one.

   The table is data (perfbench/golden.json), regenerated only by
   `bash perfbench/run.sh --regen-golden`; see README.md. *)

module J = Trace.Json

type entry = (string * J.t) list

type t = (string * entry) list

let schema = "perfbench-golden/1"

let stats_digest (s : Gpu.Stats.t) =
  Gpu.Stats.to_assoc s
  |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
  |> String.concat ";" |> Digest.string |> Digest.to_hex

(* The fields every simulated run is checked on. *)
let run_fields ~output_digest ~stdout ~(stats : Gpu.Stats.t) ~launches =
  [ ("output_digest", J.Str output_digest);
    ("stdout", J.Str stdout);
    ("stats_digest", J.Str (stats_digest stats));
    ("warp_instrs", J.Int stats.Gpu.Stats.warp_instrs);
    ("launches", J.Int launches) ]

let find (t : t) id = List.assoc_opt id t

let int_field (e : entry) name =
  match List.assoc_opt name e with
  | Some (J.Int i) -> Some i
  | _ -> None

(* Ok when every expected field is observed with the same value and
   nothing else is observed; otherwise the differing fields. *)
let check ~(expected : entry) ~(observed : entry) =
  let show = function
    | None -> "missing"
    | Some v -> J.to_string v
  in
  let names =
    List.sort_uniq compare (List.map fst expected @ List.map fst observed)
  in
  let diffs =
    List.filter_map
      (fun k ->
         let e = List.assoc_opt k expected and o = List.assoc_opt k observed in
         if e = o then None
         else Some (Printf.sprintf "%s: expected %s, got %s" k (show e) (show o)))
      names
  in
  if diffs = [] then Ok () else Error (String.concat "; " diffs)

(* One entry per line, so a regenerated table diffs by op kind. *)
let to_string (t : t) =
  let entry (id, e) =
    Printf.sprintf "  %s: %s" (J.to_string (J.Str id)) (J.to_string (J.Obj e))
  in
  Printf.sprintf "{\"schema\": %s,\n \"ops\": {\n%s\n}}\n"
    (J.to_string (J.Str schema))
    (String.concat ",\n" (List.map entry t))

let of_json j =
  match (J.member "schema" j, J.member "ops" j) with
  | Some (J.Str s), Some (J.Obj ops) when s = schema ->
    let entry = function
      | id, J.Obj fields -> Ok (id, fields)
      | id, _ -> Error ("golden entry " ^ id ^ " is not an object")
    in
    List.fold_right
      (fun op acc ->
         match (acc, entry op) with
         | Error e, _ | _, Error e -> Error e
         | Ok l, Ok x -> Ok (x :: l))
      ops (Ok [])
  | _ -> Error ("not a " ^ schema ^ " document")

let load path =
  match J.parse_file path with
  | Error e -> Error (path ^ ": " ^ e)
  | Ok j -> of_json j
  | exception Sys_error e -> Error e
