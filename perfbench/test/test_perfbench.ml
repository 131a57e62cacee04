(* Tests for the benchmark's pure helpers, its golden check and the
   agreement between its metric catalog and BENCHMARK.json. *)

module H = Perfbench.Helpers
module G = Perfbench.Golden
module C = Perfbench.Catalog
module J = Trace.Json

let feq = Alcotest.float 1e-9

let test_tail_percentile () =
  let check n expected =
    Alcotest.(check (option (float 0.0)))
      (Printf.sprintf "n=%d" n) expected (H.tail_percentile n)
  in
  check 0 None;
  check 19 None;
  check 20 (Some 50.0);
  check 99 (Some 50.0);
  check 100 (Some 90.0);
  check 120 (Some 90.0);
  check 999 (Some 90.0);
  check 1000 (Some 99.0);
  check 10000 (Some 99.9);
  (* Whatever is chosen leaves at least ten ops beyond it. *)
  for n = 20 to 3000 do
    match H.tail_percentile n with
    | Some q -> Alcotest.(check bool) "ten beyond" true (H.beyond ~n q >= 10)
    | None -> Alcotest.fail "no percentile for n >= 20"
  done

let test_percentile_nearest_rank () =
  let a = Array.init 100 (fun i -> float (i + 1)) in
  Alcotest.check feq "p50" 50.0 (H.percentile a 50.0);
  Alcotest.check feq "p90" 90.0 (H.percentile a 90.0);
  Alcotest.check feq "median of 3" 2.0 (H.median [| 1.0; 2.0; 3.0 |])

let span ?(track = 0) key start stop = { H.key; track; start; stop }

let self_of spans key =
  List.fold_left
    (fun acc (s, t) -> if s.H.key = key then acc +. t else acc)
    0.0 (H.self_times spans)

let test_self_time_nested () =
  (* a [0,10] > b [1,4] > c [2,3]; d [5,6] is b's sibling. *)
  let spans =
    [ span "a" 0.0 10.0; span "b" 1.0 4.0; span "c" 2.0 3.0; span "d" 5.0 6.0 ]
  in
  Alcotest.check feq "a" 6.0 (self_of spans "a");
  Alcotest.check feq "b" 2.0 (self_of spans "b");
  Alcotest.check feq "c" 1.0 (self_of spans "c");
  Alcotest.check feq "d" 1.0 (self_of spans "d")

let test_self_time_siblings_and_tracks () =
  (* Children that start with their parent, back-to-back siblings, and
     a span on another track that overlaps in time but is no child. *)
  let spans =
    [ span "p" 0.0 5.0; span "x" 0.0 2.0; span "y" 2.0 3.5;
      span ~track:1 "other" 0.0 5.0 ]
  in
  Alcotest.check feq "p" 1.5 (self_of spans "p");
  Alcotest.check feq "x" 2.0 (self_of spans "x");
  Alcotest.check feq "y" 1.5 (self_of spans "y");
  Alcotest.check feq "other track" 5.0 (self_of spans "other");
  Alcotest.check feq "by key" 1.5 (H.self_by_key spans "p")

let test_valid_name () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (H.valid_name n))
    [ "gpu.launch_s"; "sim-plain"; "ok_ratio"; "9lives"; String.make 64 'a' ];
  List.iter
    (fun n -> Alcotest.(check bool) n false (H.valid_name n))
    [ ""; "_x"; ".x"; "a b"; "x/y"; "p50%"; String.make 65 'a' ]

let test_winstr_aggregation () =
  (* A sum over a sum: 200 instructions in 1.1 s, not the mean of
     100/s and 1000/s. *)
  Alcotest.check feq "sum over sum" (200.0 /. 1.1)
    (H.winstr_per_s [ (100, 1.0); (100, 0.1) ]);
  Alcotest.check feq "no ops" 0.0 (H.winstr_per_s [])

let entry_of stats =
  G.run_fields ~output_digest:"d" ~stdout:"s" ~stats ~launches:1

let test_golden_perturbed_stats () =
  let stats = Gpu.Stats.create () in
  stats.Gpu.Stats.warp_instrs <- 1000;
  stats.Gpu.Stats.cycles <- 5000;
  let expected = entry_of stats in
  Alcotest.(check bool) "same stats pass" true
    (G.check ~expected ~observed:(entry_of stats) = Ok ());
  let perturbed = Gpu.Stats.create () in
  Gpu.Stats.accumulate ~into:perturbed stats;
  perturbed.Gpu.Stats.l2_hits <- perturbed.Gpu.Stats.l2_hits + 1;
  (match G.check ~expected ~observed:(entry_of perturbed) with
   | Ok () -> Alcotest.fail "a perturbed stats record passed the golden check"
   | Error msg ->
     Alcotest.(check bool) "names the field" true
       (String.length msg > 0 && String.sub msg 0 12 = "stats_digest"));
  Alcotest.(check bool) "extra field fails" true
    (G.check ~expected ~observed:(("x", J.Int 1) :: expected) <> Ok ())

let test_golden_roundtrip () =
  let stats = Gpu.Stats.create () in
  let t = [ ("run:a@b", entry_of stats) ] in
  match Result.bind (J.of_string (G.to_string t)) G.of_json with
  | Ok t' -> Alcotest.(check bool) "round trip" true (t = t')
  | Error e -> Alcotest.fail e

(* BENCHMARK.json must list exactly the catalog's metrics, in order,
   with the same units and directions, under valid names. *)
let test_catalog_matches_benchmark_json () =
  let doc =
    match J.parse_file "../../BENCHMARK.json" with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let listed key =
    match J.member key doc with
    | Some (J.List l) ->
      List.map
        (fun m ->
           match (J.member "name" m, J.member "unit" m, J.member "better" m) with
           | Some (J.Str n), Some (J.Str u), Some (J.Str b) -> (n, u, b)
           | _ -> Alcotest.fail ("malformed entry in " ^ key))
        l
    | _ -> Alcotest.fail ("no " ^ key)
  in
  let of_catalog l =
    List.map
      (fun (x : C.metric) ->
         (x.C.name, x.C.unit, C.better_to_string x.C.better))
      l
  in
  let show = List.map (fun (n, u, b) -> n ^ " " ^ u ^ " " ^ b) in
  Alcotest.(check (list string)) "end_to_end" (show (of_catalog C.end_to_end))
    (show (listed "end_to_end"));
  Alcotest.(check (list string)) "per_layer" (show (of_catalog C.per_layer))
    (show (listed "per_layer"));
  List.iter
    (fun (x : C.metric) ->
       Alcotest.(check bool) x.C.name true (H.valid_name x.C.name))
    (C.end_to_end @ C.per_layer);
  match J.member "end_to_end" doc with
  | Some (J.List l) ->
    List.iter
      (fun m ->
         match J.member "bound" m with
         | Some (J.Float b) ->
           Alcotest.(check bool) "bound in (0, 0.25]" true (b > 0.0 && b <= 0.25)
         | _ -> Alcotest.fail "end_to_end metric without a bound")
      l
  | _ -> ()

let () =
  Alcotest.run "perfbench"
    [ ( "helpers",
        [ Alcotest.test_case "tail percentile" `Quick test_tail_percentile;
          Alcotest.test_case "nearest rank" `Quick test_percentile_nearest_rank;
          Alcotest.test_case "self time nested" `Quick test_self_time_nested;
          Alcotest.test_case "self time siblings and tracks" `Quick
            test_self_time_siblings_and_tracks;
          Alcotest.test_case "metric names" `Quick test_valid_name;
          Alcotest.test_case "winstr aggregation" `Quick
            test_winstr_aggregation ] );
      ( "golden",
        [ Alcotest.test_case "perturbed stats fail" `Quick
            test_golden_perturbed_stats;
          Alcotest.test_case "json round trip" `Quick test_golden_roundtrip ] );
      ( "catalog",
        [ Alcotest.test_case "matches BENCHMARK.json" `Quick
            test_catalog_matches_benchmark_json ] ) ]
