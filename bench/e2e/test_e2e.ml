open Ft_e2e

let close_to = Alcotest.float 1e-9

let test_nearest_rank () =
  let xs = [| 35.; 20.; 15.; 50.; 40. |] in
  let at p = Stats.nearest_rank xs p in
  Alcotest.check close_to "p30" 20. (at 30.).Stats.value;
  Alcotest.check close_to "p40" 20. (at 40.).Stats.value;
  Alcotest.check close_to "p50" 35. (at 50.).Stats.value;
  Alcotest.check close_to "p100" 50. (at 100.).Stats.value;
  Alcotest.(check int) "n" 5 (at 50.).Stats.n;
  Alcotest.(check int) "beyond p50" 2 (at 50.).Stats.beyond;
  (* n < 100: p99 is the maximum, with nothing beyond it *)
  let ten = Array.init 10 float_of_int in
  Alcotest.check close_to "p99 of 10" 9. (Stats.nearest_rank ten 99.).Stats.value;
  Alcotest.(check int) "beyond p99 of 10" 0 (Stats.nearest_rank ten 99.).Stats.beyond;
  let many = Array.init 2000 (fun i -> float_of_int (2000 - i)) in
  let p99 = Stats.nearest_rank many 99. in
  Alcotest.check close_to "p99 of 2000" 1980. p99.Stats.value;
  Alcotest.(check int) "beyond p99 of 2000" 20 p99.Stats.beyond;
  (* ties: the rank lands inside a run of equal samples *)
  Alcotest.check close_to "tied p50" 1. (Stats.nearest_rank [| 2.; 1.; 1.; 1. |] 50.).Stats.value

let triple = Alcotest.(triple (float 1e-9) (float 1e-9) (float 1e-9))

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  Alcotest.check triple "1..10" (2.75, 5.5, 8.25)
    (Stats.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check triple "three" (1.0, 4.0, 5.0) (Stats.quartiles [| 5.; 1.; 4. |]);
  Alcotest.check triple "ties" (2.0, 2.0, 2.75) (Stats.quartiles [| 2.; 2.; 2.; 3. |]);
  Alcotest.check triple "two" (0.0625, 4.375, 8.6875) (Stats.quartiles [| 1.5; 7.25 |]);
  Alcotest.check close_to "median even" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.check close_to "spread" (5.5 /. 5.5) (Stats.spread (Array.init 10 (fun i -> float_of_int (i + 1))))

let verdict = Alcotest.testable (Fmt.of_to_string Stats.verdict_name) ( = )

let judge ?(better = Stats.Lower) ?(bound = Some 0.10) parent change =
  (Stats.compare_runs ~better ~bound ~parent:(Array.of_list parent) ~change:(Array.of_list change))
    .Stats.verdict

let test_pairwise () =
  let parent = [ 100.; 101.; 99.; 100.5; 99.5; 100.; 101.; 99.; 100.; 100.5 ] in
  Alcotest.check verdict "clear gain" Stats.Gain (judge parent (List.map (fun x -> x -. 10.) parent));
  Alcotest.check verdict "higher is better" Stats.Gain
    (judge ~better:Stats.Higher parent (List.map (fun x -> x +. 10.) parent));
  (* ties count for neither side *)
  Alcotest.check verdict "identical" Stats.Unchanged (judge parent parent);
  let c = Stats.compare_runs ~better:Stats.Lower ~bound:(Some 0.1) ~parent:(Array.of_list parent)
      ~change:(Array.of_list parent) in
  Alcotest.(check (pair int int)) "no wins, no losses" (0, 0) (c.Stats.wins, c.Stats.losses);
  (* nine of ten pairs is enough, eight is not *)
  let nine = List.mapi (fun i x -> if i = 0 then x +. 1. else x -. 10.) parent in
  Alcotest.check verdict "9/10" Stats.Gain (judge parent nine);
  let eight = List.mapi (fun i x -> if i < 2 then x +. 1. else x -. 10.) parent in
  Alcotest.check verdict "8/10" Stats.Unchanged (judge parent eight);
  (* winning every pair by less than the parent's IQR is no gain *)
  let wide = [ 80.; 120.; 90.; 110.; 85.; 115.; 95.; 105.; 100.; 100. ] in
  Alcotest.check verdict "inside the IQR" Stats.Unchanged
    (judge ~bound:(Some 0.25) wide (List.map (fun x -> x -. 1.) wide));
  Alcotest.check verdict "worse beyond the bound" Stats.Regression
    (judge parent (List.map (fun x -> x *. 1.2) parent));
  Alcotest.check verdict "spread wider than the bound" Stats.Unresolved
    (judge ~bound:(Some 0.05) wide (List.map (fun x -> x +. 1.) wide));
  Alcotest.check verdict "per-layer metrics have no bound" Stats.Unchanged
    (judge ~bound:None parent (List.map (fun x -> x *. 1.2) parent));
  Alcotest.check verdict "fewer than ten pairs" Stats.Too_few_pairs
    (judge [ 1.; 2.; 3. ] [ 0.; 0.; 0. ])

let test_oracle () =
  Alcotest.(check (result unit string)) "equal" (Ok ()) (Oracle.same_report ~expected:"a\nb\n" ~actual:"a\nb\n");
  (match Oracle.same_report ~expected:"engine: so\nraces: 3\n" ~actual:"engine: so\nraces: 4\n" with
  | Error msg ->
    Alcotest.(check bool) "names the line" true (String.starts_with ~prefix:"report line 2" msg)
  | Ok () -> Alcotest.fail "a mismatched pair passed");
  (match Oracle.same_report ~expected:"a\nb" ~actual:"a" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "a truncated report passed");
  let race i = Ft_core.Race.make ~index:i ~thread:1 ~loc:0 ~with_write:true ~with_read:false () in
  let result races =
    { Ft_core.Detector.engine = "x"; races; metrics = Ft_core.Metrics.create () }
  in
  let reference = result [ race 3; race 7 ] in
  Alcotest.(check bool) "same races" true (Oracle.same_races ~reference (result [ race 3; race 7 ]) = Ok ());
  Alcotest.(check bool) "other races" true (Result.is_error (Oracle.same_races ~reference (result [ race 3 ])));
  Alcotest.(check bool) "other race events" true
    (Result.is_error (Oracle.same_race_events ~reference (result [ race 3; race 8 ])));
  let m = Ft_core.Metrics.create () in
  let m' = Ft_core.Metrics.copy m in
  m'.Ft_core.Metrics.deep_copies <- 1;
  Alcotest.(check bool) "sync counters" true
    (Result.is_error (Oracle.same_sync_counters ~full:m ~sync_only:m'));
  (* access-side counters may differ: the sync replay handles no access *)
  m'.Ft_core.Metrics.deep_copies <- 0;
  m'.Ft_core.Metrics.race_checks <- 5;
  Alcotest.(check bool) "access counters ignored" true
    (Oracle.same_sync_counters ~full:m ~sync_only:m' = Ok ())

let test_catalog () =
  let module Json = Ft_obs.Json in
  let metric (m : Catalog.metric) =
    Json.Obj
      ([ ("name", Json.Str m.Catalog.metric); ("unit", Json.Str m.Catalog.unit);
         ("better", Json.Str (Catalog.better_name m.Catalog.better)) ]
      @ match m.Catalog.bound with Some b -> [ ("bound", Json.Float b) ] | None -> [])
  in
  let doc ?(e2e = Catalog.end_to_end) () =
    Json.Obj
      [
        ( "workloads",
          Json.Arr
            (List.map
               (fun (w : Catalog.workload) ->
                 Json.Obj [ ("name", Json.Str w.Catalog.name); ("why", Json.Str w.Catalog.why) ])
               Catalog.workloads) );
        ("end_to_end", Json.Arr (List.map metric e2e));
        ("per_layer", Json.Arr (List.map metric Catalog.per_layer));
      ]
  in
  Alcotest.(check (list string)) "agrees" [] (Catalog.check_benchmark_json (doc ()));
  let loose = List.map (fun m -> { m with Catalog.bound = Some 0.5 }) Catalog.end_to_end in
  Alcotest.(check bool) "bound drift found" true (Catalog.check_benchmark_json (doc ~e2e:loose ()) <> []);
  Alcotest.(check bool) "every daemon layer is a per-layer metric" true
    (List.for_all (fun n -> Catalog.find_metric n <> None) Catalog.daemon_layers)

let () =
  Alcotest.run "e2e"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "pairwise rule" `Quick test_pairwise;
        ] );
      ("oracle", [ Alcotest.test_case "mismatches are caught" `Quick test_oracle ]);
      ("catalog", [ Alcotest.test_case "BENCHMARK.json check" `Quick test_catalog ]);
    ]
