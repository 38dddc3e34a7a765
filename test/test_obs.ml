(* ft_obs — the telemetry layer:

   - log-bucketed histogram: bucket maths, quantile bounds, atomicity under
     concurrent observers from several domains;
   - registry counters/gauges: monotonicity, negative-add no-op, idempotent
     renders;
   - Prometheus text exposition shape (HELP/TYPE once per name, cumulative
     buckets, +Inf, label escaping);
   - Json render/parse roundtrips, including the documents the registry and
     Metrics emit, and a seeded mutation fuzz of STATS-shaped documents:
     the parser never raises, and whatever it accepts renders and re-parses
     to itself;
   - Metrics ratio helpers: finite and sane on empty and on near-overflow
     counters, field_names/to_array stay in lock-step. *)

module Json = Ft_obs.Json
module Prng = Ft_support.Prng
module Histogram = Ft_obs.Histogram
module Registry = Ft_obs.Registry
module Metrics = Ft_core.Metrics

(* --- histogram: bucket maths ------------------------------------------------ *)

let test_bucket_edges () =
  Alcotest.(check int) "0 -> bucket 0" 0 (Histogram.bucket_of 0);
  Alcotest.(check int) "negative clamps to bucket 0" 0 (Histogram.bucket_of (-7));
  Alcotest.(check int) "1 -> bucket 1" 1 (Histogram.bucket_of 1);
  Alcotest.(check int) "2 -> bucket 2" 2 (Histogram.bucket_of 2);
  Alcotest.(check int) "3 -> bucket 2" 2 (Histogram.bucket_of 3);
  Alcotest.(check int) "4 -> bucket 3" 3 (Histogram.bucket_of 4);
  Alcotest.(check int) "7 -> bucket 3" 3 (Histogram.bucket_of 7);
  Alcotest.(check int) "8 -> bucket 4" 4 (Histogram.bucket_of 8);
  Alcotest.(check int) "max_int lands in the last bucket"
    (Histogram.nbuckets - 1)
    (Histogram.bucket_of max_int);
  (* upper bounds are inclusive and nested: bucket_of (bucket_upper i) = i *)
  for i = 1 to Histogram.nbuckets - 1 do
    Alcotest.(check int)
      (Printf.sprintf "bucket_upper %d is in bucket %d" i i)
      i
      (Histogram.bucket_of (Histogram.bucket_upper i))
  done;
  Alcotest.(check int) "bucket_upper saturates" max_int
    (Histogram.bucket_upper (Histogram.nbuckets - 1))

let test_histogram_quantiles () =
  let h = Histogram.create () in
  Alcotest.(check int) "empty quantile is 0" 0 (Histogram.quantile h 0.5);
  Alcotest.(check int) "empty max is 0" 0 (Histogram.max_value h);
  (* 90 fast samples and 10 slow ones: p50 must bound the fast cluster, p99
     the slow one, and every quantile is a sound upper bound *)
  for _ = 1 to 90 do
    Histogram.observe h 100
  done;
  for _ = 1 to 10 do
    Histogram.observe h 10_000
  done;
  Alcotest.(check int) "count" 100 (Histogram.count h);
  Alcotest.(check int) "sum" ((90 * 100) + (10 * 10_000)) (Histogram.sum h);
  Alcotest.(check int) "max tracks the largest sample" 10_000 (Histogram.max_value h);
  let p50 = Histogram.quantile h 0.5 and p99 = Histogram.quantile h 0.99 in
  Alcotest.(check bool) "p50 bounds the fast cluster" true (p50 >= 100 && p50 < 10_000);
  Alcotest.(check bool) "p99 reaches the slow cluster" true (p99 >= 10_000);
  Alcotest.(check int) "quantiles clamp to the observed max" 10_000
    (Histogram.quantile h 1.0);
  (* within-2x relative error contract on a single-value histogram *)
  let h1 = Histogram.create () in
  Histogram.observe h1 1000;
  let q = Histogram.quantile h1 0.5 in
  Alcotest.(check bool) "single sample: q in [v, 2v)" true (q >= 1000 && q < 2000)

let test_histogram_cumulative () =
  let h = Histogram.create () in
  List.iter (Histogram.observe h) [ 1; 1; 2; 5; 900 ];
  let cum = Histogram.cumulative h in
  (* cumulative counts never decrease and end at the total *)
  let rec monotone last = function
    | [] -> true
    | (_, c) :: rest -> c >= last && monotone c rest
  in
  Alcotest.(check bool) "cumulative is monotone" true (monotone 0 cum);
  let _, total = List.nth cum (List.length cum - 1) in
  Alcotest.(check int) "cumulative ends at count" (Histogram.count h) total

let test_histogram_multidomain () =
  let h = Histogram.create () in
  let per_domain = 20_000 in
  let worker () =
    for i = 1 to per_domain do
      Histogram.observe h (i land 1023)
    done
  in
  let domains = Array.init 4 (fun _ -> Domain.spawn worker) in
  Array.iter Domain.join domains;
  Alcotest.(check int) "no lost observations across domains" (4 * per_domain)
    (Histogram.count h);
  let expected_sum =
    let s = ref 0 in
    for i = 1 to per_domain do
      s := !s + (i land 1023)
    done;
    4 * !s
  in
  Alcotest.(check int) "sum is exact under contention" expected_sum (Histogram.sum h)

(* --- registry --------------------------------------------------------------- *)

let test_registry_counters_gauges () =
  let reg = Registry.create () in
  let c = Registry.counter reg ~help:"test counter" "t_total" in
  let g = Registry.gauge reg "t_gauge" in
  Registry.incr c;
  Registry.add c 41;
  Alcotest.(check int) "incr + add" 42 (Registry.counter_value c);
  Registry.add c (-7);
  Alcotest.(check int) "negative add is a no-op" 42 (Registry.counter_value c);
  Registry.set_counter c 100;
  Alcotest.(check int) "set_counter overwrites" 100 (Registry.counter_value c);
  Registry.set g 5;
  Registry.set g 3;
  Alcotest.(check int) "gauges move both ways" 3 (Registry.gauge_value g)

let test_registry_multidomain_incr () =
  let reg = Registry.create () in
  let c = Registry.counter reg "contended_total" in
  let per_domain = 50_000 in
  let domains =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Registry.incr c
            done))
  in
  Array.iter Domain.join domains;
  Alcotest.(check int) "no lost increments" (4 * per_domain) (Registry.counter_value c)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_prometheus_exposition () =
  let reg = Registry.create () in
  let c = Registry.counter reg ~help:"batches" "serve_batches_ingested_total" in
  let g0 = Registry.gauge reg ~labels:[ ("shard", "0") ] "ring_occupancy" in
  let g1 = Registry.gauge reg ~labels:[ ("shard", "1") ] "ring_occupancy" in
  let h = Registry.histogram reg ~help:"latency" "ingest_ns" in
  Registry.add c 3;
  Registry.set g0 7;
  Registry.set g1 9;
  Histogram.observe h 5;
  Histogram.observe h 1_000;
  let text = Registry.to_prometheus reg in
  Alcotest.(check bool) "HELP line" true
    (contains text "# HELP serve_batches_ingested_total batches");
  Alcotest.(check bool) "TYPE counter" true
    (contains text "# TYPE serve_batches_ingested_total counter");
  Alcotest.(check bool) "counter sample" true
    (contains text "serve_batches_ingested_total 3");
  Alcotest.(check bool) "labelled gauge shard 0" true
    (contains text "ring_occupancy{shard=\"0\"} 7");
  Alcotest.(check bool) "labelled gauge shard 1" true
    (contains text "ring_occupancy{shard=\"1\"} 9");
  (* one header pair for the two ring_occupancy series *)
  let count_sub s =
    let n = ref 0 and i = ref 0 in
    let ls = String.length s and lt = String.length text in
    while !i + ls <= lt do
      if String.sub text !i ls = s then incr n;
      incr i
    done;
    !n
  in
  Alcotest.(check int) "HELP/TYPE once per name" 1
    (count_sub "# TYPE ring_occupancy gauge");
  Alcotest.(check bool) "histogram TYPE" true (contains text "# TYPE ingest_ns histogram");
  Alcotest.(check bool) "bucket series" true (contains text "ingest_ns_bucket{le=\"");
  Alcotest.(check bool) "+Inf bucket" true (contains text "le=\"+Inf\"} 2");
  Alcotest.(check bool) "sum series" true (contains text "ingest_ns_sum 1005");
  Alcotest.(check bool) "count series" true (contains text "ingest_ns_count 2");
  (* renders of an idle registry are byte-identical *)
  Alcotest.(check string) "idempotent render" text (Registry.to_prometheus reg)

let test_registry_json () =
  let reg = Registry.create () in
  let c = Registry.counter reg "events_total" in
  let h = Registry.histogram reg ~labels:[ ("kind", "a\"b") ] "lat_ns" in
  Registry.add c 12;
  Histogram.observe h 256;
  let j = Registry.to_json reg in
  let text = Json.to_string j in
  (match Json.parse text with
  | Error msg -> Alcotest.failf "registry JSON does not parse: %s" msg
  | Ok parsed ->
    Alcotest.(check (option int)) "counter value" (Some 12)
      (Option.bind (Json.member "events_total" parsed) Json.to_int);
    let hist = Json.member "lat_ns{kind=\"a\\\"b\"}" parsed in
    (match hist with
    | None -> Alcotest.fail "histogram series missing from JSON"
    | Some hj ->
      Alcotest.(check (option int)) "hist count" (Some 1)
        (Option.bind (Json.member "count" hj) Json.to_int);
      Alcotest.(check (option int)) "hist sum" (Some 256)
        (Option.bind (Json.member "sum" hj) Json.to_int);
      Alcotest.(check bool) "hist p99 present" true
        (Json.member "p99" hj <> None)))

(* --- Json render/parse ------------------------------------------------------- *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\n\t\x01é");
        ("i", Json.Int (-42));
        ("big", Json.Int max_int);
        ("f", Json.Float 1.5);
        ("t", Json.Bool true);
        ("n", Json.Null);
        ("arr", Json.Arr [ Json.Int 1; Json.Arr []; Json.Obj [] ]);
      ]
  in
  List.iter
    (fun render ->
      match Json.parse (render doc) with
      | Error msg -> Alcotest.failf "roundtrip parse failed: %s" msg
      | Ok parsed ->
        Alcotest.(check bool) "roundtrip preserves the document" true (parsed = doc))
    [ Json.to_string; Json.to_string_pretty ]

let test_json_nonfinite_and_errors () =
  Alcotest.(check string) "nan renders as null" "null" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "inf renders as null" "null"
    (Json.to_string (Json.Float Float.infinity));
  (match Json.parse "{\"a\": 1} trailing" with
  | Ok _ -> Alcotest.fail "trailing garbage accepted"
  | Error _ -> ());
  (match Json.parse "{\"a\": }" with
  | Ok _ -> Alcotest.fail "malformed object accepted"
  | Error _ -> ());
  (match Json.parse "\"\\u00e9 \\ud83d\\ude00\"" with
  | Ok (Json.Str s) ->
    Alcotest.(check string) "unicode + surrogate pair decode" "é 😀" s
  | Ok _ | Error _ -> Alcotest.fail "unicode escapes did not parse");
  match Json.parse " [1, 2.5, -3e2] " with
  | Ok (Json.Arr [ Json.Int 1; Json.Float 2.5; Json.Float -300. ]) -> ()
  | Ok v -> Alcotest.failf "number parse surprise: %s" (Json.to_string v)
  | Error msg -> Alcotest.failf "number array failed: %s" msg

(* Valid documents shaped like serve's STATS JSON — scalar fields, the
   registry's telemetry object (histograms included) and the detector
   metrics — and like analyze's --metrics-json, whose racy-location arrays
   keep arrays in the corpus. *)
let stats_documents () =
  let reg = Registry.create () in
  Registry.add (Registry.counter reg "serve_batches_ingested_total") 41;
  Registry.set (Registry.gauge reg "serve_shard_ring_occupancy") 7;
  let h = Registry.histogram reg ~labels:[ ("kind", "a\"b") ] "ingest_ns" in
  List.iter (Histogram.observe h) [ 3; 900; 123_456; 5 ];
  let m = Metrics.create () in
  m.Metrics.events <- 400_000;
  m.Metrics.acquires <- 1_234;
  m.Metrics.same_epoch_hits <- 77;
  let metrics =
    match Json.parse (Metrics.to_json m) with
    | Ok v -> v
    | Error msg -> Alcotest.failf "Metrics.to_json does not parse: %s" msg
  in
  (* the serve daemon's STATS JSON: a BATCH session's checker ring, a
     cluster worker's (no ring), and one before any session *)
  let doc uptime ~ring ~messages ~races =
    Json.Obj
      [
        ("engine", Json.Str "so");
        ("sampler", Json.Str "bernoulli(0.1,seed=7)");
        ("events", Json.Int 400_000);
        ("next_index", Json.Int 400_000);
        ("parked", Json.Int 0);
        ("uptime_s", Json.Float uptime);
        ("ring_occupancy", Json.Int ring);
        ("shard_events", Json.Int messages);
        ("telemetry", Registry.to_json reg);
        ("metrics", metrics);
        ("races", races);
        ("note", Json.Str "tab\t quote\" é \u{1F600}");
        ("ratio", Json.Float (-2.5e-7));
        ("ok", Json.Bool true);
      ]
  in
  let analyze_doc locs =
    Json.Obj
      [
        ("tool", Json.Str "racedet analyze");
        ("engine", Json.Str "so");
        ("wall_s", Json.Float 0.125);
        ("races", Json.Int (List.length locs));
        ("racy_locations", Json.Arr (List.map (fun x -> Json.Int x) locs));
        ("metrics", metrics);
      ]
  in
  List.concat_map
    (fun v -> [ Json.to_string v; Json.to_string_pretty v ])
    [
      doc 12.625 ~ring:3 ~messages:36_214 ~races:(Json.Int 12);
      doc 0.0015 ~ring:0 ~messages:0 ~races:Json.Null;
      doc 3.0 ~ring:0 ~messages:0 ~races:(Json.Int 12);
      analyze_doc [ 3; 17; 40_001 ];
      analyze_doc [];
    ]

(* Truncations, byte flips and splices of valid documents: [parse] returns
   [Ok] or [Error] and never raises, and every value it accepts renders
   (compact and pretty) and parses back to exactly that value. *)
let test_json_parse_fuzz () =
  let docs = Array.of_list (stats_documents ()) in
  let prng = Prng.create ~seed:2026 in
  let accepted = ref 0 and rejected = ref 0 in
  let check what text =
    match Json.parse text with
    | exception e ->
      Alcotest.failf "%s: parse raised %s on %S" what (Printexc.to_string e) text
    | Error _ -> incr rejected
    | Ok v ->
      incr accepted;
      List.iter
        (fun render ->
          match Json.parse (render v) with
          | Ok v' when v' = v -> ()
          | Ok v' ->
            Alcotest.failf "%s: %S parsed to a value that re-renders as %S" what text
              (Json.to_string v')
          | Error msg -> Alcotest.failf "%s: re-render of %S does not parse: %s" what text msg)
        [ Json.to_string; Json.to_string_pretty ]
  in
  Array.iter (check "seed document") docs;
  (* every truncation of the compact document *)
  let d0 = docs.(0) in
  for len = 0 to String.length d0 - 1 do
    check "truncation" (String.sub d0 0 len)
  done;
  for _ = 1 to 20_000 do
    let d = docs.(Prng.int prng (Array.length docs)) in
    let b = Bytes.of_string d in
    match Prng.int prng 3 with
    | 0 -> check "truncation" (String.sub d 0 (Prng.int prng (String.length d)))
    | 1 ->
      for _ = 0 to Prng.int prng 3 do
        let i = Prng.int prng (Bytes.length b) in
        Bytes.set b i
          (if Prng.bool prng then Char.chr (Prng.int prng 256)
           else Prng.pick prng [| '"'; '\\'; '{'; '}'; '['; ']'; ','; ':'; '0'; '9'; '.';
                                  'e'; '-'; ' ' |])
      done;
      check "byte flip" (Bytes.to_string b)
    | _ ->
      (* a slice of one document replaces a slice of another *)
      let src = docs.(Prng.int prng (Array.length docs)) in
      let a = Prng.int prng (String.length src) in
      let piece = String.sub src a (Prng.int prng (String.length src - a + 1)) in
      let i = Prng.int prng (String.length d) in
      let j = i + Prng.int prng (String.length d - i + 1) in
      check "splice"
        (String.sub d 0 i ^ piece ^ String.sub d j (String.length d - j))
  done;
  Alcotest.(check bool)
    (Printf.sprintf "both outcomes exercised (%d accepted, %d rejected)" !accepted !rejected)
    true
    (!accepted > 100 && !rejected > 100)

(* --- Metrics export + ratio hardening ---------------------------------------- *)

let test_metrics_field_names_arity () =
  Alcotest.(check int) "field_names covers every to_array slot"
    Metrics.field_count
    (Array.length Metrics.field_names);
  let m = Metrics.create () in
  Alcotest.(check int) "to_array arity" Metrics.field_count
    (Array.length (Metrics.to_array m))

let test_metrics_to_json_parses () =
  let m = Metrics.create () in
  m.Metrics.events <- 7;
  m.Metrics.acquires <- 3;
  match Json.parse (Metrics.to_json m) with
  | Error msg -> Alcotest.failf "Metrics.to_json does not parse: %s" msg
  | Ok doc ->
    Alcotest.(check (option int)) "events field" (Some 7)
      (Option.bind (Json.member "events" doc) Json.to_int);
    Array.iter
      (fun name ->
        Alcotest.(check bool) (name ^ " exported") true (Json.member name doc <> None))
      Metrics.field_names

let check_finite name v =
  Alcotest.(check bool) (name ^ " is finite") true (Float.is_finite v);
  Alcotest.(check bool) (name ^ " is non-negative") true (v >= 0.0)

let ratios m =
  [
    ("acquires_skipped_ratio", Metrics.acquires_skipped_ratio m);
    ("releases_processed_ratio", Metrics.releases_processed_ratio m);
    ("deep_copy_ratio", Metrics.deep_copy_ratio m);
    ("saved_traversal_ratio", Metrics.saved_traversal_ratio m);
    ("sync_full_work_ratio", Metrics.sync_full_work_ratio m);
    ("mean_entries_per_acquire", Metrics.mean_entries_per_acquire m);
  ]

let test_metrics_ratios_empty () =
  (* an empty run divides by zero everywhere: every ratio must come out 0 *)
  let m = Metrics.create () in
  List.iter (fun (name, v) -> Alcotest.(check (float 0.0)) name 0.0 v) (ratios m)

let test_metrics_ratios_huge () =
  (* near-overflow counters: int arithmetic like saved+traversed or
     acquires+releases would wrap negative; the float-side ratios must stay
     finite and within [0, 1] for the true ratios *)
  let m = Metrics.create () in
  m.Metrics.events <- max_int;
  m.Metrics.acquires <- max_int;
  m.Metrics.releases <- max_int;
  m.Metrics.acquires_skipped <- max_int;
  m.Metrics.releases_processed <- max_int;
  m.Metrics.deep_copies <- max_int;
  m.Metrics.vc_full_ops <- max_int;
  m.Metrics.entries_traversed <- max_int;
  m.Metrics.entries_saved <- max_int;
  List.iter (fun (name, v) -> check_finite name v) (ratios m);
  Alcotest.(check bool) "saved ratio stays in [0,1]" true
    (Metrics.saved_traversal_ratio m <= 1.0);
  Alcotest.(check bool) "sync full-work ratio stays in [0,1]" true
    (Metrics.sync_full_work_ratio m <= 1.0)

let () =
  Alcotest.run "obs"
    [
      ( "histogram",
        [
          Alcotest.test_case "bucket edges" `Quick test_bucket_edges;
          Alcotest.test_case "quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "cumulative series" `Quick test_histogram_cumulative;
          Alcotest.test_case "4-domain observe" `Quick test_histogram_multidomain;
        ] );
      ( "registry",
        [
          Alcotest.test_case "counters and gauges" `Quick test_registry_counters_gauges;
          Alcotest.test_case "4-domain incr" `Quick test_registry_multidomain_incr;
          Alcotest.test_case "Prometheus exposition" `Quick test_prometheus_exposition;
          Alcotest.test_case "JSON exposition" `Quick test_registry_json;
        ] );
      ( "json",
        [
          Alcotest.test_case "render/parse roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "mutation fuzz: total, accepted values roundtrip" `Quick
            test_json_parse_fuzz;
          Alcotest.test_case "non-finite floats and bad input" `Quick
            test_json_nonfinite_and_errors;
        ] );
      ( "metrics export",
        [
          Alcotest.test_case "field_names arity" `Quick test_metrics_field_names_arity;
          Alcotest.test_case "to_json parses" `Quick test_metrics_to_json_parses;
          Alcotest.test_case "ratios on empty run" `Quick test_metrics_ratios_empty;
          Alcotest.test_case "ratios near overflow" `Quick test_metrics_ratios_huge;
        ] );
    ]
