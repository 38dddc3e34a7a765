(* Tests for the experiment frameworks (ft_rapid, ft_tsan) and for the two
   cost-model knobs that must never change detection results: the padded
   clock size and the fixed-budget prefix limit. *)

module Event = Ft_trace.Event
module Trace = Ft_trace.Trace
module Trace_gen = Ft_trace.Trace_gen
module Prng = Ft_support.Prng
module Engine = Ft_core.Engine
module Detector = Ft_core.Detector
module Sampler = Ft_core.Sampler
module Race = Ft_core.Race
module Metrics = Ft_core.Metrics
module Experiment = Ft_rapid.Experiment
module Harness = Ft_tsan.Harness
module Timing = Ft_tsan.Timing
module Db_sim = Ft_workloads.Db_sim
module Classic = Ft_workloads.Classic

(* --- clock-size invariance -------------------------------------------- *)

let clock_size_invariant engine s =
  let prng = Prng.create ~seed:s in
  let trace = Trace_gen.random prng { Trace_gen.default with Trace_gen.length = 80 } in
  let sampler = Sampler.bernoulli ~rate:0.4 ~seed:s in
  let base = Engine.run engine ~sampler trace in
  let padded = Engine.run engine ~sampler ~clock_size:64 trace in
  Race.indices base.Detector.races = Race.indices padded.Detector.races

let test_clock_size_invariance () =
  List.iter
    (fun engine ->
      for s = 0 to 20 do
        Alcotest.(check bool)
          (Printf.sprintf "%s seed %d" (Engine.name engine) s)
          true
          (clock_size_invariant engine s)
      done)
    [ Engine.Djit; Engine.Fasttrack; Engine.St; Engine.Su; Engine.So ]

let test_clock_size_too_small () =
  let trace = Trace.of_events [| Event.mk 3 (Event.Write 0) |] in
  Alcotest.check_raises "below thread count"
    (Invalid_argument "Detector.config_of_trace: clock_size below thread count") (fun () ->
      ignore (Engine.run Engine.So ~clock_size:2 trace))

(* --- prefix limit ------------------------------------------------------- *)

let test_limit_prefix () =
  let prng = Prng.create ~seed:5 in
  let trace = Trace_gen.random prng { Trace_gen.default with Trace_gen.length = 100 } in
  let full = Engine.run Engine.So trace in
  let limited = Engine.run Engine.So ~limit:40 trace in
  Alcotest.(check int) "events processed" 40 limited.Detector.metrics.Metrics.events;
  (* races declared in the prefix are a prefix of the full run's races *)
  let full_prefix = List.filter (fun r -> r.Race.index < 40) full.Detector.races in
  Alcotest.(check (list int)) "prefix races"
    (Race.indices full_prefix)
    (Race.indices limited.Detector.races);
  let over = Engine.run Engine.So ~limit:10_000 trace in
  Alcotest.(check int) "limit beyond end" (Trace.length trace)
    over.Detector.metrics.Metrics.events

(* --- sampling strategies -------------------------------------------------- *)

let strategy_trace () =
  let prng = Prng.create ~seed:77 in
  Trace_gen.random prng { Trace_gen.default with Trace_gen.length = 200 }

let test_windowed_sampler () =
  let s = Sampler.windowed ~period:10 ~duty:0.3 in
  let trace = strategy_trace () in
  let mask = Sampler.to_sampled_array s trace in
  Trace.iteri
    (fun i e ->
      let expected = Event.is_access e && i mod 10 < 3 in
      Alcotest.(check bool) (Printf.sprintf "event %d" i) expected mask.(i))
    trace

let test_cold_region_sampler () =
  let trace = strategy_trace () in
  let mask = Sampler.to_sampled_array (Sampler.cold_region ~threshold:2) trace in
  (* per location, exactly the first two accesses are sampled *)
  let counts = Hashtbl.create 8 in
  Trace.iteri
    (fun i e ->
      match Event.accessed_loc e with
      | None -> Alcotest.(check bool) "sync unsampled" false mask.(i)
      | Some x ->
        let c = Option.value ~default:0 (Hashtbl.find_opt counts x) in
        Hashtbl.replace counts x (c + 1);
        Alcotest.(check bool) (Printf.sprintf "event %d" i) (c < 2) mask.(i))
    trace

let test_adaptive_sampler_decays () =
  let trace = strategy_trace () in
  (* fresh sampler per materialization: decisions must be reproducible *)
  let m1 = Sampler.to_sampled_array (Sampler.adaptive ~base_rate:4) trace in
  let m2 = Sampler.to_sampled_array (Sampler.adaptive ~base_rate:4) trace in
  Alcotest.(check (array bool)) "deterministic" m1 m2

let test_strategies_respect_engine_equivalence () =
  (* materialized masks keep ST = SU = SO even for stateful strategies *)
  let trace = strategy_trace () in
  List.iter
    (fun s ->
      let mask = Sampler.to_sampled_array s trace in
      let run engine =
        Race.indices (Engine.run engine ~sampler:(Sampler.fixed mask) trace).Detector.races
      in
      let st = run Engine.St in
      Alcotest.(check (list int)) (Sampler.name s ^ " su") st (run Engine.Su);
      Alcotest.(check (list int)) (Sampler.name s ^ " so") st (run Engine.So))
    [
      Sampler.windowed ~period:16 ~duty:0.5;
      Sampler.cold_region ~threshold:3;
      Sampler.adaptive ~base_rate:4;
    ]

(* --- ft_rapid ------------------------------------------------------------ *)

let small_benchmarks =
  List.filter_map Classic.find [ "pingpong"; "wronglock"; "montecarlo" ]

let test_rapid_rows_shape () =
  let rows = Experiment.run ~benchmarks:small_benchmarks ~runs:3 ~scale:2 () in
  Alcotest.(check int) "3 benchmarks × 4 engines" 12 (List.length rows);
  List.iter
    (fun (r : Experiment.row) ->
      Alcotest.(check int) "runs recorded" 3 r.Experiment.runs;
      Alcotest.(check bool) "events counted" true (r.Experiment.metrics.Metrics.events > 0))
    rows

let test_rapid_engine_order () =
  Alcotest.(check (list string)) "appendix engine labels"
    [ "SU-(3%)"; "SO-(3%)"; "SU-(100%)"; "SO-(100%)" ]
    (List.map (fun (c : Experiment.engine_cfg) -> c.Experiment.label) Experiment.appendix_engines)

let test_rapid_su_skips_geq_so () =
  let rows = Experiment.run ~benchmarks:small_benchmarks ~runs:3 ~scale:2 () in
  let get label bench =
    List.find
      (fun (r : Experiment.row) -> r.Experiment.label = label && r.Experiment.benchmark = bench)
      rows
  in
  List.iter
    (fun (b : Classic.benchmark) ->
      let su = get "SU-(3%)" b.Classic.name and so = get "SO-(3%)" b.Classic.name in
      Alcotest.(check bool)
        (b.Classic.name ^ ": SU skips ≥ SO")
        true
        (Metrics.acquires_skipped_ratio su.Experiment.metrics
        >= Metrics.acquires_skipped_ratio so.Experiment.metrics))
    small_benchmarks

let contains_substring s name =
  let rec loop i =
    i + String.length name <= String.length s
    && (String.sub s i (String.length name) = name || loop (i + 1))
  in
  loop 0

let test_rapid_tables_render () =
  let rows = Experiment.run ~benchmarks:small_benchmarks ~runs:2 ~scale:2 () in
  List.iter
    (fun table ->
      let s = table rows in
      Alcotest.(check bool) "non-empty table" true (String.length s > 50);
      Alcotest.(check bool) "mentions a benchmark" true
        (List.exists
           (fun (b : Classic.benchmark) -> contains_substring s b.Classic.name)
           small_benchmarks))
    [ Experiment.fig7; Experiment.fig8; Experiment.fig9 ];
  let s = Experiment.summary rows in
  Alcotest.(check bool) "summary mentions engines" true (contains_substring s "SU-(3%)")

(* --- ft_tsan -------------------------------------------------------------- *)

let tiny_measurements () =
  let profiles =
    List.filter_map Db_sim.profile [ "voter"; "sibench" ]
  in
  Harness.run_all ~repeats:1 ~seed:2 ~profiles ~target_events:8000 ()

let test_tsan_measurement_sanity () =
  let ms = tiny_measurements () in
  Alcotest.(check int) "two benchmarks" 2 (List.length ms);
  List.iter
    (fun (m : Harness.measurement) ->
      Alcotest.(check bool) "events reached" true (m.Harness.events >= 8000);
      let positive (t : Timing.t) = t.Timing.median > 0.0 in
      Alcotest.(check bool) "positive times" true
        (positive m.Harness.nt && positive m.Harness.et && positive m.Harness.ft);
      Alcotest.(check int) "three rates" 3 (List.length m.Harness.per_rate);
      List.iter
        (fun (r : Harness.rate_result) ->
          Alcotest.(check bool) "positive engine times" true
            (positive r.Harness.st_time && positive r.Harness.su_time
            && positive r.Harness.so_time))
        m.Harness.per_rate)
    ms

let test_tsan_ao () =
  let ms = tiny_measurements () in
  let m = List.hd ms in
  Alcotest.(check bool) "ao positive" true
    (Harness.ao m ~time:(m.Harness.et.Timing.median +. 1.0) > 0.99);
  Alcotest.(check bool) "ao clamped" true (Harness.ao m ~time:0.0 > 0.0)

let test_tsan_tables_render () =
  let ms = tiny_measurements () in
  List.iter
    (fun table ->
      Alcotest.(check bool) "non-empty" true (String.length (table ms) > 40))
    [ Harness.fig5a; Harness.fig5b; Harness.fig6a; Harness.fig6b; Harness.fig6c ];
  Alcotest.(check bool) "summary" true (String.length (Harness.summary ms) > 40)

(* --- Timing ----------------------------------------------------------------- *)

(* Three thunks that log their own index: the log is the run order. *)
let logged_run ~rounds =
  let log = ref [] in
  let ts = Timing.run ~rounds (Array.init 3 (fun i () -> log := i :: !log)) in
  (ts, List.rev !log)

let test_timing_runs_each_thunk_rounds_times () =
  let ts, log = logged_run ~rounds:5 in
  Alcotest.(check int) "one result per thunk" 3 (Array.length ts);
  List.iter
    (fun i ->
      Alcotest.(check int) "ran R times" 5 (List.length (List.filter (( = ) i) log)))
    [ 0; 1; 2 ];
  Array.iter
    (fun (t : Timing.t) -> Alcotest.(check int) "R walls" 5 (Array.length t.Timing.walls))
    ts

let test_timing_alternates () =
  let _, log = logged_run ~rounds:4 in
  Alcotest.(check (list int)) "forward on even rounds, reversed on odd"
    [ 0; 1; 2; 2; 1; 0; 0; 1; 2; 2; 1; 0 ] log

let test_timing_quartiles () =
  let ts, _ = logged_run ~rounds:7 in
  Array.iter
    (fun (t : Timing.t) ->
      Alcotest.(check bool) "q1 <= median <= q3" true
        (t.Timing.q1 <= t.Timing.median && t.Timing.median <= t.Timing.q3))
    ts;
  let t = Timing.of_walls [| 4.0; 1.0; 3.0; 2.0; 5.0 |] in
  Alcotest.(check (float 1e-12)) "median" 3.0 t.Timing.median;
  Alcotest.(check (float 1e-12)) "q1" 2.0 t.Timing.q1;
  Alcotest.(check (float 1e-12)) "q3" 4.0 t.Timing.q3

let test_timing_one_round () =
  let ts, log = logged_run ~rounds:1 in
  Alcotest.(check (list int)) "forward" [ 0; 1; 2 ] log;
  Array.iter
    (fun (t : Timing.t) ->
      Alcotest.(check bool) "q1 = median = q3" true
        (t.Timing.q1 = t.Timing.median && t.Timing.median = t.Timing.q3))
    ts

let test_timing_rejects_no_rounds () =
  List.iter
    (fun rounds ->
      match Timing.run ~rounds [| (fun () -> ()) |] with
      | _ -> Alcotest.failf "rounds = %d accepted" rounds
      | exception Invalid_argument _ -> ())
    [ 0; -1 ]

let () =
  Alcotest.run "experiments"
    [
      ( "cost model knobs",
        [
          Alcotest.test_case "clock-size invariance" `Slow test_clock_size_invariance;
          Alcotest.test_case "clock-size validation" `Quick test_clock_size_too_small;
          Alcotest.test_case "prefix limit" `Quick test_limit_prefix;
        ] );
      ( "samplers",
        [
          Alcotest.test_case "windowed" `Quick test_windowed_sampler;
          Alcotest.test_case "cold region" `Quick test_cold_region_sampler;
          Alcotest.test_case "adaptive determinism" `Quick test_adaptive_sampler_decays;
          Alcotest.test_case "strategies keep engine equivalence" `Quick
            test_strategies_respect_engine_equivalence;
        ] );
      ( "rapid",
        [
          Alcotest.test_case "row shape" `Quick test_rapid_rows_shape;
          Alcotest.test_case "engine order" `Quick test_rapid_engine_order;
          Alcotest.test_case "SU skips ≥ SO" `Quick test_rapid_su_skips_geq_so;
          Alcotest.test_case "tables render" `Quick test_rapid_tables_render;
        ] );
      ( "timing",
        [
          Alcotest.test_case "each thunk runs R times" `Quick
            test_timing_runs_each_thunk_rounds_times;
          Alcotest.test_case "order alternates by round" `Quick test_timing_alternates;
          Alcotest.test_case "q1 <= median <= q3" `Quick test_timing_quartiles;
          Alcotest.test_case "one round" `Quick test_timing_one_round;
          Alcotest.test_case "R <= 0 rejected" `Quick test_timing_rejects_no_rounds;
        ] );
      ( "tsan harness",
        [
          Alcotest.test_case "measurement sanity" `Slow test_tsan_measurement_sanity;
          Alcotest.test_case "algorithmic overhead" `Slow test_tsan_ao;
          Alcotest.test_case "tables render" `Slow test_tsan_tables_render;
        ] );
    ]
