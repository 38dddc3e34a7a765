(* Tests for the domain pool (ft_par), its use in the experiment harnesses
   (jobs > 1 must not change any deterministic output), sampler freshness
   across runs, and the streaming binary trace layer. *)

module Event = Ft_trace.Event
module Trace = Ft_trace.Trace
module Trace_gen = Ft_trace.Trace_gen
module Trace_binary = Ft_trace.Trace_binary
module Prng = Ft_support.Prng
module Engine = Ft_core.Engine
module Detector = Ft_core.Detector
module Sampler = Ft_core.Sampler
module Race = Ft_core.Race

(* --- the pool ----------------------------------------------------------- *)

let test_map_ordering () =
  let tasks = Array.init 100 (fun i -> i) in
  List.iter
    (fun jobs ->
      let results = Ft_par.map ~jobs (fun i -> i * i) tasks in
      Array.iteri
        (fun i r ->
          match r with
          | Ok v -> Alcotest.(check int) (Printf.sprintf "slot %d (jobs=%d)" i jobs) (i * i) v
          | Error e -> Alcotest.failf "task %d failed: %s" i e.Ft_par.message)
        results)
    [ 1; 2; 4; 7 ]

let test_parity () =
  (* non-trivial per-task work, answers independent of scheduling *)
  let f seed =
    let prng = Prng.create ~seed in
    let t = Trace_gen.random prng { Trace_gen.default with Trace_gen.length = 200 } in
    let r = Engine.run Engine.So t in
    Race.indices r.Detector.races
  in
  let tasks = Array.init 12 (fun i -> i + 1) in
  let seq = Ft_par.map ~jobs:1 f tasks in
  let par = Ft_par.map ~jobs:4 f tasks in
  Alcotest.(check bool) "jobs=4 matches jobs=1" true (seq = par)

let test_failure_capture () =
  let tasks = [| 0; 1; 2; 3 |] in
  let f i = if i mod 2 = 1 then failwith (Printf.sprintf "boom %d" i) else i * 10 in
  let results, stats = Ft_par.map_stats ~jobs:2 f tasks in
  Alcotest.(check int) "two failures" 2 stats.Ft_par.failed;
  (match results.(1) with
  | Error e ->
    Alcotest.(check int) "failing index" 1 e.Ft_par.index;
    Alcotest.(check bool) "message kept" true
      (String.length e.Ft_par.message > 0)
  | Ok _ -> Alcotest.fail "task 1 should have failed");
  (match results.(2) with
  | Ok v -> Alcotest.(check int) "survivor" 20 v
  | Error _ -> Alcotest.fail "task 2 should have succeeded");
  let kept =
    Ft_par.filter_ok ~on_error:(fun _ -> ()) (Array.to_list results)
  in
  Alcotest.(check (list int)) "filter_ok keeps order" [ 0; 20 ] kept

let test_stats_sanity () =
  let _, stats = Ft_par.map_stats ~jobs:3 (fun i -> i) (Array.init 10 (fun i -> i)) in
  Alcotest.(check int) "tasks" 10 stats.Ft_par.tasks;
  Alcotest.(check int) "jobs clamped" 3 stats.Ft_par.jobs;
  Alcotest.(check int) "no failures" 0 stats.Ft_par.failed;
  Alcotest.(check bool) "wall nonneg" true (stats.Ft_par.wall_s >= 0.0);
  Alcotest.(check bool) "busy ≥ slowest task" true
    (stats.Ft_par.busy_s >= stats.Ft_par.max_task_s);
  (* more domains than tasks: clamp must not spawn idle ones or crash *)
  let r, s = Ft_par.map_stats ~jobs:64 (fun i -> i + 1) [| 1; 2 |] in
  Alcotest.(check int) "clamped to ntasks" 2 s.Ft_par.jobs;
  Alcotest.(check bool) "results intact" true (Array.for_all Result.is_ok r)

let test_empty_and_get_exn () =
  let r, s = Ft_par.map_stats ~jobs:4 (fun i -> i) [||] in
  Alcotest.(check int) "empty tasks" 0 (Array.length r);
  Alcotest.(check int) "empty stats" 0 s.Ft_par.tasks;
  Alcotest.(check int) "get_exn ok" 7 (Ft_par.get_exn (Ok 7));
  Alcotest.check_raises "get_exn error"
    (Failure "parallel task 3 failed: gone") (fun () ->
      ignore
        (Ft_par.get_exn
           (Error { Ft_par.index = 3; message = "gone"; backtrace = "" })))

(* --- harness determinism across jobs ------------------------------------ *)

let test_experiment_jobs_invariant () =
  let run jobs =
    Ft_rapid.Experiment.run
      ~benchmarks:(List.filteri (fun i _ -> i < 3) Ft_workloads.Classic.all)
      ~runs:4 ~scale:2 ~jobs ()
  in
  let seq = run 1 and par = run 3 in
  Alcotest.(check bool) "rows identical for jobs=3" true (seq = par);
  Alcotest.(check string) "fig7 identical"
    (Ft_rapid.Experiment.fig7 seq) (Ft_rapid.Experiment.fig7 par)

let test_harness_jobs_invariant () =
  (* timings are scheduling-dependent; every counted quantity must not be.
     The [*_locs] fields (ft_locs included) are NOT counted quantities: they
     count racy locations over a fixed-time-budget prefix whose length is
     derived from measured wall-clock times, so they legitimately vary with
     scheduling — same reason the per-rate tuple below omits st/su/so_locs. *)
  let deterministic (m : Ft_tsan.Harness.measurement) =
    ( m.Ft_tsan.Harness.benchmark,
      m.Ft_tsan.Harness.events,
      List.map
        (fun (r : Ft_tsan.Harness.rate_result) ->
          (r.Ft_tsan.Harness.rate, r.Ft_tsan.Harness.su_metrics, r.Ft_tsan.Harness.so_metrics))
        m.Ft_tsan.Harness.per_rate )
  in
  let profiles = List.filteri (fun i _ -> i < 2) Ft_workloads.Db_sim.profiles in
  let run jobs =
    Ft_tsan.Harness.run_all ~repeats:1 ~nseeds:2 ~jobs ~profiles ~target_events:4_000 ()
  in
  let seq = List.map deterministic (run 1) in
  let par = List.map deterministic (run 4) in
  Alcotest.(check bool) "counted quantities identical" true (seq = par)

let test_report_callback () =
  let seen = ref None in
  let _ =
    Ft_rapid.Experiment.run
      ~benchmarks:(List.filteri (fun i _ -> i < 1) Ft_workloads.Classic.all)
      ~runs:2 ~scale:2 ~jobs:2
      ~report:(fun s -> seen := Some s)
      ()
  in
  match !seen with
  | None -> Alcotest.fail "report callback never invoked"
  | Some s -> Alcotest.(check int) "one cell per (benchmark, seed)" 2 s.Ft_par.tasks

(* --- sampler freshness --------------------------------------------------- *)

let sampler_specs =
  [
    ("bernoulli", fun () -> Sampler.bernoulli ~rate:0.2 ~seed:11);
    ("windowed", fun () -> Sampler.windowed ~period:50 ~duty:0.3);
    ("cold_region", fun () -> Sampler.cold_region ~threshold:3);
    ("adaptive", fun () -> Sampler.adaptive ~base_rate:4);
  ]

let test_sampler_instances_independent () =
  let prng = Prng.create ~seed:77 in
  let trace = Trace_gen.random prng { Trace_gen.default with Trace_gen.length = 400 } in
  List.iter
    (fun (name, mk) ->
      let s = mk () in
      let a = Sampler.to_sampled_array s trace in
      let b = Sampler.to_sampled_array s trace in
      Alcotest.(check bool) (name ^ ": repeated scans agree") true (a = b))
    sampler_specs

let test_engine_rerun_deterministic () =
  (* the regression: stateful samplers (cold_region, adaptive) used to carry
     hashtable state from one run into the next, so the second run of the
     same configuration sampled a different S and found different races *)
  let prng = Prng.create ~seed:78 in
  let trace = Trace_gen.random prng { Trace_gen.default with Trace_gen.length = 400 } in
  List.iter
    (fun (name, mk) ->
      let sampler = mk () in
      let once () =
        let r = Engine.run Engine.So ~sampler trace in
        (Race.indices r.Detector.races, r.Detector.metrics.Ft_core.Metrics.sampled_accesses)
      in
      let first = once () in
      let second = once () in
      Alcotest.(check bool) (name ^ ": second run identical") true (first = second))
    sampler_specs

let test_fresh_instances_per_run () =
  (* two instances of the same spec must not share state *)
  let s = Sampler.cold_region ~threshold:2 in
  let i1 = Sampler.fresh s in
  let e = Event.mk 0 (Event.Write 0) in
  (* exhaust the cold region on the first instance *)
  for k = 0 to 9 do
    ignore (Sampler.query i1 k e)
  done;
  let i2 = Sampler.fresh s in
  Alcotest.(check bool) "fresh instance still cold" true (Sampler.query i2 0 e)

(* --- streaming binary layer ---------------------------------------------- *)

let test_stream_roundtrip () =
  let prng = Prng.create ~seed:21 in
  for i = 0 to 10 do
    let params =
      { Trace_gen.default with Trace_gen.atomics = i mod 2 = 0; length = 300 + (37 * i) }
    in
    let trace = Trace_gen.random prng params in
    let path = Filename.temp_file "ftpar" ".ftb" in
    let oc = open_out_bin path in
    let w =
      Trace_binary.create_writer oc ~nthreads:trace.Trace.nthreads
        ~nlocks:trace.Trace.nlocks ~nlocs:trace.Trace.nlocs
        ~nevents:(Trace.length trace)
    in
    Trace.iteri (fun _ e -> Trace_binary.write_event w e) trace;
    Trace_binary.close_writer w;
    close_out oc;
    (* tiny chunk size to force many refills *)
    (match
       Trace_binary.iter_file ~chunk_size:16 path ~f:(fun j e ->
           if not (Event.equal e (Trace.get trace j)) then
             Alcotest.failf "iteration %d: event %d differs" i j)
     with
    | Error msg -> Alcotest.failf "iteration %d: %s" i msg
    | Ok (h, ()) ->
      Alcotest.(check int) "header nevents" (Trace.length trace) h.Trace_binary.nevents);
    (* and the streamed file is readable by the whole-trace path *)
    (match Trace_binary.of_file path with
    | Error msg -> Alcotest.failf "of_file after streaming write: %s" msg
    | Ok t' -> Alcotest.(check int) "length" (Trace.length trace) (Trace.length t'));
    Sys.remove path
  done

let test_stream_writer_validates () =
  let path = Filename.temp_file "ftpar" ".ftb" in
  let oc = open_out_bin path in
  let w = Trace_binary.create_writer oc ~nthreads:2 ~nlocks:1 ~nlocs:1 ~nevents:1 in
  (* out-of-universe event *)
  (try
     Trace_binary.write_event w (Event.mk 5 (Event.Write 0));
     Alcotest.fail "expected Invalid_argument for out-of-range thread"
   with Invalid_argument _ -> ());
  (* short write must be refused at close *)
  (try
     Trace_binary.close_writer w;
     Alcotest.fail "expected Invalid_argument for short write"
   with Invalid_argument _ -> ());
  close_out oc;
  Sys.remove path

let test_corrupt_nevents_no_oom () =
  (* a 16-byte buffer whose header promises 2^29 events must be rejected by
     arithmetic, not by attempting the allocation *)
  let buf = Buffer.create 32 in
  Buffer.add_string buf "FTRB\x01";
  Buffer.add_string buf "\x02\x01\x01";           (* nthreads=2 nlocks=1 nlocs=1 *)
  Buffer.add_string buf "\x80\x80\x80\x80\x02";   (* nevents = 2^29 as LEB128 *)
  Buffer.add_string buf "\x00\x00\x00";           (* a few stray bytes *)
  (match Trace_binary.of_bytes (Buffer.to_bytes buf) with
  | Ok _ -> Alcotest.fail "corrupt header accepted"
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "error mentions the budget: %s" msg)
      true
      (String.length msg > 0));
  (* same via the streaming reader on a file *)
  let path = Filename.temp_file "ftpar" ".ftb" in
  let oc = open_out_bin path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  let ic = open_in_bin path in
  (match Trace_binary.open_channel ic with
  | Ok _ -> Alcotest.fail "streaming reader accepted corrupt header"
  | Error _ -> ());
  close_in ic;
  Sys.remove path

let qcheck_stream_fuzz =
  (* the streaming reader must be total on random bytes, like of_bytes *)
  QCheck.Test.make ~name:"streaming reader total on random bytes" ~count:300
    QCheck.(string_of_size (QCheck.Gen.int_bound 80))
    (fun s ->
      let path = Filename.temp_file "ftfuzz" ".ftb" in
      let oc = open_out_bin path in
      output_string oc s;
      close_out oc;
      let outcome =
        match Trace_binary.iter_file ~chunk_size:8 path ~f:(fun _ _ -> ()) with
        | Ok _ | Error _ -> true
      in
      Sys.remove path;
      outcome)

let qcheck_truncation =
  (* every prefix of a valid file must fail cleanly, never crash or hang *)
  QCheck.Test.make ~name:"decoder total on truncated valid traces" ~count:100
    QCheck.(small_nat)
    (fun n ->
      let prng = Prng.create ~seed:(n + 1) in
      let trace = Trace_gen.random prng { Trace_gen.default with Trace_gen.length = 50 } in
      let full = Trace_binary.to_bytes trace in
      let cut = n mod Bytes.length full in
      match Trace_binary.of_bytes (Bytes.sub full 0 cut) with
      | Ok _ -> cut = Bytes.length full
      | Error _ -> true)

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "result ordering" `Quick test_map_ordering;
          Alcotest.test_case "sequential/parallel parity" `Quick test_parity;
          Alcotest.test_case "failure capture" `Quick test_failure_capture;
          Alcotest.test_case "stats sanity" `Quick test_stats_sanity;
          Alcotest.test_case "empty + get_exn" `Quick test_empty_and_get_exn;
        ] );
      ( "harness determinism",
        [
          Alcotest.test_case "experiment rows jobs-invariant" `Quick
            test_experiment_jobs_invariant;
          Alcotest.test_case "tsan counted quantities jobs-invariant" `Quick
            test_harness_jobs_invariant;
          Alcotest.test_case "report callback" `Quick test_report_callback;
        ] );
      ( "sampler freshness",
        [
          Alcotest.test_case "repeated scans agree" `Quick test_sampler_instances_independent;
          Alcotest.test_case "engine reruns deterministic" `Quick
            test_engine_rerun_deterministic;
          Alcotest.test_case "instances independent" `Quick test_fresh_instances_per_run;
        ] );
      ( "streaming binary",
        [
          Alcotest.test_case "chunked roundtrip" `Quick test_stream_roundtrip;
          Alcotest.test_case "writer validation" `Quick test_stream_writer_validates;
          Alcotest.test_case "corrupt nevents rejected cheaply" `Quick
            test_corrupt_nevents_no_oom;
          QCheck_alcotest.to_alcotest qcheck_stream_fuzz;
          QCheck_alcotest.to_alcotest qcheck_truncation;
        ] );
    ]
