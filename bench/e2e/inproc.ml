(* The in-process workloads, and the per-layer attribution pass every
   workload runs with tracing on.  All timing wraps calls into the modules'
   public functions: Trace_binary, Sampler, the Detector.S engines, Engine
   and Runner. *)

module Engine = Ft_core.Engine
module Detector = Ft_core.Detector
module Sampler = Ft_core.Sampler
module Trace = Ft_trace.Trace
module Event = Ft_trace.Event
module Tb = Ft_trace.Trace_binary
module Runner = Ft_snapshot.Runner
module Serve = Ft_shard.Serve
open Measure

let sampler_of (w : Catalog.workload) ~seed =
  if w.rate >= 1.0 then Sampler.all else Sampler.bernoulli ~rate:w.rate ~seed

let ok_or_fail what = function Ok v -> v | Error msg -> failwith (what ^ ": " ^ msg)
let report ~events r = Serve.report_text ~events r

let with_reader ftb f =
  let ic = open_in_bin ftb in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      f (ok_or_fail ftb (Tb.open_channel ic)))

let config_of (w : Catalog.workload) ~sampler (h : Tb.header) =
  {
    Detector.nthreads = h.Tb.nthreads;
    nlocks = h.Tb.nlocks;
    nlocs = h.Tb.nlocs;
    clock_size = Option.value w.clock_size ~default:h.Tb.nthreads;
    sampler;
  }

let analyze_file (w : Catalog.workload) ~sampler ftb =
  (ok_or_fail "Runner.analyze_file"
     (Runner.analyze_file ~engine:w.engine ~sampler ?clock_size:w.clock_size ftb))
    .Runner.result

(* What a user waits for before the first event is analysed: open the trace,
   read its header, pick the engine and create the detector. *)
let setup_once w ~sampler ftb =
  let t0 = now () in
  with_reader ftb (fun reader ->
      let config = config_of w ~sampler (Tb.header reader) in
      let (module D : Detector.S) = Engine.detector w.engine in
      ignore (Sys.opaque_identity (D.create config)));
  secs_between t0 (now ())

(* Decode and detect the way Runner does, reading the clock only at batch
   boundaries: [on_batch t0 t1 t2] receives the times before decoding, after
   decoding and after handling each batch.  Also returns a function that
   counts the words the detector's state occupies at the end, a heap walk
   best kept out of any timed region. *)
let stream_pass w ~sampler ftb ~capacity ~on_batch =
  with_reader ftb (fun reader ->
      let config = config_of w ~sampler (Tb.header reader) in
      let (module D : Detector.S) = Engine.detector w.engine in
      let d = D.create config in
      let batch = Tb.create_batch ~capacity () in
      let rec loop () =
        let t0 = now () in
        match Tb.read_batch reader batch with
        | Error msg -> failwith msg
        | Ok 0 -> ()
        | Ok n ->
          let t1 = now () in
          let start = Tb.events_read reader - n in
          for j = 0 to n - 1 do
            D.handle d (start + j) (Tb.batch_event batch j)
          done;
          on_batch t0 t1 (now ());
          loop ()
      in
      loop ();
      (D.result d, fun () -> Obj.reachable_words (Obj.repr d)))

(* Mean of the last tenth of a session's batch latencies over the mean of
   its first tenth: how much the system slowed down within one session. *)
let late_early_ratio lat =
  let n = Array.length lat in
  let k = Stdlib.max 1 (n / 10) in
  let mean a = Ft_support.Stats.mean a in
  mean (Array.sub lat (n - k) k) /. mean (Array.sub lat 0 k)

(* Lemmas 7/8 at a sampling rate below 1, the rate-1 identity of the
   O(1)-samples engines at rate 1: an answer from a different engine. *)
let cross_check (w : Catalog.workload) ~sampler trace oracle =
  match w.engine with
  | (Engine.O1 | Engine.O1u) when w.rate >= 1.0 ->
    Oracle.same_races ~reference:(Engine.run Engine.Fasttrack trace) oracle
  | Engine.St -> Ok ()
  | _ ->
    Oracle.same_race_events
      ~reference:(Engine.run Engine.St ~sampler ?clock_size:w.clock_size trace)
      oracle

(* Percentiles of each pass's batch latencies, [scale]d by the pass's own
   ET time, then the median over passes.  A 512-event pass over an analyze
   trace yields thousands of batches, enough for a p99 with ten samples
   beyond it on its own. *)
let per_pass_percentile runs p ~scale =
  Stats.median
    (Array.of_list
       (List.map (fun (lat, et) -> (Stats.nearest_rank lat p).Stats.value /. scale et) runs))

(* --- per-layer attribution ------------------------------------------------------ *)

(* Untraced/traced pairs fill up to two seconds, since the pass over a
   short daemon session lasts only a few tens of milliseconds. *)
let attribution_budget_s = 2.0

(* Runs with tracing on, after the end-to-end numbers are taken.  The
   decode-and-detect loop runs in pairs, once untraced (the GC deltas are
   taken around it) and once recording spans per 8192-event batch; the
   tracing overhead is the median ratio within a pair.  Then three replays
   each isolate one layer: a fresh sampler instance queried on every
   access, the sync events alone (plus the pending-bit effect of each
   sampled access, the construction behind the sharded baseline), and the
   instrumentation-only ET loop.  The sync replay runs without the access
   handlers' cache traffic, so its time is a lower bound on the sync
   handlers' share. *)
let attribute s w ~sampler ~ftb ~trace ~(oracle : Detector.result) ~min_reps ~budget_s =
  let events = Trace.length trace in
  let expected = report ~events oracle in
  let overheads = ref [] and decode = ref [] and handle = ref [] in
  let alloc = ref 0.0 and majors = ref 0 and live_words = ref 0 in
  let untraced () =
    let a0 = Gc.allocated_bytes () and m0 = (Gc.quick_stat ()).Gc.major_collections in
    let t0 = now () in
    let r, _ = stream_pass w ~sampler ftb ~capacity:8192 ~on_batch:(fun _ _ _ -> ()) in
    let t1 = now () in
    alloc := !alloc +. (Gc.allocated_bytes () -. a0);
    majors := !majors + ((Gc.quick_stat ()).Gc.major_collections - m0);
    check s (Oracle.same_report ~expected ~actual:(report ~events r));
    secs_between t0 t1
  in
  let traced () =
    let root = fresh_span_id s in
    let dec = ref 0L and hnd = ref 0L in
    let t0 = now () in
    let r, words =
      stream_pass w ~sampler ftb ~capacity:8192 ~on_batch:(fun b0 b1 b2 ->
          span s ~parent:root "trace_binary.read_batch" ~start_ns:b0 ~end_ns:b1;
          span s ~parent:root "detector.handle_batch" ~start_ns:b1 ~end_ns:b2;
          dec := Int64.add !dec (Int64.sub b1 b0);
          hnd := Int64.add !hnd (Int64.sub b2 b1))
    in
    let t1 = now () in
    span s ~id:root "analyze" ~start_ns:t0 ~end_ns:t1;
    check s (Oracle.same_report ~expected ~actual:(report ~events r));
    decode := (Int64.to_float !dec /. 1e9) :: !decode;
    handle := (Int64.to_float !hnd /. 1e9) :: !handle;
    live_words := words ();
    secs_between t0 t1
  in
  (* alternate which side of a pair runs first *)
  let pairs =
    reps ~min_reps ~budget_s:(Float.min budget_s attribution_budget_s) @@ fun () ->
    let u, t =
      if List.length !overheads mod 2 = 0 then
        let u = untraced () in
        (u, traced ())
      else
        let t = traced () in
        (untraced (), t)
    in
    overheads := (t /. u) -. 1.0 :: !overheads
  in
  (* sampler: a fresh instance queried on every access, in trace order *)
  let sampled = Array.make events false and queries = ref 0 in
  let inst = Sampler.fresh sampler in
  let t0 = now () in
  for i = 0 to events - 1 do
    let e = Trace.get trace i in
    if Event.is_access e then begin
      incr queries;
      if Sampler.query inst i e then sampled.(i) <- true
    end
  done;
  let t1 = now () in
  span s "sampler.replay" ~start_ns:t0 ~end_ns:t1;
  let sampler_s = secs_between t0 t1 in
  (* sync handlers: sync events only, plus note_sampled per sampled access *)
  let (module D : Detector.S) = Engine.detector w.engine in
  let d = D.create (Detector.config_of_trace ~sampler ?clock_size:w.clock_size trace) in
  let t0 = now () in
  for i = 0 to events - 1 do
    let e = Trace.get trace i in
    if not (Event.is_access e) then D.handle d i e
    else if sampled.(i) then D.note_sampled d e.Event.thread
  done;
  let t1 = now () in
  span s "detector.sync_replay" ~start_ns:t0 ~end_ns:t1;
  let sync_s = secs_between t0 t1 in
  (match
     Oracle.same_sync_counters ~full:oracle.Detector.metrics
       ~sync_only:(D.result d).Detector.metrics
   with
  | Ok () -> ()
  | Error msg -> problem s msg);
  (* ET: the instrumentation cost alone *)
  let t0 = now () in
  ignore (Detector.replay_instrumented trace);
  let t1 = now () in
  span s "instrumentation.et_replay" ~start_ns:t0 ~end_ns:t1;
  let m = oracle.Detector.metrics in
  let n = Array.length pairs and per_event x = x /. float_of_int events *. 1e9 in
  let decode_s = Stats.median (Array.of_list !decode) and handle_s = Stats.median (Array.of_list !handle) in
  let count name v = metric s name (float_of_int v) ~n:1 in
  metric s "trace_binary.busy_s" decode_s ~n;
  metric s "trace_binary.ns_per_event" (per_event decode_s) ~n;
  metric s "sampler.busy_s" sampler_s ~n:1;
  metric s "sampler.ns_per_query" (sampler_s /. float_of_int (Stdlib.max 1 !queries) *. 1e9) ~n:1;
  metric s "detector.busy_s" handle_s ~n;
  metric s "detector.ns_per_event" (per_event handle_s) ~n;
  metric s "detector.live_mb" (float_of_int (!live_words * (Sys.word_size / 8)) /. 1048576.0) ~n:1;
  metric s "detector.sync.busy_s" sync_s ~n:1;
  count "detector.sync.acquires_skipped" m.Ft_core.Metrics.acquires_skipped;
  metric s "detector.sync.skip_ratio" (Ft_core.Metrics.acquires_skipped_ratio m) ~n:1;
  count "detector.sync.releases_processed" m.Ft_core.Metrics.releases_processed;
  count "detector.sync.vc_full_ops" m.Ft_core.Metrics.vc_full_ops;
  count "detector.sync.entries_traversed" m.Ft_core.Metrics.entries_traversed;
  count "detector.sync.deep_copies" m.Ft_core.Metrics.deep_copies;
  metric s "detector.access.busy_s" (handle_s -. sync_s) ~n:1;
  count "detector.access.race_checks" m.Ft_core.Metrics.race_checks;
  count "detector.access.same_epoch_hits" m.Ft_core.Metrics.same_epoch_hits;
  metric s "instrumentation.et_s" (secs_between t0 t1) ~n:1;
  metric s "gc.alloc_bytes_per_event" (!alloc /. float_of_int (n * events)) ~n;
  metric s "gc.major_collections" (float_of_int !majors /. float_of_int n) ~n;
  metric s "bench.tracing_overhead" (Stats.median (Array.of_list !overheads)) ~n

(* --- the analyze workloads ------------------------------------------------------ *)

let setup_reps = 21

(* Until [budget_s] runs out, each round times a Runner pass (throughput),
   an instrumented pass (AO) and a streamed 512-event pass (batch latency),
   each followed by an ET replay of the in-memory trace: every end-to-end
   ratio divides a pass by the ET replay next to it. *)
let run s (w : Catalog.workload) ~seed ~ftb ~budget_s ~min_reps ~traced =
  let sampler = sampler_of w ~seed in
  let events = with_reader ftb (fun r -> (Tb.header r).Tb.nevents) in
  (* a fresh process's peak while streaming the trace once, as racedet
     analyze would, before anything else grows the heap *)
  let results = ref [ analyze_file w ~sampler ftb ] in
  let rss = peak_rss_mb 0 in
  let trace = ok_or_fail ftb (Tb.of_file ftb) in
  let oracle = Engine.run w.engine ~sampler ?clock_size:w.clock_size trace in
  let expected = report ~events oracle in
  (match cross_check w ~sampler trace oracle with Ok () -> () | Error msg -> problem s msg);
  let et () = snd (timed (fun () -> Detector.replay_instrumented trace)) in
  (* each set-up follows an ET replay, whose allocations leave heap and
     caches about as cold as a fresh analysis finds them *)
  let setups =
    List.init setup_reps (fun _ ->
        let e = et () in
        (setup_once w ~sampler ftb, e))
  in
  let runner = ref [] and instr = ref [] and passes = ref [] in
  ignore
    (reps ~min_reps ~budget_s (fun () ->
         let r, t = timed (fun () -> analyze_file w ~sampler ftb) in
         results := r :: !results;
         runner := (t, et ()) :: !runner;
         let r, t =
           timed (fun () -> Engine.run_instrumented w.engine ~sampler ?clock_size:w.clock_size trace)
         in
         check s (Oracle.same_report ~expected ~actual:(report ~events r));
         instr := (t, et ()) :: !instr;
         let lat = ref [] in
         let r, _ =
           stream_pass w ~sampler ftb ~capacity:Catalog.batch_events ~on_batch:(fun t0 _ t2 ->
               lat := secs_between t0 t2 :: !lat)
         in
         check s (Oracle.same_report ~expected ~actual:(report ~events r));
         passes := (Array.of_list (List.rev !lat), et ()) :: !passes));
  List.iter (fun r -> check s (Oracle.same_report ~expected ~actual:(report ~events r))) !results;
  let med f l = Stats.median (Array.of_list (List.map f l)) and n = List.length !runner in
  let per_event = float_of_int events in
  let et_batch et = et *. float_of_int Catalog.batch_events /. per_event in
  metric s "slowdown" (med (fun (t, et) -> t /. et) !runner) ~n;
  metric s "ao_ratio" (med (fun (t, et) -> (t -. et) /. et) !instr) ~n;
  metric s "batch_p50_x" (per_pass_percentile !passes 50.0 ~scale:et_batch) ~n;
  metric s "batch_p99_x" (per_pass_percentile !passes 99.0 ~scale:et_batch) ~n;
  metric s "setup_s"
    (Catalog.at_reference_speed ~events (med (fun (t, et) -> t /. et) setups))
    ~n:setup_reps;
  metric s "peak_rss_mb" rss ~n:1;
  metric s "events_per_s" (per_event /. med fst !runner) ~n;
  metric s "ao_ns_per_event" (med (fun (t, et) -> t -. et) !instr /. per_event *. 1e9) ~n;
  metric s "batch_ms_p50" (per_pass_percentile !passes 50.0 ~scale:(fun _ -> 1e-3)) ~n;
  metric s "batch_ms_p99" (per_pass_percentile !passes 99.0 ~scale:(fun _ -> 1e-3)) ~n;
  metric s "setup_raw_s" (med fst setups) ~n:setup_reps;
  metric s "client.late_early_ratio" (med (fun (lat, _) -> late_early_ratio lat) !passes) ~n;
  List.iter (fun name -> metric s name 0.0 ~n:0) Catalog.daemon_layers;
  if traced then attribute s w ~sampler ~ftb ~trace ~oracle ~min_reps ~budget_s
