(* Checkpoint/restore correctness:

   - prefix equivalence: snapshotting any engine at a random cut, restoring,
     and feeding the suffix yields exactly the races, race order and metrics
     of an uninterrupted run — including stateful samplers and padded clocks;
   - the .ftc container rejects corruption (bit flips, truncation at every
     byte, wrong version, random bytes) with [Error], never an exception —
     and a rejected checkpoint never changes an analysis result (the runner
     falls back to full replay);
   - Ordered_list deep copies and snapshot roundtrips preserve the recency
     order that Alg 4's d-prefix traversals depend on;
   - the Metrics record's serialization arity is guarded against field drift;
   - Online monitors roundtrip through snapshot/restore, validator included. *)

module Event = Ft_trace.Event
module Trace = Ft_trace.Trace
module Trace_gen = Ft_trace.Trace_gen
module Trace_binary = Ft_trace.Trace_binary
module Prng = Ft_support.Prng
module Engine = Ft_core.Engine
module Detector = Ft_core.Detector
module Sampler = Ft_core.Sampler
module Race = Ft_core.Race
module Metrics = Ft_core.Metrics
module Snap = Ft_core.Snap
module Ol = Ft_core.Ordered_list
module Online = Ft_core.Online
module Checkpoint = Ft_snapshot.Checkpoint
module Runner = Ft_snapshot.Runner

let engines = Engine.all @ [ Engine.Eraser ]

let sampler_specs =
  [
    ("all", fun () -> Sampler.all);
    ("bernoulli", fun () -> Sampler.bernoulli ~rate:0.3 ~seed:13);
    ("windowed", fun () -> Sampler.windowed ~period:20 ~duty:0.4);
    ("cold_region", fun () -> Sampler.cold_region ~threshold:2);
    ("adaptive", fun () -> Sampler.adaptive ~base_rate:3);
  ]

(* --- prefix equivalence (property) --------------------------------------- *)

type scenario = {
  seed : int;
  params : Trace_gen.params;
  cut_frac : float;
  pad : int;  (* clock_size = nthreads + pad: exercises clock_size > T *)
  sampler_ix : int;
}

let scenario_gen =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let* nthreads = int_range 2 6 in
    let* nlocks = int_range 0 4 in
    let* nlocs = int_range 1 8 in
    let* length = int_range 20 180 in
    let* atomics = bool in
    let* forkjoin = bool in
    let* cut_frac = oneofl [ 0.0; 0.1; 0.37; 0.5; 0.9; 1.0 ] in
    let* pad = int_bound 4 in
    let* sampler_ix = int_bound (List.length sampler_specs - 1) in
    return
      {
        seed;
        params = { Trace_gen.nthreads; nlocks; nlocs; length; atomics; forkjoin };
        cut_frac;
        pad;
        sampler_ix;
      })

let print_scenario s =
  Printf.sprintf "seed=%d threads=%d locks=%d locs=%d len=%d atomics=%b fj=%b cut=%g pad=%d sampler=%s"
    s.seed s.params.Trace_gen.nthreads s.params.Trace_gen.nlocks s.params.Trace_gen.nlocs
    s.params.Trace_gen.length s.params.Trace_gen.atomics s.params.Trace_gen.forkjoin
    s.cut_frac s.pad
    (fst (List.nth sampler_specs s.sampler_ix))

let scenario_arb = QCheck.make ~print:print_scenario scenario_gen

let run_full id config trace =
  let (module D : Detector.S) = Engine.detector id in
  let d = D.create config in
  Trace.iteri (fun i e -> D.handle d i e) trace;
  D.result d

(* Run the prefix, snapshot, push the snapshot through the .ftc container,
   restore, run the suffix.  Also checks snapshot determinism: the restored
   detector re-snapshots to the same bytes. *)
let run_cut id config trace ~cut =
  let (module D : Detector.S) = Engine.detector id in
  let d = D.create config in
  for i = 0 to cut - 1 do
    D.handle d i (Trace.get trace i)
  done;
  let snap = D.snapshot d in
  let cp =
    {
      Checkpoint.meta =
        {
          Checkpoint.engine = id;
          sampler = Sampler.name config.Detector.sampler;
          nthreads = config.Detector.nthreads;
          nlocks = config.Detector.nlocks;
          nlocs = config.Detector.nlocs;
          clock_size = config.Detector.clock_size;
          next_index = cut;
          byte_offset = -1;
        };
      detector = snap;
    }
  in
  let snap =
    match Checkpoint.of_string (Checkpoint.to_string cp) with
    | Ok cp' -> cp'.Checkpoint.detector
    | Error msg -> Alcotest.failf "container roundtrip failed: %s" msg
  in
  let d' = D.restore config snap in
  if not (String.equal (D.snapshot d') snap) then
    Alcotest.failf "%s: restore is not snapshot-stable at cut %d" (Engine.name id) cut;
  for i = cut to Trace.length trace - 1 do
    D.handle d' i (Trace.get trace i)
  done;
  D.result d'

let prop_prefix_equivalence s =
  let prng = Prng.create ~seed:s.seed in
  let trace = Trace_gen.random prng s.params in
  let n = Trace.length trace in
  let cut = Stdlib.min n (int_of_float (s.cut_frac *. float_of_int n)) in
  let _, mk_sampler = List.nth sampler_specs s.sampler_ix in
  List.for_all
    (fun id ->
      let sampler = mk_sampler () in
      let config =
        {
          Detector.nthreads = trace.Trace.nthreads;
          nlocks = trace.Trace.nlocks;
          nlocs = trace.Trace.nlocs;
          clock_size = trace.Trace.nthreads + s.pad;
          sampler;
        }
      in
      let full = run_full id config trace in
      let interrupted = run_cut id config trace ~cut in
      let same_races = full.Detector.races = interrupted.Detector.races in
      let same_metrics =
        Metrics.to_array full.Detector.metrics = Metrics.to_array interrupted.Detector.metrics
      in
      if not (same_races && same_metrics) then
        QCheck.Test.fail_reportf "%s diverges after restore at cut %d (races %b, metrics %b)"
          (Engine.name id) cut same_races same_metrics
      else true)
    engines

let prefix_equivalence_test =
  QCheck.Test.make ~name:"snapshot+suffix ≡ uninterrupted (all engines)" ~count:40
    scenario_arb prop_prefix_equivalence

(* --- .ftc loader fuzzing -------------------------------------------------- *)

(* A small but real checkpoint: SO with a stateful sampler over a random
   trace, snapshotted midway. *)
let sample_checkpoint_string =
  lazy
    (let prng = Prng.create ~seed:99 in
     let trace =
       Trace_gen.random prng { Trace_gen.default with Trace_gen.length = 200 }
     in
     let config =
       {
         Detector.nthreads = trace.Trace.nthreads;
         nlocks = trace.Trace.nlocks;
         nlocs = trace.Trace.nlocs;
         clock_size = trace.Trace.nthreads;
         sampler = Sampler.cold_region ~threshold:2;
       }
     in
     let (module D : Detector.S) = Engine.detector Engine.So in
     let d = D.create config in
     for i = 0 to (Trace.length trace / 2) - 1 do
       D.handle d i (Trace.get trace i)
     done;
     Checkpoint.to_string
       {
         Checkpoint.meta =
           {
             Checkpoint.engine = Engine.So;
             sampler = Sampler.name config.Detector.sampler;
             nthreads = config.Detector.nthreads;
             nlocks = config.Detector.nlocks;
             nlocs = config.Detector.nlocs;
             clock_size = config.Detector.clock_size;
             next_index = Trace.length trace / 2;
             byte_offset = -1;
           };
         detector = D.snapshot d;
       })

let expect_error what = function
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s was accepted" what

let test_fuzz_bit_flips () =
  let s = Lazy.force sample_checkpoint_string in
  (* roundtrip sanity first: the pristine string must load *)
  (match Checkpoint.of_string s with
  | Ok cp -> Alcotest.(check int) "engine survives roundtrip" 0
               (compare cp.Checkpoint.meta.Checkpoint.engine Engine.So)
  | Error msg -> Alcotest.failf "pristine checkpoint rejected: %s" msg);
  String.iteri
    (fun pos c ->
      let b = Bytes.of_string s in
      Bytes.set b pos (Char.chr (Char.code c lxor 1));
      expect_error
        (Printf.sprintf "bit flip at byte %d" pos)
        (Checkpoint.of_string (Bytes.to_string b)))
    s

let test_fuzz_truncation () =
  let s = Lazy.force sample_checkpoint_string in
  for len = 0 to String.length s - 1 do
    expect_error
      (Printf.sprintf "truncation to %d bytes" len)
      (Checkpoint.of_string (String.sub s 0 len))
  done

let test_fuzz_version () =
  let s = Lazy.force sample_checkpoint_string in
  List.iter
    (fun v ->
      let b = Bytes.of_string s in
      Bytes.set b 4 (Char.chr v);
      match Checkpoint.of_string (Bytes.to_string b) with
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "version %d names the version" v)
          true
          (String.length msg > 0)
      | Ok _ -> Alcotest.failf "version byte %d accepted" v)
    [ 0; 2; 3; 127; 255 ]

let test_fuzz_random_bytes () =
  let prng = Prng.create ~seed:4242 in
  for _ = 1 to 500 do
    let len = Prng.int prng 64 in
    let b = Bytes.init len (fun _ -> Char.chr (Prng.int prng 256)) in
    expect_error "random bytes" (Checkpoint.of_string (Bytes.to_string b))
  done;
  (* random payloads behind a valid magic+version exercise the decoders *)
  for _ = 1 to 500 do
    let len = Prng.int prng 96 in
    let b = Bytes.init (5 + len) (fun _ -> Char.chr (Prng.int prng 256)) in
    Bytes.blit_string "FTCK\001" 0 b 0 5;
    expect_error "random payload" (Checkpoint.of_string (Bytes.to_string b))
  done

(* --- ordered-list regressions -------------------------------------------- *)

let test_ol_deep_copy_preserves_order () =
  let o = Ol.create 6 in
  Ol.set o 3 5;
  Ol.increment o 1 2;
  Ol.set o 4 1;
  Ol.set o 1 7;
  let c = Ol.deep_copy o in
  Alcotest.(check (list int)) "recency order preserved" (Ol.order o) (Ol.order c);
  for t = 0 to 5 do
    Alcotest.(check int) (Printf.sprintf "value %d preserved" t) (Ol.get o t) (Ol.get c t)
  done;
  Alcotest.(check bool) "copy invariants" true (Ol.check_invariants c)

let test_ol_deep_copy_does_not_alias () =
  let o = Ol.create 4 in
  Ol.set o 2 9;
  let order_before = Ol.order o in
  let c = Ol.deep_copy o in
  (* mutating the hand-off copy must not leak into the original *)
  Ol.set c 0 99;
  Ol.increment c 3 5;
  Alcotest.(check int) "original value intact" 0 (Ol.get o 0);
  Alcotest.(check int) "original value intact (3)" 0 (Ol.get o 3);
  Alcotest.(check (list int)) "original order intact" order_before (Ol.order o);
  (* and the other direction *)
  Ol.set o 1 4;
  Alcotest.(check int) "copy unaffected by original" 0 (Ol.get c 1)

let test_ol_snapshot_roundtrip_order () =
  let prng = Prng.create ~seed:31 in
  for n = 1 to 12 do
    let o = Ol.create n in
    for _ = 1 to 40 do
      let t = Prng.int prng n in
      if Prng.bernoulli prng ~p:0.5 then Ol.set o t (Prng.int prng 100)
      else Ol.increment o t (1 + Prng.int prng 5)
    done;
    let enc = Snap.Enc.create () in
    Ol.encode enc o;
    let dec = Snap.Dec.of_snap (Snap.Enc.to_snap enc) in
    let o' = Ol.decode dec ~size:n in
    Snap.Dec.finish dec;
    Alcotest.(check (list int))
      (Printf.sprintf "move-to-front order restored (n=%d)" n)
      (Ol.order o) (Ol.order o');
    for t = 0 to n - 1 do
      Alcotest.(check int) (Printf.sprintf "value %d/%d" t n) (Ol.get o t) (Ol.get o' t)
    done;
    Alcotest.(check bool) "invariants" true (Ol.check_invariants o')
  done

(* At TSan's 256-entry clocks SO recycles its lists and copies only their
   reordered prefix; a restore recomputes the watermarks and rebuilds the
   reference counts from the decoded sharing.  A run snapshotted at random
   cuts of a server trace and continued must still match the uninterrupted
   one: same REPORT bytes, same metrics. *)
let test_padded_cut_equivalence () =
  let trace =
    Ft_workloads.Db_sim.generate
      (Option.get (Ft_workloads.Db_sim.profile "tpcc"))
      ~seed:11 ~target_events:40_000
  in
  let events = Trace.length trace in
  let prng = Prng.create ~seed:256 in
  List.iter
    (fun id ->
      let config =
        {
          Detector.nthreads = trace.Trace.nthreads;
          nlocks = trace.Trace.nlocks;
          nlocs = trace.Trace.nlocs;
          clock_size = 256;
          sampler = Sampler.bernoulli ~rate:0.1 ~seed:5;
        }
      in
      let full = run_full id config trace in
      for _ = 1 to 2 do
        let cut = 1 + Prng.int prng (events - 1) in
        let what = Printf.sprintf "%s T=256 cut %d" (Engine.name id) cut in
        let resumed = run_cut id config trace ~cut in
        Alcotest.(check string) (what ^ ": REPORT")
          (Ft_shard.Serve.report_text ~events full)
          (Ft_shard.Serve.report_text ~events resumed);
        Alcotest.(check (array int)) (what ^ ": metrics")
          (Metrics.to_array full.Detector.metrics)
          (Metrics.to_array resumed.Detector.metrics)
      done)
    [ Engine.St; Engine.Su; Engine.So ]

(* --- lock-sharing encoding ------------------------------------------------- *)

(* SO and SL snapshots encode their lazily shared lock clocks through the
   linear [Snap.Enc.shared].  On a trace with thousands of locks, each
   engine's snapshot must start with exactly the bytes the quadratic
   reference scan (the vendored engines' [encode_lock_lists] /
   [encode_lock_vcs] in Ref_engines) writes for the same state, and must
   roundtrip through restore. *)
let many_locks_trace =
  lazy
    (Trace_gen.random (Prng.create ~seed:2025)
       {
         Trace_gen.nthreads = 8;
         nlocks = 2500;
         nlocs = 64;
         length = 40_000;
         atomics = true;
         forkjoin = true;
       })

let encoded f =
  let enc = Snap.Enc.create () in
  f enc;
  Snap.Enc.to_snap enc

let check_shared_prefix name (module D : Detector.S) ~reference =
  let trace = Lazy.force many_locks_trace in
  let config =
    {
      Detector.nthreads = trace.Trace.nthreads;
      nlocks = trace.Trace.nlocks;
      nlocs = trace.Trace.nlocs;
      clock_size = trace.Trace.nthreads;
      sampler = Sampler.bernoulli ~rate:0.5 ~seed:3;
    }
  in
  let d = D.create config in
  Trace.iteri (D.handle d) trace;
  let prefix, locks = reference config trace in
  Alcotest.(check bool) (name ^ ": ≥2000 locks hold a clock") true (locks >= 2000);
  let snap = D.snapshot d in
  Alcotest.(check bool)
    (name ^ ": snapshot bytes through the lock arrays equal the reference encoder's")
    true
    (String.starts_with ~prefix snap);
  Alcotest.(check bool) (name ^ ": snapshot roundtrips") true
    (String.equal snap (D.snapshot (D.restore config snap)))

let test_lock_sharing_encoding () =
  let so config trace =
    let module R = Ref_engines.Sampling_ordered_list in
    let d = R.create config in
    Trace.iteri (R.handle d) trace;
    ( encoded (fun enc ->
          d.R.sample.Sampler.save enc;
          Array.iter (Ol.encode enc) d.R.olists;
          Snap.Enc.int_array enc d.R.own;
          Array.iter (Ft_core.Vector_clock.encode enc) d.R.uclocks;
          Snap.Enc.int_array enc d.R.epochs;
          Snap.Enc.bool_array enc d.R.pending;
          Snap.Enc.bool_array enc d.R.shared;
          R.encode_lock_lists enc d;
          Snap.Enc.int_array enc d.R.lock_own;
          Snap.Enc.int_array enc d.R.lock_lr;
          Snap.Enc.int_array enc d.R.lock_u),
      Array.fold_left (fun n l -> if l = None then n else n + 1) 0 d.R.lock_ol )
  in
  let sl config trace =
    let module R = Ref_engines.Sampling_lazy in
    let d = R.create config in
    Trace.iteri (R.handle d) trace;
    ( encoded (fun enc ->
          d.R.sample.Sampler.save enc;
          Array.iter (Ft_core.Vector_clock.encode enc) d.R.clocks;
          Snap.Enc.int_array enc d.R.own;
          Array.iter (Ft_core.Vector_clock.encode enc) d.R.uclocks;
          Snap.Enc.int_array enc d.R.epochs;
          Snap.Enc.bool_array enc d.R.pending;
          Snap.Enc.bool_array enc d.R.shared;
          R.encode_lock_vcs enc d;
          Snap.Enc.int_array enc d.R.lock_own;
          Snap.Enc.int_array enc d.R.lock_lr;
          Snap.Enc.int_array enc d.R.lock_u),
      Array.fold_left (fun n l -> if l = None then n else n + 1) 0 d.R.lock_vc )
  in
  check_shared_prefix "so" (Engine.detector Engine.So) ~reference:so;
  check_shared_prefix "sl" (Engine.detector Engine.Sl) ~reference:sl

(* --- metrics field-drift guard -------------------------------------------- *)

(* The record is all-int, so its heap block has one field per counter; any
   field added without updating to_array/copy/add breaks one of these. *)
let test_metrics_arity_guard () =
  let m = Metrics.create () in
  Alcotest.(check int) "field_count matches the record's arity"
    (Obj.size (Obj.repr m)) Metrics.field_count;
  Alcotest.(check int) "to_array covers every field" Metrics.field_count
    (Array.length (Metrics.to_array m))

let test_metrics_copy_add_cover_all_fields () =
  let m = Metrics.create () in
  let r = Obj.repr m in
  for i = 0 to Metrics.field_count - 1 do
    Obj.set_field r i (Obj.repr (i + 1))
  done;
  let expected = Array.init Metrics.field_count (fun i -> i + 1) in
  Alcotest.(check (array int)) "to_array sees distinct values" expected (Metrics.to_array m);
  Alcotest.(check (array int)) "copy preserves every field" expected
    (Metrics.to_array (Metrics.copy m));
  let acc = Metrics.create () in
  Metrics.add ~into:acc m;
  Metrics.add ~into:acc m;
  Alcotest.(check (array int)) "add accumulates every field"
    (Array.map (fun v -> 2 * v) expected)
    (Metrics.to_array acc)

let test_metrics_of_array () =
  let arr = Array.init Metrics.field_count (fun i -> 7 * i) in
  (match Metrics.of_array arr with
  | Some m -> Alcotest.(check (array int)) "of_array inverts to_array" arr (Metrics.to_array m)
  | None -> Alcotest.fail "of_array rejected a correct arity");
  Alcotest.(check bool) "wrong arity rejected" true (Metrics.of_array [| 1; 2 |] = None)

(* --- online monitor roundtrip --------------------------------------------- *)

let online_trace =
  lazy
    (let prng = Prng.create ~seed:17 in
     Trace_gen.random prng
       { Trace_gen.default with Trace_gen.length = 600; nthreads = 4; forkjoin = true })

let feed_range monitor trace lo hi =
  for i = lo to hi - 1 do
    match Online.feed monitor (Trace.get trace i) with
    | Ok () -> ()
    | Error { Online.reason; _ } -> Alcotest.failf "event %d rejected: %s" i reason
  done

let test_online_snapshot_roundtrip () =
  let trace = Lazy.force online_trace in
  let n = Trace.length trace in
  let sampler = Sampler.cold_region ~threshold:2 in
  let dims t = (t.Trace.nthreads, t.Trace.nlocks, t.Trace.nlocs) in
  let nthreads, nlocks, nlocs = dims trace in
  let straight = Online.create ~engine:Engine.So ~sampler ~nthreads ~nlocks ~nlocs () in
  feed_range straight trace 0 n;
  let first = Online.create ~engine:Engine.So ~sampler ~nthreads ~nlocks ~nlocs () in
  feed_range first trace 0 (n / 3);
  let resumed =
    Online.restore ~engine:Engine.So ~sampler ~nthreads ~nlocks ~nlocs
      (Online.snapshot first)
  in
  Alcotest.(check int) "events_seen restored" (n / 3) (Online.events_seen resumed);
  feed_range resumed trace (n / 3) n;
  Alcotest.(check bool) "same races" true (Online.races straight = Online.races resumed);
  Alcotest.(check (array int)) "same metrics"
    (Metrics.to_array (Online.metrics straight))
    (Metrics.to_array (Online.metrics resumed))

let test_online_checkpoint_callback () =
  let trace = Lazy.force online_trace in
  let count = ref 0 in
  let monitor =
    Online.create ~engine:Engine.Su ~checkpoint_every:50
      ~on_checkpoint:(fun t -> incr count; ignore (Online.snapshot t))
      ~nthreads:trace.Trace.nthreads ~nlocks:trace.Trace.nlocks ~nlocs:trace.Trace.nlocs ()
  in
  let n = Trace.length trace in
  feed_range monitor trace 0 n;
  Alcotest.(check int) "one callback per interval" (n / 50) !count

let test_online_rejects_corrupt_snapshot () =
  let trace = Lazy.force online_trace in
  let monitor =
    Online.create ~engine:Engine.So ~nthreads:trace.Trace.nthreads
      ~nlocks:trace.Trace.nlocks ~nlocs:trace.Trace.nlocs ()
  in
  feed_range monitor trace 0 100;
  let s = Online.snapshot monitor in
  let truncated = String.sub s 0 (String.length s / 2) in
  match
    Online.restore ~engine:Engine.So ~nthreads:trace.Trace.nthreads
      ~nlocks:trace.Trace.nlocks ~nlocs:trace.Trace.nlocs truncated
  with
  | exception Snap.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncated online snapshot accepted"

(* --- resumable .ftb analyses ---------------------------------------------- *)

let with_temp_ftb f =
  let prng = Prng.create ~seed:5 in
  let trace =
    Trace_gen.random prng
      { Trace_gen.default with
        Trace_gen.length = 3_000; nthreads = 4; nlocks = 3; nlocs = 8; forkjoin = true }
  in
  let path = Filename.temp_file "ftc_test" ".ftb" in
  Trace_binary.to_file path trace;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path trace)

let get_ok = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "runner failed: %s" msg

let check_same_outcome name (a : Runner.outcome) (b : Runner.outcome) =
  Alcotest.(check bool) (name ^ ": same races") true
    (a.Runner.result.Detector.races = b.Runner.result.Detector.races);
  Alcotest.(check (array int)) (name ^ ": same metrics")
    (Metrics.to_array a.Runner.result.Detector.metrics)
    (Metrics.to_array b.Runner.result.Detector.metrics)

let test_runner_resume_equals_straight () =
  with_temp_ftb @@ fun path _trace ->
  let cp = Filename.temp_file "ftc_test" ".ftc" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists cp then Sys.remove cp) @@ fun () ->
  List.iter
    (fun engine ->
      let sampler = Sampler.bernoulli ~rate:0.4 ~seed:9 in
      let straight = get_ok (Runner.analyze_file ~engine ~sampler path) in
      let checkpointed =
        get_ok (Runner.analyze_file ~engine ~sampler ~checkpoint:cp ~checkpoint_every:1_000 path)
      in
      Alcotest.(check bool)
        (Engine.name engine ^ ": checkpoints written")
        true
        (checkpointed.Runner.checkpoints_written > 0);
      let resumed = get_ok (Runner.analyze_file ~engine ~sampler ~resume:cp path) in
      (match resumed.Runner.resumed_at with
      | Some k -> Alcotest.(check bool) (Engine.name engine ^ ": resumed midway") true (k > 0)
      | None ->
        Alcotest.failf "%s: did not resume (%s)" (Engine.name engine)
          (Option.value resumed.Runner.resume_error ~default:"?"));
      check_same_outcome (Engine.name engine) straight resumed)
    [ Engine.Djit; Engine.Fasttrack; Engine.Fasttrack_tc; Engine.St; Engine.Su; Engine.So ]

let test_runner_fallback_on_bad_checkpoint () =
  with_temp_ftb @@ fun path _trace ->
  let sampler = Sampler.bernoulli ~rate:0.4 ~seed:9 in
  let straight = get_ok (Runner.analyze_file ~engine:Engine.So ~sampler path) in
  let cp = Filename.temp_file "ftc_test" ".ftc" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists cp then Sys.remove cp) @@ fun () ->
  let good =
    get_ok
      (Runner.analyze_file ~engine:Engine.So ~sampler ~checkpoint:cp ~checkpoint_every:1_000
         path)
  in
  Alcotest.(check bool) "wrote checkpoints" true (good.Runner.checkpoints_written > 0);
  let valid = In_channel.with_open_bin cp In_channel.input_all in
  let try_resume ?sampler:(s = sampler) ?engine:(e = Engine.So) () =
    let o = get_ok (Runner.analyze_file ~engine:e ~sampler:s ~resume:cp path) in
    (match e with
    | Engine.So ->
      Alcotest.(check bool) "fell back" true (o.Runner.resume_error <> None);
      check_same_outcome "fallback" straight o
    | _ -> Alcotest.(check bool) "fell back" true (o.Runner.resume_error <> None));
    o
  in
  (* truncations at a few boundaries: never a wrong-answer resume *)
  List.iter
    (fun len ->
      Out_channel.with_open_bin cp (fun oc ->
          Out_channel.output_string oc (String.sub valid 0 len));
      ignore (try_resume ()))
    [ 0; 4; 5; 12; String.length valid / 2; String.length valid - 1 ];
  (* bit flip in the payload *)
  let flipped = Bytes.of_string valid in
  Bytes.set flipped (String.length valid / 2)
    (Char.chr (Char.code valid.[String.length valid / 2] lxor 0x10));
  Out_channel.with_open_bin cp (fun oc -> Out_channel.output_bytes oc flipped);
  ignore (try_resume ());
  (* restore the valid checkpoint: engine / sampler mismatches must fall back *)
  Out_channel.with_open_bin cp (fun oc -> Out_channel.output_string oc valid);
  ignore (try_resume ~engine:Engine.Su ());
  let o = get_ok (Runner.analyze_file ~engine:Engine.So ~sampler:Sampler.all ~resume:cp path) in
  Alcotest.(check bool) "sampler mismatch falls back" true (o.Runner.resume_error <> None)

let test_runner_trace_resume () =
  (* the in-memory path (textual traces): index-based skip, no byte offset *)
  let prng = Prng.create ~seed:23 in
  let trace =
    Trace_gen.random prng { Trace_gen.default with Trace_gen.length = 2_000; nthreads = 3 }
  in
  let sampler = Sampler.adaptive ~base_rate:3 in
  let cp = Filename.temp_file "ftc_test" ".ftc" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists cp then Sys.remove cp) @@ fun () ->
  let straight = get_ok (Runner.analyze_trace ~engine:Engine.So ~sampler trace) in
  let checkpointed =
    get_ok (Runner.analyze_trace ~engine:Engine.So ~sampler ~checkpoint:cp ~checkpoint_every:700 trace)
  in
  Alcotest.(check bool) "wrote checkpoints" true (checkpointed.Runner.checkpoints_written > 0);
  let resumed = get_ok (Runner.analyze_trace ~engine:Engine.So ~sampler ~resume:cp trace) in
  Alcotest.(check bool) "resumed" true (resumed.Runner.resumed_at <> None);
  check_same_outcome "trace resume" straight resumed

(* A checkpoint path in a directory that does not exist: every write fails,
   and neither loop lets the error escape — both analyses finish with the
   straight run's result and no checkpoint written. *)
let test_runner_missing_checkpoint_dir () =
  with_temp_ftb @@ fun path trace ->
  let cp =
    Filename.concat
      (Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "ftc-missing-%d" (Unix.getpid ())))
      "x.ftc"
  in
  let sampler = Sampler.bernoulli ~rate:0.4 ~seed:9 in
  let check name straight run =
    let o = get_ok (run ~checkpoint:cp ~checkpoint_every:500) in
    Alcotest.(check int) (name ^ ": no checkpoint written") 0 o.Runner.checkpoints_written;
    check_same_outcome name straight o
  in
  check ".ftb"
    (get_ok (Runner.analyze_file ~engine:Engine.So ~sampler path))
    (fun ~checkpoint ~checkpoint_every ->
      Runner.analyze_file ~engine:Engine.So ~sampler ~checkpoint ~checkpoint_every path);
  check "in-memory"
    (get_ok (Runner.analyze_trace ~engine:Engine.So ~sampler trace))
    (fun ~checkpoint ~checkpoint_every ->
      Runner.analyze_trace ~engine:Engine.So ~sampler ~checkpoint ~checkpoint_every trace)

let () =
  Alcotest.run "checkpoint"
    [
      ("prefix equivalence", [ QCheck_alcotest.to_alcotest prefix_equivalence_test ]);
      ( "ftc fuzzing",
        [
          Alcotest.test_case "bit flips all rejected" `Quick test_fuzz_bit_flips;
          Alcotest.test_case "truncation at every byte" `Quick test_fuzz_truncation;
          Alcotest.test_case "wrong version byte" `Quick test_fuzz_version;
          Alcotest.test_case "random bytes" `Quick test_fuzz_random_bytes;
        ] );
      ( "ordered list",
        [
          Alcotest.test_case "deep copy preserves order" `Quick test_ol_deep_copy_preserves_order;
          Alcotest.test_case "deep copy does not alias" `Quick test_ol_deep_copy_does_not_alias;
          Alcotest.test_case "snapshot restores order" `Quick test_ol_snapshot_roundtrip_order;
          Alcotest.test_case "T=256 tpcc: random cuts ≡ straight run" `Slow
            test_padded_cut_equivalence;
          Alcotest.test_case "lock sharing: linear encoder ≡ reference, ≥2000 locks" `Quick
            test_lock_sharing_encoding;
        ] );
      ( "metrics guard",
        [
          Alcotest.test_case "arity" `Quick test_metrics_arity_guard;
          Alcotest.test_case "copy/add cover all fields" `Quick
            test_metrics_copy_add_cover_all_fields;
          Alcotest.test_case "of_array" `Quick test_metrics_of_array;
        ] );
      ( "online",
        [
          Alcotest.test_case "snapshot roundtrip" `Quick test_online_snapshot_roundtrip;
          Alcotest.test_case "checkpoint callback" `Quick test_online_checkpoint_callback;
          Alcotest.test_case "corrupt snapshot rejected" `Quick
            test_online_rejects_corrupt_snapshot;
        ] );
      ( "resumable analyses",
        [
          Alcotest.test_case "resume ≡ straight run (.ftb seek)" `Quick
            test_runner_resume_equals_straight;
          Alcotest.test_case "bad checkpoints fall back, never lie" `Quick
            test_runner_fallback_on_bad_checkpoint;
          Alcotest.test_case "in-memory resume" `Quick test_runner_trace_resume;
          Alcotest.test_case "checkpoint into a missing directory" `Quick
            test_runner_missing_checkpoint_dir;
        ] );
    ]
