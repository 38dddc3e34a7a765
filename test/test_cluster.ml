(* racedet route — the cluster router:

   - byte-identity grid: a K-worker cluster (each worker a serve daemon
     with one inline checker, in its own process) produces REPORTs
     byte-identical to the in-process unsharded analysis, for every engine
     and across samplers with per-location state;
   - out-of-order and duplicate client batches over TCP transport;
   - worker death mid-ingest (chaos-injected SIGKILL and a real external
     SIGKILL via the pid file), recovered through .ftc checkpoint resume +
     SEQ + a resend re-derived from the WAL — with the worker's set kept
     and lost, and as a QCheck property over the flush, K and a resize;
   - QCheck property: a single MIGRATE at a random cut point, of a random
     worker, preserves REPORT bytes;
   - the size-driven checkpoint cadence: checkpoint bytes amortize against
     routed bytes, and a worker kill or router SIGKILL replays at most
     about one checkpoint's worth;
   - ordered admission: the parked-batch limit refuses without a WAL
     record, and a resumed router re-parks the batches its WAL holds;
   - seeded fuzzing of the command-line parser;
   - Chash units: determinism, coverage, rough balance, K→K+1 stability.

   The router forks worker processes and spawns no domains itself; this
   parent likewise only forks, so the whole suite is fork-safe. *)

module Trace = Ft_trace.Trace
module Trace_gen = Ft_trace.Trace_gen
module Prng = Ft_support.Prng
module Engine = Ft_core.Engine
module Sampler = Ft_core.Sampler
module Detector = Ft_core.Detector
module Metrics = Ft_core.Metrics
module Serve = Ft_shard.Serve
module Cmsg = Ft_shard.Cmsg
module Router = Ft_cluster.Router
module Chash = Ft_cluster.Chash
module Fault = Ft_fault.Fault

(* The crash tests write into sockets whose router has just been killed —
   without this the default SIGPIPE disposition kills the test runner. *)
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let dir_counter = ref 0

let temp_dir () =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ftcluster-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  Unix.mkdir d 0o700;
  d

(* cluster run dirs nest checkpoint directories *)
let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_temp_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let router_config ?(workers = 2) ?(worker_tcp = false) ?(window = Router.default_window)
    ?(resume = false) ?(max_parked = Serve.default_max_parked) ~engine ~sampler ~dir listen =
  {
    Router.listen;
    workers;
    worker_shards = 1;
    engine;
    sampler;
    clock_size = None;
    dir = Filename.concat dir "run";
    worker_tcp;
    checkpoint = true;
    max_parked;
    backlog = Serve.default_backlog;
    ready_file = None;
    heartbeat_s = None;
    metrics_json = None;
    max_respawns = Router.default_max_respawns;
    chaos = None;
    window;
    wal = true;
    resume;
    state_every = Router.default_state_every;
  }

(* [arm] runs in the router child before the router starts — how a test
   installs a single-shot chaos injection ([Fault.arm_exact]) that the
   forked worker processes then inherit but never hit. *)
let start_router ?(arm = fun () -> ()) cfg =
  match Unix.fork () with
  | 0 ->
    (try
       arm ();
       Router.run cfg
     with exn ->
       Printf.eprintf "router died: %s\n%!" (Printexc.to_string exn);
       Unix._exit 1);
    Unix._exit 0
  | pid -> pid

let reap pid = try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let kill_and_reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap pid

let get_ok what = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s failed: %s" what msg

let sample_trace ?(nthreads = 4) ~seed ~length () =
  let prng = Prng.create ~seed in
  Trace_gen.random prng
    {
      Trace_gen.nthreads;
      nlocks = 3;
      nlocs = 16;
      length;
      atomics = true;
      forkjoin = true;
    }

let slices trace ~batch =
  let n = Trace.length trace in
  let rec go base acc =
    if base >= n then List.rev acc
    else begin
      let len = Stdlib.min batch (n - base) in
      let sub =
        Trace.make ~nthreads:trace.Trace.nthreads ~nlocks:trace.Trace.nlocks
          ~nlocs:trace.Trace.nlocs
          (Array.init len (fun i -> Trace.get trace (base + i)))
      in
      go (base + len) ((base, sub) :: acc)
    end
  in
  go 0 []

let expected_report ~engine ~sampler trace =
  Serve.report_text ~events:(Trace.length trace) (Engine.run engine ~sampler trace)

(* A router that fails or is SIGKILLed orphans its workers, which keep the
   runner's stdout open; a test that fails before a router reaps them kills
   them by pid file instead. *)
let reaping_workers run f =
  try f ()
  with e ->
    (try
       Array.iter
         (fun name ->
           if Filename.check_suffix name ".pid" then
             match
               int_of_string_opt
                 (String.trim
                    (In_channel.with_open_bin (Filename.concat run name) In_channel.input_all))
             with
             | Some wpid -> ( try Unix.kill wpid Sys.sigkill with Unix.Unix_error _ -> ())
             | None -> ())
         (Sys.readdir run)
     with Sys_error _ -> ());
    raise e

(* Run one cluster session: start a router, stream the batches (already
   (base, sub) pairs, any order), fetch the REPORT and the merged RESULT,
   shut down cleanly.  [mid] runs after [mid_after] sends —
   kill/migrate/resize hooks; [last] runs once the RESULT is in. *)
let cluster_session ?arm ?(mid = fun _fd -> ()) ?(mid_after = max_int)
    ?(last = fun _fd -> ()) ~cfg ~socket batches =
  reaping_workers cfg.Router.dir @@ fun () ->
  let pid = start_router ?arm cfg in
  Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
  let fd = Serve.connect ~deadline_s:60.0 (Serve.Unix_path socket) in
  Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
  List.iteri
    (fun i (base, sub) ->
      if i = mid_after then mid fd;
      ignore (get_ok "send_batch" (Serve.send_batch ~deadline_s:60.0 fd ~base sub)))
    batches;
  let report = get_ok "fetch_report" (Serve.fetch_report ~deadline_s:60.0 fd) in
  let result = get_ok "fetch_result" (Serve.fetch_result ~deadline_s:60.0 fd) in
  last fd;
  get_ok "shutdown" (Serve.shutdown fd);
  reap pid;
  (report, result)

let cluster_report ?arm ?mid ?mid_after ?last ~cfg ~socket batches =
  fst (cluster_session ?arm ?mid ?mid_after ?last ~cfg ~socket batches)

(* Every counter and the race list, not just the REPORT's summary: the
   router's RESULT is the merged result, which must be [Engine.run]'s. *)
let check_result what ~engine ~sampler trace (got : Detector.result) =
  let want = Engine.run engine ~sampler trace in
  Alcotest.(check (array int))
    (what ^ ": every Metrics field")
    (Metrics.to_array want.Detector.metrics)
    (Metrics.to_array got.Detector.metrics);
  Alcotest.(check bool) (what ^ ": race list") true (want.Detector.races = got.Detector.races);
  Alcotest.(check string) (what ^ ": RESULT bytes") (Cmsg.encode_result want)
    (Cmsg.encode_result got)

(* --- byte-identity grid ------------------------------------------------------ *)

(* Every engine at K=2; the paper's headline engines across K∈{1,4} and the
   samplers whose correctness depends on whole-location partitioning
   (per-location state: cold_region). *)
let test_identity_grid () =
  with_temp_dir @@ fun dir ->
  let trace = sample_trace ~seed:7 ~length:900 () in
  let run i ~engine ~sampler ~workers =
    let sub = Filename.concat dir (string_of_int i) in
    Unix.mkdir sub 0o700;
    let socket = Filename.concat sub "route.sock" in
    let cfg =
      router_config ~workers ~engine ~sampler ~dir:sub
        (Serve.Unix_path socket)
    in
    let report, result = cluster_session ~cfg ~socket (slices trace ~batch:200) in
    let what = Printf.sprintf "engine %s, K=%d" (Engine.name engine) workers in
    Alcotest.(check string) (what ^ " ≡ analyze")
      (expected_report ~engine ~sampler trace)
      report;
    check_result what ~engine ~sampler trace result
  in
  let i = ref 0 in
  let bern = Sampler.bernoulli ~rate:0.3 ~seed:11 in
  List.iter
    (fun engine ->
      incr i;
      run !i ~engine ~sampler:bern ~workers:2)
    Engine.all;
  List.iter
    (fun engine ->
      List.iter
        (fun workers ->
          List.iter
            (fun sampler ->
              incr i;
              run !i ~engine ~sampler ~workers)
            [ Sampler.all; Sampler.cold_region ~threshold:2 ])
        [ 1; 4 ])
    [ Engine.So; Engine.O1; Engine.O1u ]

(* --- TCP transport, out-of-order and duplicate batches ----------------------- *)

let test_tcp_out_of_order_duplicates () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.So and sampler = Sampler.bernoulli ~rate:0.4 ~seed:3 in
  let trace = sample_trace ~seed:13 ~length:1_200 () in
  let ready = Filename.concat dir "route.addr" in
  let cfg =
    {
      (router_config ~workers:2 ~worker_tcp:true ~engine ~sampler ~dir
         (Serve.Tcp ("127.0.0.1", 0)))
      with
      Router.ready_file = Some ready;
    }
  in
  let pid = start_router cfg in
  Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
  let rec wait_ready tries =
    if Sys.file_exists ready then ()
    else if tries = 0 then Alcotest.failf "router never published %s" ready
    else begin
      ignore (Unix.select [] [] [] 0.05);
      wait_ready (tries - 1)
    end
  in
  wait_ready 200;
  let addr = get_ok "read_addr_file" (Serve.read_addr_file ready) in
  (match addr with
  | Serve.Tcp (_, port) -> Alcotest.(check bool) "ephemeral port bound" true (port > 0)
  | Serve.Unix_path _ -> Alcotest.fail "expected a TCP address in the ready file");
  let fd = Serve.connect ~deadline_s:60.0 addr in
  Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
  let batches = slices trace ~batch:150 in
  (* odd batches first (they park), then evens (they drain), then every
     third again as a duplicate (idempotent skip) *)
  let scrambled =
    List.filteri (fun i _ -> i mod 2 = 1) batches
    @ List.filteri (fun i _ -> i mod 2 = 0) batches
    @ List.filteri (fun i _ -> i mod 3 = 0) batches
  in
  List.iter
    (fun (base, sub) ->
      ignore (get_ok "send_batch" (Serve.send_batch ~deadline_s:60.0 fd ~base sub)))
    scrambled;
  let report = get_ok "fetch_report" (Serve.fetch_report ~deadline_s:60.0 fd) in
  Alcotest.(check string) "TCP cluster, scrambled + duplicates ≡ analyze"
    (expected_report ~engine ~sampler trace)
    report;
  get_ok "shutdown" (Serve.shutdown fd);
  reap pid

(* --- worker death mid-ingest -------------------------------------------------- *)

(* External SIGKILL via the advertised pid file — the path a CI smoke or an
   operator takes; the router discovers the death at the next send and
   recovers through SEQ + replay. *)
let test_external_sigkill () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.O1 and sampler = Sampler.bernoulli ~rate:0.5 ~seed:23 in
  let trace = sample_trace ~seed:29 ~length:1_000 () in
  let socket = Filename.concat dir "route.sock" in
  let cfg = router_config ~workers:2 ~engine ~sampler ~dir (Serve.Unix_path socket) in
  let kill_worker _fd =
    let pidfile = Filename.concat (Filename.concat dir "run") "worker-0.pid" in
    let text = In_channel.with_open_bin pidfile In_channel.input_all in
    let wpid = int_of_string (String.trim text) in
    Unix.kill wpid Sys.sigkill;
    (* let it die before the next batch races the kill *)
    ignore (Unix.select [] [] [] 0.05)
  in
  let report =
    cluster_report ~mid:kill_worker ~mid_after:4 ~cfg ~socket (slices trace ~batch:120)
  in
  Alcotest.(check string) "external worker SIGKILL ≡ analyze"
    (expected_report ~engine ~sampler trace)
    report

(* --- MIGRATE property --------------------------------------------------------- *)

(* Any single migration — any worker, at any cut point in the stream —
   preserves REPORT bytes: flush → graceful worker shutdown (final .ftc) →
   fresh process resumes from the checkpoint → SEQ → empty replay. *)
let migrate_property =
  let trace = sample_trace ~seed:37 ~length:700 () in
  let batches = slices trace ~batch:100 in
  let nbatches = List.length batches in
  let engine = Engine.So and sampler = Sampler.bernoulli ~rate:0.35 ~seed:41 in
  let expected = expected_report ~engine ~sampler trace in
  let gen = QCheck.Gen.(pair (int_range 0 nbatches) (int_range 0 2)) in
  let arb =
    QCheck.make ~print:(fun (cut, w) -> Printf.sprintf "cut=%d worker=%d" cut w) gen
  in
  QCheck.Test.make ~name:"single MIGRATE at a random cut preserves REPORT bytes"
    ~count:4 arb
    (fun (cut, w) ->
      let dir = temp_dir () in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      let socket = Filename.concat dir "route.sock" in
      let cfg =
        router_config ~workers:3 ~engine ~sampler ~dir
          (Serve.Unix_path socket)
      in
      let mid fd = get_ok "migrate" (Serve.migrate ~deadline_s:60.0 fd w) in
      let report = cluster_report ~mid ~mid_after:cut ~cfg ~socket batches in
      if report <> expected then
        QCheck.Test.fail_reportf "REPORT diverged after migrating worker %d at cut %d" w
          cut;
      true)

(* --- router crash + resume ---------------------------------------------------- *)

(* Kill the router itself on the WAL durability edge (the [router.crash]
   fault point: the batch is appended + fsynced but never acknowledged,
   then [_exit 137] — the worst cut a SIGKILL can land on), restart it in
   the same directory with [resume], blindly resend the whole stream and
   return the final REPORT.  Phase-1 sends tolerate errors: the crash
   closes the connection mid-protocol by design.  Phase 2 arms a chaos
   worker kill, so recovery-under-recovery is exercised too. *)
let killed_router_report ?(crash_hit = 3) ?(between = fun () -> ()) ?(arm2 = fun () -> ()) ~cfg
    ~socket batches =
  reaping_workers cfg.Router.dir @@ fun () ->
  let arm () = Fault.arm_exact ~point:"router.crash" ~hit:crash_hit Fault.Exn in
  let pid = start_router ~arm cfg in
  (try
     let fd = Serve.connect ~deadline_s:60.0 (Serve.Unix_path socket) in
     Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
     List.iter
       (fun (base, sub) -> ignore (Serve.send_batch ~deadline_s:10.0 fd ~base sub))
       batches
   with _ -> ());
  reap pid;
  between ();
  let cfg = { cfg with Router.resume = true } in
  let pid = start_router ~arm:arm2 cfg in
  Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
  let fd = Serve.connect ~deadline_s:60.0 (Serve.Unix_path socket) in
  Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
  List.iter
    (fun (base, sub) ->
      ignore (get_ok "blind resend" (Serve.send_batch ~deadline_s:60.0 fd ~base sub)))
    batches;
  let report = get_ok "fetch_report" (Serve.fetch_report ~deadline_s:60.0 fd) in
  get_ok "shutdown" (Serve.shutdown fd);
  reap pid;
  report

(* Every engine survives a router SIGKILL + resume at K=2; the headline
   engines (So and the O(1)-samples family) across K∈{1,2,4}.  The resumed
   router's workers are chaos-armed (worker 0 dies at its 2nd flush), so
   the resume path's own worker recovery runs under fire. *)
let test_router_kill_resume_grid () =
  with_temp_dir @@ fun dir ->
  let trace = sample_trace ~seed:43 ~length:400 () in
  let batches = slices trace ~batch:100 in
  let i = ref 0 in
  let run ~engine ~sampler ~workers =
    incr i;
    let sub = Filename.concat dir (string_of_int !i) in
    Unix.mkdir sub 0o700;
    let socket = Filename.concat sub "route.sock" in
    let cfg =
      router_config ~workers ~engine ~sampler ~dir:sub
        (Serve.Unix_path socket)
    in
    let arm2 () = Fault.arm_exact ~lane:0 ~point:"cluster.worker_crash" ~hit:2 Fault.Exn in
    let report = killed_router_report ~arm2 ~cfg ~socket batches in
    Alcotest.(check string)
      (Printf.sprintf "engine %s, K=%d: SIGKILL+resume ≡ analyze" (Engine.name engine)
         workers)
      (expected_report ~engine ~sampler trace)
      report
  in
  let bern = Sampler.bernoulli ~rate:0.3 ~seed:47 in
  List.iter (fun engine -> run ~engine ~sampler:bern ~workers:2) Engine.all;
  List.iter
    (fun engine ->
      List.iter (fun workers -> run ~engine ~sampler:bern ~workers) [ 1; 4 ])
    [ Engine.So; Engine.O1; Engine.O1u ]

(* Route this process's stderr to [log] (run in a forked router). *)
let stderr_to log () =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd

let logged log sub =
  let text = In_channel.with_open_bin log In_channel.input_all in
  let n = String.length sub in
  let rec go i = i + n <= String.length text && (String.sub text i n = sub || go (i + 1)) in
  go 0

let whole_wal = "no usable state checkpoint; replaying the whole WAL"

(* Property: the router crash can land on ANY batch, with its router-state
   checkpoint kept or lost (removed before the resume, which then logs a
   full WAL replay), and the resumed report still matches the
   uninterrupted analysis. *)
let router_kill_property =
  let trace = sample_trace ~seed:53 ~length:600 () in
  let batches = slices trace ~batch:75 in
  let nbatches = List.length batches in
  let engine = Engine.O1u and sampler = Sampler.bernoulli ~rate:0.35 ~seed:59 in
  let expected = expected_report ~engine ~sampler trace in
  let gen = QCheck.Gen.(pair (int_range 1 nbatches) bool) in
  let arb =
    QCheck.make
      ~print:(fun (cut, kept) -> Printf.sprintf "crash at batch %d, state kept=%b" cut kept)
      gen
  in
  QCheck.Test.make ~name:"router SIGKILL at a random batch + resume preserves REPORT"
    ~count:4 arb
    (fun (cut, kept) ->
      let dir = temp_dir () in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      let socket = Filename.concat dir "route.sock" in
      let cfg = router_config ~workers:2 ~engine ~sampler ~dir (Serve.Unix_path socket) in
      let between () =
        let state = Filename.concat cfg.Router.dir "router-state.ftc" in
        if (not kept) && Sys.file_exists state then Sys.remove state
      in
      let log = Filename.concat dir "resume.log" in
      let report =
        killed_router_report ~crash_hit:cut ~between ~arm2:(stderr_to log) ~cfg ~socket
          batches
      in
      if report <> expected then
        QCheck.Test.fail_reportf "REPORT diverged after crash at batch %d (state kept=%b)"
          cut kept;
      if (not kept) && not (logged log whole_wal) then
        QCheck.Test.fail_reportf "a lost state checkpoint must replay the whole WAL";
      true)

(* --- RESIZE property ---------------------------------------------------------- *)

(* A live ring resize — grow or shrink, at any cut point in the stream —
   preserves REPORT bytes: quiesce → WAL Resize → rebuild the per-worker
   logs under the new ring → stream to a fresh worker epoch. *)
let resize_property =
  let trace = sample_trace ~seed:61 ~length:600 () in
  let batches = slices trace ~batch:75 in
  let nbatches = List.length batches in
  let engine = Engine.So and sampler = Sampler.bernoulli ~rate:0.35 ~seed:67 in
  let expected = expected_report ~engine ~sampler trace in
  let gen = QCheck.Gen.(pair (int_range 0 nbatches) (oneofl [ 1; -1 ])) in
  let arb =
    QCheck.make ~print:(fun (cut, d) -> Printf.sprintf "cut=%d delta=%+d" cut d) gen
  in
  QCheck.Test.make ~name:"single RESIZE at a random cut preserves REPORT bytes" ~count:4
    arb
    (fun (cut, delta) ->
      let dir = temp_dir () in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      let socket = Filename.concat dir "route.sock" in
      let cfg =
        router_config ~workers:2 ~engine ~sampler ~dir
          (Serve.Unix_path socket)
      in
      let mid fd =
        let k = get_ok "resize" (Serve.resize ~deadline_s:60.0 fd delta) in
        if k <> 2 + delta then QCheck.Test.fail_reportf "RESIZE echoed %d" k
      in
      let report = cluster_report ~mid ~mid_after:cut ~cfg ~socket batches in
      if report <> expected then
        QCheck.Test.fail_reportf "REPORT diverged after RESIZE %+d at cut %d" delta cut;
      true)

(* A resize replays the event history, the WAL, through a scratch front.
   Grow and shrink at a cut mid-stream; REPORT and RESULT must both be
   analyze's. *)
let test_resize_report_and_result () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.So and sampler = Sampler.bernoulli ~rate:0.35 ~seed:67 in
  let trace = sample_trace ~seed:61 ~length:600 () in
  let batches = slices trace ~batch:75 in
  List.iter
    (fun delta ->
      let sub = Filename.concat dir (Printf.sprintf "d%+d" delta) in
      Unix.mkdir sub 0o700;
      let socket = Filename.concat sub "route.sock" in
      let cfg =
        router_config ~workers:2 ~engine ~sampler ~dir:sub
          (Serve.Unix_path socket)
      in
      let mid fd =
        Alcotest.(check int) "RESIZE echo" (2 + delta)
          (get_ok "resize" (Serve.resize ~deadline_s:60.0 fd delta))
      in
      let what = Printf.sprintf "RESIZE %+d mid-stream" delta in
      let report, result =
        cluster_session ~mid ~mid_after:(List.length batches / 2) ~cfg ~socket batches
      in
      Alcotest.(check string) (what ^ " ≡ analyze") (expected_report ~engine ~sampler trace)
        report;
      check_result what ~engine ~sampler trace result)
    [ 1; -1 ]

(* --- pipelining window -------------------------------------------------------- *)

(* The in-flight window is a pure throughput knob: window=1 (PR 9's
   lockstep) and a deep window produce byte-identical reports. *)
let test_window_identity () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.So and sampler = Sampler.bernoulli ~rate:0.3 ~seed:71 in
  let trace = sample_trace ~seed:73 ~length:800 () in
  let expected = expected_report ~engine ~sampler trace in
  List.iter
    (fun window ->
      let sub = Filename.concat dir (Printf.sprintf "w%d" window) in
      Unix.mkdir sub 0o700;
      let socket = Filename.concat sub "route.sock" in
      let cfg =
        router_config ~workers:3 ~window ~engine ~sampler ~dir:sub
          (Serve.Unix_path socket)
      in
      let report = cluster_report ~cfg ~socket (slices trace ~batch:64) in
      Alcotest.(check string)
        (Printf.sprintf "window=%d ≡ analyze" window)
        expected report)
    [ 1; 3; 16 ]

(* --- WAL robustness ----------------------------------------------------------- *)

module Wal = Ft_cluster.Wal
module Event = Ft_trace.Event

(* Build a small real WAL (Session + Events + Resize records), then attack
   it: truncation at EVERY byte length and a flip of EVERY byte must leave
   {!Wal.decode_all} total (no exception) with a valid prefix that is
   exactly the records whose frames survived intact — the .ftc fuzzing
   discipline applied to the log. *)
let test_wal_fuzz () =
  with_temp_dir @@ fun dir ->
  let path = Wal.path ~dir in
  let trace = sample_trace ~seed:79 ~length:40 () in
  let records =
    Wal.Session
      {
        nthreads = trace.Trace.nthreads;
        nlocks = trace.Trace.nlocks;
        nlocs = trace.Trace.nlocs;
        engine = "so";
        sampler = "bernoulli(p=0.30,seed=7)";
        workers = 2;
      }
    :: Wal.Resize 3
    :: List.map
         (fun (base, sub) ->
           Wal.Events (base, Array.init (Trace.length sub) (Trace.get sub)))
         (slices trace ~batch:10)
  in
  let w = Wal.open_append path in
  List.iter (fun r -> ignore (Wal.append w r)) records;
  Wal.sync w;
  Wal.close w;
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  let whole, good = Wal.decode_all bytes in
  Alcotest.(check int) "all records decode" (List.length records) (List.length whole);
  Alcotest.(check int) "full file is the valid prefix" (String.length bytes) good;
  let ends = List.map snd whole in
  (* truncation at every byte: the valid prefix is exactly the records
     whose END offset fits *)
  for len = 0 to String.length bytes do
    let recs, good = Wal.decode_all (String.sub bytes 0 len) in
    let expect = List.length (List.filter (fun e -> e <= len) ends) in
    if List.length recs <> expect then
      Alcotest.failf "truncate at %d: %d records, expected %d" len (List.length recs)
        expect;
    if good > len then Alcotest.failf "truncate at %d: prefix %d overruns" len good
  done;
  (* single-byte corruption at every offset: total decode, never more
     records than written, and records BEFORE the corrupted frame survive *)
  let b = Bytes.of_string bytes in
  for i = 0 to Bytes.length b - 1 do
    let orig = Bytes.get b i in
    Bytes.set b i (Char.chr (Char.code orig lxor 0xff));
    let recs, _ = Wal.decode_all (Bytes.unsafe_to_string b) in
    let intact = List.length (List.filter (fun e -> e <= i) ends) in
    if List.length recs < intact then
      Alcotest.failf "flip at %d: lost an intact leading record (%d < %d)" i
        (List.length recs) intact;
    if List.length recs > List.length records then
      Alcotest.failf "flip at %d: phantom records" i;
    Bytes.set b i orig
  done;
  (* a torn tail is repaired on reopen: append resumes at the cut *)
  let cut = good - 5 in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o600 in
  Unix.ftruncate fd cut;
  Unix.close fd;
  let w = Wal.open_append path in
  let last_good = List.fold_left (fun acc e -> if e <= cut then max acc e else acc) 0 ends in
  Alcotest.(check int) "reopen truncates the torn tail" last_good (Wal.offset w);
  ignore (Wal.append w (Wal.Resize 2));
  Wal.sync w;
  Wal.close w;
  let recs, _ = Wal.replay path |> get_ok "replay" in
  match List.rev recs with
  | (Wal.Resize 2, _) :: _ -> ()
  | _ -> Alcotest.fail "append after torn-tail repair not decodable"

(* --- ready-file staleness ----------------------------------------------------- *)

(* A second router pointed at a LIVE predecessor's ready file must refuse
   to start (leaving the file alone); after the predecessor exits the file
   is gone; a stale file (dead address) is silently replaced. *)
let test_ready_file_staleness () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.So and sampler = Sampler.bernoulli ~rate:0.3 ~seed:83 in
  let ready = Filename.concat dir "route.ready" in
  let dir_a = Filename.concat dir "a" and dir_b = Filename.concat dir "b" in
  Unix.mkdir dir_a 0o700;
  Unix.mkdir dir_b 0o700;
  let sock_a = Filename.concat dir_a "route.sock" in
  let cfg_a =
    {
      (router_config ~workers:1 ~engine ~sampler ~dir:dir_a
         (Serve.Unix_path sock_a))
      with
      Router.ready_file = Some ready;
    }
  in
  let pid_a = start_router cfg_a in
  Fun.protect ~finally:(fun () -> kill_and_reap pid_a) @@ fun () ->
  let rec wait_ready tries =
    if Sys.file_exists ready then ()
    else if tries = 0 then Alcotest.failf "router never published %s" ready
    else begin
      ignore (Unix.select [] [] [] 0.05);
      wait_ready (tries - 1)
    end
  in
  wait_ready 200;
  (* B refuses: the ready file names a live listener *)
  let cfg_b =
    {
      (router_config ~workers:1 ~engine ~sampler ~dir:dir_b
         (Serve.Unix_path (Filename.concat dir_b "route.sock")))
      with
      Router.ready_file = Some ready;
    }
  in
  (match Unix.fork () with
  | 0 ->
    (try Router.run cfg_b with _ -> Unix._exit 1);
    Unix._exit 0
  | pid_b -> (
    match Unix.waitpid [] pid_b with
    | _, Unix.WEXITED 1 -> ()
    | _, _ -> Alcotest.fail "second router did not refuse the live ready file"));
  Alcotest.(check bool) "live ready file left alone" true (Sys.file_exists ready);
  (* clean shutdown unlinks it *)
  let fd = Serve.connect ~deadline_s:60.0 (Serve.Unix_path sock_a) in
  get_ok "shutdown" (Serve.shutdown fd);
  Serve.close fd;
  reap pid_a;
  Alcotest.(check bool) "ready file unlinked on exit" false (Sys.file_exists ready);
  (* a stale file (dead address) is replaced silently *)
  Out_channel.with_open_bin ready (fun oc ->
      Out_channel.output_string oc ("unix:" ^ Filename.concat dir "dead.sock\n"));
  let pid_c = start_router cfg_a in
  Fun.protect ~finally:(fun () -> kill_and_reap pid_c) @@ fun () ->
  wait_ready 200;
  let rec wait_replaced tries =
    match Serve.read_addr_file ready with
    | Ok (Serve.Unix_path p) when p = sock_a -> ()
    | _ when tries = 0 -> Alcotest.fail "stale ready file never replaced"
    | _ ->
      ignore (Unix.select [] [] [] 0.05);
      wait_replaced (tries - 1)
  in
  wait_replaced 200;
  let fd = Serve.connect ~deadline_s:60.0 (Serve.Unix_path sock_a) in
  get_ok "shutdown" (Serve.shutdown fd);
  Serve.close fd;
  reap pid_c

(* --- size-driven checkpoint cadence ------------------------------------------- *)

module Json = Ft_obs.Json
module Db_sim = Ft_workloads.Db_sim

let db_trace profile ~events =
  Db_sim.generate (Option.get (Db_sim.profile profile)) ~seed:7 ~target_events:events

let json_num j path =
  let rec go j = function
    | [] -> (
      match Json.to_float j with
      | Some v -> v
      | None -> Alcotest.failf "%s is not a number" (String.concat "." path))
    | k :: rest -> (
      match Json.member k j with
      | Some v -> go v rest
      | None -> Alcotest.failf "no %s in the STATS document" (String.concat "." path))
  in
  go j path

let json_ints j key =
  match Json.member key j with
  | Some (Json.Arr xs) -> List.map (fun x -> Option.get (Json.to_int x)) xs
  | _ -> Alcotest.failf "no %s array in the STATS document" key

let fetch_stats_json fd =
  get_ok "parse STATS"
    (Json.parse (get_ok "fetch_stats" (Serve.fetch_stats ~deadline_s:60.0 ~format:`Json fd)))

(* A worker's STATS, straight from its own socket (the router is not its
   only possible client). *)
let worker_stats ~run ~k ~gen =
  let sock = Filename.concat run (Printf.sprintf "worker-%d-g%d.sock" k gen) in
  let fd = Serve.connect ~deadline_s:60.0 (Serve.Unix_path sock) in
  Fun.protect ~finally:(fun () -> Serve.close fd) (fun () -> fetch_stats_json fd)

(* Bytes of the .ftc files in a checkpoint directory: one whole set. *)
let set_bytes dir =
  Array.fold_left
    (fun n f ->
      if Filename.check_suffix f ".ftc" then n + (Unix.stat (Filename.concat dir f)).Unix.st_size
      else n)
    0 (Sys.readdir dir)

let ckpt_dir run k = Filename.concat run (Printf.sprintf "ckpt-%d" k)

(* Checkpoint work is amortized O(1) per routed byte.  A worker writes a
   set once the CBATCH bytes applied since its last set reach that set's
   size, so every set but the newest is paid for by applied bytes; the
   router does the same against WAL growth.  (A fixed every-N-batches
   cadence rewrites the whole snapshot N batches apart regardless of how
   little arrived, and breaks both bounds on this trace.) *)
let test_checkpoint_amortization () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.So and sampler = Sampler.bernoulli ~rate:0.1 ~seed:7 in
  let trace = db_trace "tpcc" ~events:100_000 in
  let socket = Filename.concat dir "route.sock" in
  let metrics = Filename.concat dir "router.json" in
  let cfg =
    {
      (router_config ~workers:2 ~engine ~sampler ~dir
         (Serve.Unix_path socket))
      with
      Router.metrics_json = Some metrics;
    }
  in
  let run = cfg.Router.dir in
  let pid = start_router cfg in
  let workers =
    Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
    let fd = Serve.connect ~deadline_s:60.0 (Serve.Unix_path socket) in
    Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
    List.iter
      (fun (base, sub) ->
        ignore (get_ok "send_batch" (Serve.send_batch ~deadline_s:60.0 fd ~base sub)))
      (slices trace ~batch:512);
    let report = get_ok "fetch_report" (Serve.fetch_report ~deadline_s:60.0 fd) in
    Alcotest.(check string) "REPORT ≡ analyze" (expected_report ~engine ~sampler trace) report;
    (* REPORT drained every window; the shutdown set is measured on disk *)
    let ws = List.init 2 (fun k -> worker_stats ~run ~k ~gen:0) in
    get_ok "shutdown" (Serve.shutdown fd);
    reap pid;
    ws
  in
  List.iteri
    (fun k j ->
      let written = json_num j [ "telemetry"; "serve_checkpoint_bytes_total" ] in
      let applied = json_num j [ "telemetry"; "serve_cbatch_applied_bytes_total" ] in
      let final = float_of_int (set_bytes (ckpt_dir run k)) in
      Printf.printf "worker %d: %.0f sets, %.0f checkpoint bytes, %.0f applied, %.0f final set\n%!" k
        (json_num j [ "telemetry"; "serve_checkpoints_total" ])
        written applied final;
      Alcotest.(check bool) (Printf.sprintf "worker %d wrote a checkpoint" k) true (written > 0.0);
      if written > (2.0 *. applied) +. final then
        Alcotest.failf "worker %d: %.0f checkpoint bytes > 2 × %.0f applied + %.0f final set" k
          written applied final)
    workers;
  let r = get_ok "parse metrics" (Json.parse (In_channel.with_open_bin metrics In_channel.input_all)) in
  let state = json_num r [ "telemetry"; "router_state_checkpoint_bytes_total" ] in
  let wal = json_num r [ "telemetry"; "router_wal_bytes_total" ] in
  let last = float_of_int (Unix.stat (Filename.concat run "router-state.ftc")).Unix.st_size in
  Alcotest.(check bool) "router wrote a state checkpoint" true (state > 0.0);
  if state > wal +. last then
    Alcotest.failf "router: %.0f state-checkpoint bytes > %.0f WAL + %.0f newest checkpoint" state
      wal last

(* Replay after a crash is bounded by one checkpoint, not by the session.
   Phase 1 kills worker 1 two thirds of the way in: it must come back from
   a mid-session set (SEQ > 0) and replay no more messages than that set
   has bytes.  Phase 2 SIGKILLs the router itself and resumes it: every
   worker comes back from a mid-session set (SEQ > 0), the replay from
   those SEQs is again bounded by the workers' sets, and the REPORT is
   byte-identical.  Sampling every access ships
   every access to its worker, so the streams are long enough for several
   sets. *)
let test_recovery_bound () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.So and sampler = Sampler.all in
  let trace = db_trace "smallbank" ~events:60_000 in
  let batches = slices trace ~batch:512 in
  let nb = List.length batches in
  let socket = Filename.concat dir "route.sock" in
  let cfg =
    router_config ~workers:2 ~engine ~sampler ~dir (Serve.Unix_path socket)
  in
  let run = cfg.Router.dir in
  let send fd (base, sub) =
    ignore (get_ok "send_batch" (Serve.send_batch ~deadline_s:60.0 fd ~base sub))
  in
  let arm () =
    Fault.arm_exact ~lane:1 ~point:"cluster.worker_crash" ~hit:(2 * nb / 3) Fault.Exn
  in
  reaping_workers run @@ fun () ->
  let pid = start_router ~arm cfg in
  (Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
   let fd = Serve.connect ~deadline_s:60.0 (Serve.Unix_path socket) in
   Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
   List.iteri (fun i b -> if i < 5 * nb / 6 then send fd b) batches;
   let j = fetch_stats_json fd in
   Alcotest.(check (float 0.0)) "worker 1 respawned once" 1.0
     (json_num j [ "telemetry"; "router_worker_respawns_total" ]);
   let seq1 = List.nth (json_ints j "worker_resumed_at") 1 in
   Alcotest.(check bool)
     (Printf.sprintf "respawned worker resumed mid-session (SEQ %d)" seq1)
     true (seq1 > 0);
   let replayed = json_num j [ "telemetry"; "router_replayed_messages_total" ] in
   let set1 = set_bytes (ckpt_dir run 1) in
   Printf.printf "worker kill: SEQ %d, %.0f messages replayed, %d-byte set\n%!" seq1 replayed set1;
   if replayed > float_of_int set1 then
     Alcotest.failf "worker kill replayed %.0f messages > %d bytes of its checkpoint set"
       replayed set1;
   let w0 = worker_stats ~run ~k:0 ~gen:0 in
   let sets = json_num w0 [ "telemetry"; "serve_checkpoints_total" ] in
   Printf.printf "worker 0: %.0f sets\n%!" sets;
   if sets < 3.0 then Alcotest.failf "worker 0 wrote only %.0f checkpoint sets" sets);
  (* the orphaned workers finish what is already in their sockets before
     the resumed router replaces them *)
  Unix.sleepf 0.5;
  let pid = start_router { cfg with Router.resume = true } in
  Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
  let fd = Serve.connect ~deadline_s:60.0 (Serve.Unix_path socket) in
  Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
  let j = fetch_stats_json fd in
  List.iteri
    (fun k seq ->
      Alcotest.(check bool) (Printf.sprintf "worker %d resumed at SEQ %d > 0" k seq) true (seq > 0))
    (json_ints j "worker_resumed_at");
  let replayed = json_num j [ "telemetry"; "router_replayed_messages_total" ] in
  let sets = set_bytes (ckpt_dir run 0) + set_bytes (ckpt_dir run 1) in
  Printf.printf "resume: %.0f messages replayed, %d bytes of sets\n%!" replayed sets;
  if replayed > float_of_int sets then
    Alcotest.failf "resume replayed %.0f messages > %d bytes of the workers' sets" replayed sets;
  List.iter (send fd) batches;
  let report = get_ok "fetch_report" (Serve.fetch_report ~deadline_s:60.0 fd) in
  Alcotest.(check string) "worker kill + router SIGKILL + resume ≡ analyze"
    (expected_report ~engine ~sampler trace)
    report;
  get_ok "shutdown" (Serve.shutdown fd);
  reap pid

(* --- messages bounded by samples ------------------------------------------------ *)

(* The router ships timestamps, not sync events: a worker gets only the
   sampled accesses it owns, each behind at most one view change. *)
let test_messages_bounded_by_samples () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.So and sampler = Sampler.bernoulli ~rate:0.1 ~seed:3 in
  let trace = db_trace "tpcc" ~events:30_000 in
  let n = Trace.length trace in
  let socket = Filename.concat dir "route.sock" in
  let metrics = Filename.concat dir "router.json" in
  let cfg =
    {
      (router_config ~workers:2 ~engine ~sampler ~dir
         (Serve.Unix_path socket))
      with
      Router.metrics_json = Some metrics;
    }
  in
  let report, result = cluster_session ~cfg ~socket (slices trace ~batch:512) in
  Alcotest.(check string) "REPORT ≡ analyze" (expected_report ~engine ~sampler trace) report;
  let j =
    get_ok "parse metrics" (Json.parse (In_channel.with_open_bin metrics In_channel.input_all))
  in
  let messages =
    List.fold_left ( +. ) 0.0
      (List.init 2 (fun k ->
           json_num j
             [ "telemetry"; Printf.sprintf "router_worker_messages_total{worker=\"%d\"}" k ]))
  in
  let sampled = float_of_int result.Detector.metrics.Metrics.sampled_accesses in
  Alcotest.(check bool)
    (Printf.sprintf "sampled %.0f ≤ messages %.0f ≤ 2 × sampled" sampled messages)
    true
    (sampled <= messages && messages <= 2.0 *. sampled);
  Alcotest.(check bool)
    (Printf.sprintf "messages %.0f ≤ 0.2 × events %d" messages n)
    true
    (messages <= 0.2 *. float_of_int n)

(* --- worker death mid-ingest, with and without its set ---------------------------- *)

(* Worker [k]'s SEQ, asked on its own socket, once it equals the router's
   log length for it: every routed message applied, and any set those
   messages triggered written. *)
let await_worker_idle fd ~run ~k =
  let sock = Filename.concat run (Printf.sprintf "worker-%d-g0.sock" k) in
  let wfd = Serve.connect ~deadline_s:60.0 (Serve.Unix_path sock) in
  Fun.protect ~finally:(fun () -> Serve.close wfd) @@ fun () ->
  let want = List.nth (json_ints (fetch_stats_json fd) "worker_log_lengths") k in
  let until = Unix.gettimeofday () +. 30.0 in
  while get_ok "worker SEQ" (Serve.fetch_seq ~deadline_s:60.0 wfd) < want do
    if Unix.gettimeofday () > until then Alcotest.failf "worker %d never applied its log" k;
    Unix.sleepf 0.01
  done

(* Chaos-injected: the router SIGKILLs worker 1 at its 3rd flush, respawns
   it against its checkpoint directory and replays the suffix since its
   SEQ.  With [set_lost] the worker's set.ftc is deleted just before the
   kill, so the respawn starts fresh at SEQ 0 and the router replays the
   worker's whole log. *)
let test_chaos_worker_crash ~set_lost () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.So and sampler = Sampler.bernoulli ~rate:0.3 ~seed:17 in
  let trace = sample_trace ~seed:19 ~length:1_000 () in
  let socket = Filename.concat dir "route.sock" in
  let cfg = router_config ~workers:2 ~engine ~sampler ~dir (Serve.Unix_path socket) in
  let run = cfg.Router.dir in
  let arm () = Fault.arm_exact ~lane:1 ~point:"cluster.worker_crash" ~hit:3 Fault.Exn in
  (* two batches flushed (hits 1 and 2); the third batch's flush kills *)
  let mid fd =
    await_worker_idle fd ~run ~k:1;
    if set_lost then Sys.remove (Filename.concat (ckpt_dir run 1) "set.ftc")
  in
  let last fd =
    let j = fetch_stats_json fd in
    Alcotest.(check (list int)) "worker 1 respawned once" [ 0; 1 ] (json_ints j "worker_respawns");
    let resumed_at = List.nth (json_ints j "worker_resumed_at") 1 in
    if set_lost then Alcotest.(check int) "a lost set resumes at SEQ 0" 0 resumed_at
    else
      Alcotest.(check bool)
        (Printf.sprintf "a kept set resumes inside the stream (SEQ %d)" resumed_at)
        true (resumed_at > 0)
  in
  let report =
    cluster_report ~arm ~mid ~mid_after:2 ~last ~cfg ~socket (slices trace ~batch:120)
  in
  Alcotest.(check string)
    (Printf.sprintf "chaos worker kill (set lost=%b) ≡ analyze" set_lost)
    (expected_report ~engine ~sampler trace)
    report

(* Property: worker [w] is killed at a random flush — its set kept, or
   deleted just before — for K ∈ {1, 2, 3}, some cases after a RESIZE +1
   (where shipping depends on the ring).  The respawn resends exactly the
   messages routed to the worker past its SEQ, re-derived from the WAL when
   they are no longer unsent, and the REPORT is analyze's. *)
let worker_kill_property =
  let trace = sample_trace ~seed:139 ~length:600 () in
  let batches = slices trace ~batch:75 in
  let nb = List.length batches in
  let resize_at = nb / 2 in
  let engine = Engine.So and sampler = Sampler.bernoulli ~rate:0.35 ~seed:149 in
  let expected = expected_report ~engine ~sampler trace in
  let gen =
    QCheck.Gen.(quad (int_range 1 3) bool (int_range 0 3) (pair (int_range 0 (nb - 1)) bool))
  in
  let arb =
    QCheck.make
      ~print:(fun (k, resized, w, (b, lost)) ->
        Printf.sprintf "K=%d resized=%b worker=%d batch=%d set lost=%b" k resized w b lost)
      gen
  in
  QCheck.Test.make ~name:"worker kill at a random flush: replay = routed − SEQ, REPORT kept"
    ~count:6 arb
    (fun (k, resized, w, (b, lost)) ->
      let w = w mod (if resized then k + 1 else k) in
      let b = if resized then resize_at + (b mod (nb - resize_at)) else b in
      (* lane [w]'s hit at batch [b]'s flush: one per batch, and one per
         flush of the resize (before it on the old ring, after it on the new) *)
      let hit = if not resized then b + 1 else if w < k then b + 3 else b - resize_at + 2 in
      let dir = temp_dir () in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      let socket = Filename.concat dir "route.sock" in
      let cfg = router_config ~workers:k ~engine ~sampler ~dir (Serve.Unix_path socket) in
      let run = cfg.Router.dir in
      let set =
        Filename.concat
          (if resized then Filename.concat run (Printf.sprintf "ckpt-%d-e1" w) else ckpt_dir run w)
          "set.ftc"
      in
      let arm () = Fault.arm_exact ~lane:w ~point:"cluster.worker_crash" ~hit Fault.Exn in
      reaping_workers run @@ fun () ->
      let pid = start_router ~arm cfg in
      Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
      let fd = Serve.connect ~deadline_s:60.0 (Serve.Unix_path socket) in
      Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
      List.iteri
        (fun i (base, sub) ->
          if resized && i = resize_at then
            ignore (get_ok "resize" (Serve.resize ~deadline_s:60.0 fd 1));
          if i = b && lost then begin
            await_worker_idle fd ~run ~k:w;
            try Sys.remove set with Sys_error _ -> ()
          end;
          ignore (get_ok "send_batch" (Serve.send_batch ~deadline_s:60.0 fd ~base sub));
          if i = b then begin
            let j = fetch_stats_json fd in
            let of_w key = List.nth (json_ints j key) w in
            let seq = of_w "worker_resumed_at" and routed = of_w "worker_log_lengths" in
            let replayed = json_num j [ "telemetry"; "router_replayed_messages_total" ] in
            if of_w "worker_respawns" <> 1 then
              QCheck.Test.fail_reportf "worker %d was not respawned" w;
            if lost && seq <> 0 then QCheck.Test.fail_reportf "a lost set resumed at SEQ %d" seq;
            if int_of_float replayed <> routed - seq then
              QCheck.Test.fail_reportf "replayed %.0f messages, routed %d − SEQ %d" replayed routed
                seq
          end)
        batches;
      let report = get_ok "fetch_report" (Serve.fetch_report ~deadline_s:60.0 fd) in
      get_ok "shutdown" (Serve.shutdown fd);
      reap pid;
      if report <> expected then QCheck.Test.fail_reportf "REPORT diverged";
      true)

(* --- unsent messages ------------------------------------------------------------ *)

(* The router keeps no routed history: a worker's messages are dropped
   once pushed, so after RESULT (which drains every window) nothing is
   retained.  Losing a worker's set then puts its SEQ at 0, and the live
   router re-derives the worker's whole stream from the WAL — still
   exact. *)
let test_logs_drained () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.So and sampler = Sampler.all in
  let trace = db_trace "smallbank" ~events:60_000 in
  let batches = slices trace ~batch:512 in
  let half = List.length batches / 2 in
  let socket = Filename.concat dir "route.sock" in
  let cfg = router_config ~workers:2 ~engine ~sampler ~dir (Serve.Unix_path socket) in
  let run = cfg.Router.dir in
  let send fd (base, sub) =
    ignore (get_ok "send_batch" (Serve.send_batch ~deadline_s:60.0 fd ~base sub))
  in
  let pid = start_router cfg in
  Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
  let fd = Serve.connect ~deadline_s:60.0 (Serve.Unix_path socket) in
  Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
  List.iteri (fun i b -> if i < half then send fd b) batches;
  (* RESULT drains every window, so each worker's last ack is in *)
  ignore (get_ok "fetch_result" (Serve.fetch_result ~deadline_s:60.0 fd));
  let j = fetch_stats_json fd in
  List.iteri
    (fun k (retained, total) ->
      Printf.printf "worker %d: %d of %d messages retained\n%!" k retained total;
      Alcotest.(check int) (Printf.sprintf "worker %d retains none of %d messages" k total) 0
        retained)
    (List.combine (json_ints j "worker_log_retained") (json_ints j "worker_log_lengths"));
  Sys.remove (Filename.concat (ckpt_dir run 1) "set.ftc");
  let pidfile = Filename.concat run "worker-1.pid" in
  Unix.kill (int_of_string (String.trim (In_channel.with_open_bin pidfile In_channel.input_all)))
    Sys.sigkill;
  List.iteri (fun i b -> if i >= half then send fd b) batches;
  Alcotest.(check string) "a lost set replayed from the WAL ≡ analyze"
    (expected_report ~engine ~sampler trace)
    (get_ok "fetch_report" (Serve.fetch_report ~deadline_s:60.0 fd));
  let j = fetch_stats_json fd in
  Alcotest.(check (list int)) "worker 1 respawned once" [ 0; 1 ] (json_ints j "worker_respawns");
  Alcotest.(check int) "a lost set resumes at SEQ 0" 0 (List.nth (json_ints j "worker_resumed_at") 1);
  Alcotest.(check (list int)) "every message acked" (json_ints j "worker_log_lengths")
    (json_ints j "worker_acked");
  get_ok "shutdown" (Serve.shutdown fd);
  reap pid

(* A cluster worker is one inline checker: there are no worker shards. *)
let test_refuses_worker_shards () =
  with_temp_dir @@ fun dir ->
  let cfg =
    router_config ~engine:Engine.So ~sampler:Sampler.all ~dir
      (Serve.Unix_path (Filename.concat dir "route.sock"))
  in
  match Router.run { cfg with Router.worker_shards = 2 } with
  | () -> Alcotest.fail "Router.run accepted worker_shards = 2"
  | exception Invalid_argument _ -> ()

(* The router has one durable mode: the WAL, worker checkpoint sets and
   router-state checkpoints are always on. *)
let test_refuses_retired_modes () =
  with_temp_dir @@ fun dir ->
  let cfg =
    router_config ~engine:Engine.So ~sampler:Sampler.all ~dir
      (Serve.Unix_path (Filename.concat dir "route.sock"))
  in
  List.iter
    (fun (what, cfg) ->
      match Router.run cfg with
      | () -> Alcotest.failf "Router.run accepted %s" what
      | exception Invalid_argument _ -> ())
    [
      ("wal = false", { cfg with Router.wal = false });
      ("checkpoint = false", { cfg with Router.checkpoint = false });
      ("state_every = 0", { cfg with Router.state_every = 0 });
    ]

(* --- checkpoints from before the router front ----------------------------------- *)

module Snap = Ft_core.Snap
module Checkpoint = Ft_snapshot.Checkpoint

(* Rewrite a checkpoint file's payload in place. *)
let rewrite_checkpoint path f =
  let cp = get_ok ("load " ^ path) (Checkpoint.load path) in
  Checkpoint.save path
    { cp with Checkpoint.detector = f cp.Checkpoint.meta cp.Checkpoint.detector }

let copy_front ~sampler dec enc =
  let inst = Sampler.fresh sampler in
  inst.Sampler.load dec;
  inst.Sampler.save enc;
  Snap.Enc.string enc (Snap.Dec.string dec);
  Metrics.encode enc (Metrics.decode dec)

(* A worker set in the layout from before workers were inline checkers:
   a one-shard sharded detector, whose router snapshot (format −3) holds
   the event count, an idle front, the shipped views and the imported view
   table, then the shard count and the checker's snapshot.  Built from the
   live set: a session kind, the checked count and that snapshot. *)
let old_worker_set ~engine ~sampler (meta : Checkpoint.meta) set =
  let dec = Snap.Dec.of_snap set in
  ignore (Snap.Dec.int dec);
  let checked = Snap.Dec.int dec in
  let snap = Snap.Dec.string dec in
  Snap.Dec.finish dec;
  let config =
    {
      Detector.nthreads = meta.Checkpoint.nthreads;
      nlocks = meta.Checkpoint.nlocks;
      nlocs = meta.Checkpoint.nlocs;
      clock_size = meta.Checkpoint.clock_size;
      sampler;
    }
  in
  let (module D : Detector.S) = Engine.detector engine in
  let r = Snap.Enc.create () in
  Snap.Enc.int r (-3);
  Snap.Enc.int r 1;
  Snap.Enc.int r checked;
  (Sampler.fresh sampler).Sampler.save r;
  Snap.Enc.string r (D.snapshot (D.create config));
  Metrics.encode r (Metrics.create ());
  (* the views shipped to the one shard, then the imported table *)
  for _ = 1 to 2 * meta.Checkpoint.nthreads do
    Snap.Enc.int r 0;
    Snap.Enc.int_array r (Array.make (D.view_size config) 0)
  done;
  let out = Snap.Enc.create () in
  Snap.Enc.string out (Snap.Enc.to_snap r);
  Snap.Enc.int out 1;
  Snap.Enc.string out snap;
  Snap.Enc.to_snap out

(* A router-state checkpoint in the layout that kept per-worker log
   suffixes (format −1): worker count, epoch, events, the front, the
   shipping state, then per worker its durable cut, its total and the
   messages between them (here every total durable, every suffix empty).
   Built from the live layout (−3): worker count, epoch, per-worker totals,
   the front and the shipping state. *)
let suffix_router_state ~sampler (meta : Checkpoint.meta) payload =
  let dec = Snap.Dec.of_snap payload in
  Alcotest.(check int) "router-state format" (-3) (Snap.Dec.int dec);
  let k = Snap.Dec.int dec in
  let epoch = Snap.Dec.int dec in
  let totals = Array.init k (fun _ -> Snap.Dec.int dec) in
  let enc = Snap.Enc.create () in
  Snap.Enc.int enc (-1);
  Snap.Enc.int enc k;
  Snap.Enc.int enc epoch;
  Snap.Enc.int enc meta.Checkpoint.next_index;
  (* the front before it held the validator's state *)
  ignore (Snap.Dec.int_array dec);
  copy_front ~sampler dec enc;
  for _ = 1 to k * meta.Checkpoint.nthreads do
    Snap.Enc.int enc (Snap.Dec.int dec);
    Snap.Enc.int_array enc (Snap.Dec.int_array dec)
  done;
  Snap.Dec.finish dec;
  Array.iter
    (fun total ->
      Snap.Enc.int enc total;
      Snap.Enc.int enc total;
      Snap.Enc.string enc
        (Cmsg.encode ~nthreads:meta.Checkpoint.nthreads ~nlocks:meta.Checkpoint.nlocks
           ~nlocs:meta.Checkpoint.nlocs [||] ~off:0 ~len:0))
    totals;
  Snap.Enc.to_snap enc

(* A router-state checkpoint in the layout before the front: worker count
   first, then epoch, events, pending bits, sampler, baseline snapshot and
   the per-worker log suffixes.  Built from the −1 layout. *)
let old_router_state ~sampler (meta : Checkpoint.meta) payload =
  let dec = Snap.Dec.of_snap payload in
  Alcotest.(check int) "router-state format" (-1) (Snap.Dec.int dec);
  let k = Snap.Dec.int dec in
  let epoch = Snap.Dec.int dec in
  let nevents = Snap.Dec.int dec in
  let enc = Snap.Enc.create () in
  Snap.Enc.int enc k;
  Snap.Enc.int enc epoch;
  Snap.Enc.int enc nevents;
  Snap.Enc.bool_array enc (Array.make meta.Checkpoint.nthreads false);
  copy_front ~sampler dec enc;
  for _ = 1 to k * meta.Checkpoint.nthreads do
    ignore (Snap.Dec.int dec);
    ignore (Snap.Dec.int_array dec)
  done;
  for _ = 1 to k do
    Snap.Enc.int enc (Snap.Dec.int dec);
    Snap.Enc.int enc (Snap.Dec.int dec);
    Snap.Enc.string enc (Snap.Dec.string dec)
  done;
  Snap.Enc.to_snap enc

(* Run directories with older layouts, each SIGKILLed mid-stream and
   resumed: a router-state checkpoint from before the router became the
   front with worker sets from before workers were inline checkers, a
   router-state checkpoint that still holds per-worker log suffixes, and
   both files in the version-1 container written before fronts held the
   §2 validator.  The resumed router ignores its state checkpoint and
   replays the whole WAL,
   each worker ignores an old set and starts fresh — all logged — and the
   REPORT is still analyze's. *)
let test_old_checkpoints_fall_back () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.So and sampler = Sampler.bernoulli ~rate:0.3 ~seed:89 in
  let trace = sample_trace ~seed:97 ~length:600 () in
  let resume_from name ~between ~lines =
    let sub = Filename.concat dir name in
    Unix.mkdir sub 0o700;
    let socket = Filename.concat sub "route.sock" in
    let cfg = router_config ~workers:2 ~engine ~sampler ~dir:sub (Serve.Unix_path socket) in
    let run = cfg.Router.dir in
    let log = Filename.concat sub "resume.log" in
    let report =
      reaping_workers run @@ fun () ->
      killed_router_report ~crash_hit:5 ~between:(fun () -> between run) ~arm2:(stderr_to log)
        ~cfg ~socket (slices trace ~batch:75)
    in
    Alcotest.(check string) (name ^ ": REPORT ≡ analyze")
      (expected_report ~engine ~sampler trace)
      report;
    List.iter
      (fun line -> Alcotest.(check bool) (name ^ " logged: " ^ line) true (logged log line))
      (whole_wal :: lines)
  in
  let state run = Filename.concat run "router-state.ftc" in
  resume_from "before the front"
    ~between:(fun run ->
      rewrite_checkpoint (state run) (fun meta payload ->
          old_router_state ~sampler meta (suffix_router_state ~sampler meta payload));
      List.iter
        (fun k ->
          rewrite_checkpoint
            (Filename.concat (ckpt_dir run k) "set.ftc")
            (old_worker_set ~engine ~sampler))
        [ 0; 1 ])
    ~lines:
      [
        "ignoring state checkpoint (state checkpoint predates the front)";
        "checkpoint set has an older layout); starting fresh";
      ];
  resume_from "with log suffixes"
    ~between:(fun run -> rewrite_checkpoint (state run) (suffix_router_state ~sampler))
    ~lines:[ "ignoring state checkpoint (state checkpoint has an older layout)" ];
  (* the checksum covers the payload only: a rewritten version byte makes a
     well-formed version-1 file *)
  let to_version_1 path =
    let b = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
    Bytes.set b 4 '\001';
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b)
  in
  resume_from "version 1"
    ~between:(fun run ->
      to_version_1 (state run);
      List.iter (fun k -> to_version_1 (Filename.concat (ckpt_dir run k) "set.ftc")) [ 0; 1 ])
    ~lines:
      [
        "ignoring state checkpoint (unsupported checkpoint version 1)";
        "(unsupported checkpoint version 1); starting fresh";
      ]

(* A state checkpoint anchored before a RESIZE holds the old ring's
   shipping state: resume must ignore it and replay the whole WAL.  The router re-anchors a checkpoint right after
   each resize, so put the pre-resize one back by hand (as if that write
   had failed), grow and shrink back so the worker count matches, then
   SIGKILL the router and resume. *)
let test_pre_resize_checkpoint_ignored () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.So and sampler = Sampler.bernoulli ~rate:0.3 ~seed:101 in
  let trace = sample_trace ~seed:103 ~length:600 () in
  let batches = slices trace ~batch:75 in
  let socket = Filename.concat dir "route.sock" in
  let cfg =
    router_config ~workers:2 ~engine ~sampler ~dir
      (Serve.Unix_path socket)
  in
  let run = cfg.Router.dir in
  let state = Filename.concat run "router-state.ftc" in
  let log = Filename.concat dir "resume.log" in
  let report =
    reaping_workers run @@ fun () ->
    let pid = start_router cfg in
    (Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
     let fd = Serve.connect ~deadline_s:60.0 (Serve.Unix_path socket) in
     Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
     let send lo hi =
       List.iteri
         (fun i (base, sub) ->
           if i >= lo && i < hi then
             ignore (get_ok "send_batch" (Serve.send_batch ~deadline_s:60.0 fd ~base sub)))
         batches
     in
     send 0 4;
     let saved = In_channel.with_open_bin state In_channel.input_all in
     List.iter
       (fun (delta, k) ->
         Alcotest.(check int) "RESIZE echo" k
           (get_ok "resize" (Serve.resize ~deadline_s:60.0 fd delta)))
       [ (1, 3); (-1, 2) ];
     send 4 6;
     Alcotest.(check bool) "re-anchored after the resizes" true
       (In_channel.with_open_bin state In_channel.input_all <> saved);
     (* SIGKILL, then put the pre-resize checkpoint back *)
     kill_and_reap pid;
     Out_channel.with_open_bin state (fun oc -> Out_channel.output_string oc saved));
    let pid = start_router ~arm:(stderr_to log) { cfg with Router.resume = true } in
    Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
    let fd = Serve.connect ~deadline_s:60.0 (Serve.Unix_path socket) in
    Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
    List.iter
      (fun (base, sub) ->
        ignore (get_ok "blind resend" (Serve.send_batch ~deadline_s:60.0 fd ~base sub)))
      batches;
    let report = get_ok "fetch_report" (Serve.fetch_report ~deadline_s:60.0 fd) in
    get_ok "shutdown" (Serve.shutdown fd);
    reap pid;
    report
  in
  Alcotest.(check string) "REPORT ≡ analyze" (expected_report ~engine ~sampler trace) report;
  let line = "ignoring state checkpoint (it predates a resize)" in
  Alcotest.(check bool) ("logged: " ^ line) true (logged log line)

(* --- ordered admission ---------------------------------------------------------- *)

(* At the parked-batch limit one more early batch is refused before it
   reaches the WAL, and resending it once the gap fills completes the
   stream exactly. *)
let test_parked_limit () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.So and sampler = Sampler.bernoulli ~rate:0.3 ~seed:107 in
  let trace = sample_trace ~seed:109 ~length:600 () in
  let batches = Array.of_list (slices trace ~batch:100) in
  let socket = Filename.concat dir "route.sock" in
  let cfg =
    router_config ~workers:2 ~max_parked:2 ~engine ~sampler ~dir
      (Serve.Unix_path socket)
  in
  reaping_workers cfg.Router.dir @@ fun () ->
  let pid = start_router cfg in
  Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
  let fd = Serve.connect ~deadline_s:60.0 (Serve.Unix_path socket) in
  Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
  let send i =
    let base, sub = batches.(i) in
    Serve.send_batch ~deadline_s:60.0 fd ~base sub
  in
  let wal_appends () =
    json_num (fetch_stats_json fd) [ "telemetry"; "router_wal_appends_total" ]
  in
  Alcotest.(check int) "batch 1 parks" 0 (get_ok "batch 1" (send 1));
  Alcotest.(check int) "batch 2 parks" 0 (get_ok "batch 2" (send 2));
  let appends = wal_appends () in
  Alcotest.(check (result int string)) "a third early batch is refused"
    (Error "ERR parked batch limit exceeded") (send 3);
  Alcotest.(check (float 0.0)) "the refused batch left no WAL record" appends (wal_appends ());
  Alcotest.(check int) "batch 0 drains 1 and 2" 300 (get_ok "batch 0" (send 0));
  Alcotest.(check int) "the refused batch, resent" 400 (get_ok "batch 3" (send 3));
  for i = 4 to Array.length batches - 1 do
    ignore (get_ok "rest" (send i))
  done;
  Alcotest.(check string) "REPORT ≡ analyze" (expected_report ~engine ~sampler trace)
    (get_ok "fetch_report" (Serve.fetch_report ~deadline_s:60.0 fd));
  get_ok "shutdown" (Serve.shutdown fd);
  reap pid

(* Batches 2 and 3 park behind the gap at 1 while batch 0 is ingested; the
   router is SIGKILLed and resumed from its WAL, which re-parks them.  No
   state checkpoint may be written while a batch is parked — a tail replay
   from it would skip the parked batches' records — so the first one
   follows batch 1 draining the gap.  With [state_lost], batch 0 goes
   first and is checkpointed before 2 and 3 park; that router-state.ftc is
   removed before the resume, which must then re-park them from a full
   WAL replay. *)
let test_resume_with_parked ~state_lost () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.So and sampler = Sampler.bernoulli ~rate:0.3 ~seed:113 in
  let trace = sample_trace ~seed:127 ~length:600 () in
  let batches = Array.of_list (slices trace ~batch:100) in
  let socket = Filename.concat dir "route.sock" in
  let cfg =
    router_config ~workers:2 ~engine ~sampler ~dir (Serve.Unix_path socket)
  in
  let run = cfg.Router.dir in
  let state = Filename.concat run "router-state.ftc" in
  let send fd i =
    let base, sub = batches.(i) in
    get_ok "send_batch" (Serve.send_batch ~deadline_s:60.0 fd ~base sub)
  in
  let state_checkpoints j = json_num j [ "telemetry"; "router_state_checkpoints_total" ] in
  reaping_workers run @@ fun () ->
  let pid = start_router cfg in
  (Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
   let fd = Serve.connect ~deadline_s:60.0 (Serve.Unix_path socket) in
   Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
   if state_lost then Alcotest.(check int) "batch 0 is ingested" 100 (send fd 0);
   Alcotest.(check int) "batch 2 parks" (if state_lost then 100 else 0) (send fd 2);
   Alcotest.(check int) "batch 3 parks" (if state_lost then 100 else 0) (send fd 3);
   if not state_lost then Alcotest.(check int) "batch 0 is ingested" 100 (send fd 0);
   let j = fetch_stats_json fd in
   Alcotest.(check (float 0.0)) "two batches parked" 2.0 (json_num j [ "parked" ]);
   Alcotest.(check (float 0.0)) "a state checkpoint only before the parking"
     (if state_lost then 1.0 else 0.0)
     (state_checkpoints j);
   Alcotest.(check bool) "router-state.ftc" state_lost (Sys.file_exists state));
  if state_lost then Sys.remove state;
  let log = Filename.concat dir "resume.log" in
  let pid = start_router ~arm:(stderr_to log) { cfg with Router.resume = true } in
  Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
  let fd = Serve.connect ~deadline_s:60.0 (Serve.Unix_path socket) in
  Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
  let j = fetch_stats_json fd in
  Alcotest.(check (float 0.0)) "resumed with both batches parked" 2.0 (json_num j [ "parked" ]);
  Alcotest.(check (float 0.0)) "resumed at the cursor" 100.0 (json_num j [ "next_index" ]);
  Alcotest.(check bool) "no state checkpoint to resume from: the whole WAL" true
    (logged log whole_wal);
  Alcotest.(check int) "batch 1 drains the parked batches" 400 (send fd 1);
  for i = 4 to Array.length batches - 1 do
    ignore (send fd i)
  done;
  Alcotest.(check string) "REPORT ≡ analyze" (expected_report ~engine ~sampler trace)
    (get_ok "fetch_report" (Serve.fetch_report ~deadline_s:60.0 fd));
  let j = fetch_stats_json fd in
  Alcotest.(check bool) "a state checkpoint once nothing is parked" true
    (state_checkpoints j > 0.0);
  get_ok "shutdown" (Serve.shutdown fd);
  reap pid

(* --- an ill-formed stream ------------------------------------------------------ *)

(* Threads 0 and 1 both acquire L0: the second acquire breaks §2.  A raw
   BATCH, since the client-side pre-check of [racedet emit] would refuse it
   before sending. *)
let ill_formed_trace =
  Trace.make ~nthreads:2 ~nlocks:1 ~nlocs:1
    (Array.map
       (fun (t, op) -> Ft_trace.Event.mk t op)
       Ft_trace.Event.
         [|
           (0, Acquire 0); (1, Acquire 0); (0, Write 0); (1, Write 0); (1, Release 0);
           (0, Release 0);
         |])

let ill_formed = "ill-formed trace: event 1: thread 1 acquires lock 0 held by thread 0"

(* The router's front rejects the event before any worker sees it: the
   client gets ERR with the reason, no REPORT, and the router fails fast
   (exit 1).  The batch went into the WAL before it was fed, so a resume
   that folds the same WAL fails the same way. *)
let test_ill_formed_batch () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.So and sampler = Sampler.all in
  let socket = Filename.concat dir "route.sock" in
  let cfg = router_config ~workers:2 ~engine ~sampler ~dir (Serve.Unix_path socket) in
  let exits_1 what pid =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED 1 -> ()
    | Unix.WEXITED n -> Alcotest.failf "%s exited %d, wanted 1" what n
    | _ -> Alcotest.failf "%s was killed by a signal" what
  in
  reaping_workers cfg.Router.dir @@ fun () ->
  let pid = start_router cfg in
  (Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
   (let fd = Serve.connect ~deadline_s:60.0 (Serve.Unix_path socket) in
    Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
    Alcotest.(check (result int string)) "ERR with the reason" (Error ("ERR " ^ ill_formed))
      (Serve.send_batch ~deadline_s:60.0 fd ~base:0 ill_formed_trace);
    match Serve.fetch_report ~deadline_s:5.0 fd with
    | Ok report -> Alcotest.failf "a REPORT after the ERR: %s" report
    | Error _ -> ());
   exits_1 "router" pid);
  let log = Filename.concat dir "resume.log" in
  let pid = start_router ~arm:(stderr_to log) { cfg with Router.resume = true } in
  Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
  exits_1 "resumed router" pid;
  Alcotest.(check bool) "the resume fails with the same reason" true (logged log ill_formed)

(* --- wire fuzz ----------------------------------------------------------------- *)

let test_wire_fuzz () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.So and sampler = Sampler.bernoulli ~rate:0.3 ~seed:131 in
  let trace = sample_trace ~seed:137 ~length:600 () in
  let socket = Filename.concat dir "route.sock" in
  let cfg =
    router_config ~workers:1 ~engine ~sampler ~dir (Serve.Unix_path socket)
  in
  reaping_workers cfg.Router.dir @@ fun () ->
  let pid = start_router cfg in
  Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
  let fd = Serve.connect ~deadline_s:60.0 (Serve.Unix_path socket) in
  Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
  List.iter (fun seed -> Wire_fuzz.run ~seed ~count:200 ~blob_verbs:[ "BATCH" ] fd) [ 1; 2; 3 ];
  List.iter
    (fun (base, sub) ->
      ignore (get_ok "send_batch" (Serve.send_batch ~deadline_s:60.0 fd ~base sub)))
    (slices trace ~batch:100);
  Alcotest.(check string) "a valid stream after the fuzz ≡ analyze"
    (expected_report ~engine ~sampler trace)
    (get_ok "fetch_report" (Serve.fetch_report ~deadline_s:60.0 fd));
  get_ok "shutdown" (Serve.shutdown fd);
  reap pid

(* --- Chash units -------------------------------------------------------------- *)

let test_chash () =
  let nlocs = 2_000 in
  (* deterministic: two independent rings agree everywhere *)
  let a = Chash.create ~workers:4 and b = Chash.create ~workers:4 in
  for x = 0 to nlocs - 1 do
    Alcotest.(check int) "owner deterministic" (Chash.owner a x) (Chash.owner b x)
  done;
  (* coverage and rough balance *)
  let counts = Array.make 4 0 in
  for x = 0 to nlocs - 1 do
    let o = Chash.owner a x in
    Alcotest.(check bool) "owner in range" true (o >= 0 && o < 4);
    counts.(o) <- counts.(o) + 1
  done;
  Array.iteri
    (fun w c ->
      Alcotest.(check bool) (Printf.sprintf "worker %d owns a sane share" w) true
        (c > 0 && c < nlocs))
    counts;
  let mean = nlocs / 4 in
  Array.iter
    (fun c -> Alcotest.(check bool) "no worker above 3x the mean share" true (c < 3 * mean))
    counts;
  (* consistency: growing K=3 → K=4 moves well under half the keyspace *)
  let three = Chash.create ~workers:3 and four = Chash.create ~workers:4 in
  let moved = ref 0 in
  for x = 0 to nlocs - 1 do
    if Chash.owner three x <> Chash.owner four x then incr moved
  done;
  Alcotest.(check bool)
    (Printf.sprintf "only %d/%d locations moved" !moved nlocs)
    true
    (!moved < nlocs / 2);
  Alcotest.(check int) "K=1 is total" 0 (Chash.owner (Chash.create ~workers:1) 12345)

let () =
  Alcotest.run "cluster"
    [
      ( "identity",
        [
          Alcotest.test_case "engines × samplers × K grid ≡ analyze" `Quick
            test_identity_grid;
          Alcotest.test_case "TCP transport, out-of-order + duplicates" `Quick
            test_tcp_out_of_order_duplicates;
          Alcotest.test_case "Router.run refuses worker_shards = 2" `Quick
            test_refuses_worker_shards;
          Alcotest.test_case "Router.run refuses wal, checkpoint, state_every off" `Quick
            test_refuses_retired_modes;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "chaos worker kill, checkpointed resume" `Quick
            (test_chaos_worker_crash ~set_lost:false);
          Alcotest.test_case "chaos worker kill, full-log replay" `Quick
            (test_chaos_worker_crash ~set_lost:true);
          Alcotest.test_case "external SIGKILL via pid file" `Quick test_external_sigkill;
          QCheck_alcotest.to_alcotest worker_kill_property;
        ] );
      ( "durability",
        [
          Alcotest.test_case "router SIGKILL + resume, engines × K grid" `Quick
            test_router_kill_resume_grid;
          QCheck_alcotest.to_alcotest router_kill_property;
          Alcotest.test_case "checkpoints from before the router front fall back" `Quick
            test_old_checkpoints_fall_back;
          Alcotest.test_case "state checkpoint from before a RESIZE ignored" `Quick
            test_pre_resize_checkpoint_ignored;
          Alcotest.test_case "WAL truncation + bit-flip fuzz at every byte" `Quick
            test_wal_fuzz;
        ] );
      ( "cadence",
        [
          Alcotest.test_case "checkpoint bytes amortize against routed bytes" `Quick
            test_checkpoint_amortization;
          Alcotest.test_case "worker kill + router SIGKILL replay ≤ one checkpoint" `Quick
            test_recovery_bound;
          Alcotest.test_case "worker messages bounded by sampled accesses (tpcc)" `Quick
            test_messages_bounded_by_samples;
          Alcotest.test_case "worker logs drained after RESULT; a lost set replays" `Quick
            test_logs_drained;
        ] );
      ( "availability",
        [
          QCheck_alcotest.to_alcotest resize_property;
          Alcotest.test_case "RESIZE ±1 mid-stream ≡ analyze" `Quick
            test_resize_report_and_result;
          Alcotest.test_case "window=1/3/16 pipelining identity" `Quick
            test_window_identity;
          Alcotest.test_case "ready-file staleness protocol" `Quick
            test_ready_file_staleness;
        ] );
      ("migration", [ QCheck_alcotest.to_alcotest migrate_property ]);
      ( "admission",
        [
          Alcotest.test_case "parked-batch limit: refused before the WAL" `Quick
            test_parked_limit;
          Alcotest.test_case "resume re-parks WAL batches (state checkpoints on)" `Quick
            (test_resume_with_parked ~state_lost:false);
          Alcotest.test_case "resume re-parks WAL batches (state checkpoint lost)" `Quick
            (test_resume_with_parked ~state_lost:true);
          Alcotest.test_case "wire parser fuzz, then ≡ analyze" `Quick test_wire_fuzz;
          Alcotest.test_case "ill-formed BATCH: ERR; a resume fails too" `Quick
            test_ill_formed_batch;
        ] );
      ("chash", [ Alcotest.test_case "determinism, coverage, stability" `Quick test_chash ]);
    ]
