(* racedet serve — the ingestion daemon:

   - roundtrip: batches streamed out of order over a Unix socket produce a
     REPORT byte-identical to the in-process unsharded analysis;
   - two client connections interleaving disjoint batch sets (stride 2);
   - idempotent resends, duplicate batches, universe mismatches, malformed
     payloads and unknown commands answer without corrupting the session;
   - crash-mid-stream: SIGKILL the daemon between batches, restart it from
     the per-shard .ftc checkpoints, blindly resend everything — the final
     report still matches the uninterrupted analysis.

   The daemon runs in a forked child (it spawns shard domains; the parent
   forks before ever creating a domain). *)

module Trace = Ft_trace.Trace
module Trace_gen = Ft_trace.Trace_gen
module Prng = Ft_support.Prng
module Engine = Ft_core.Engine
module Sampler = Ft_core.Sampler
module Serve = Ft_shard.Serve
module Json = Ft_obs.Json

let dir_counter = ref 0

let temp_dir () =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ftserve-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  Unix.mkdir d 0o700;
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let with_temp_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let start_server ?checkpoint_dir ?resume_dir ?metrics_json ?chaos ~engine ~shards ~sampler
    socket =
  match Unix.fork () with
  | 0 ->
    (try
       Serve.run
         {
           Serve.listen = Serve.Unix_path socket;
           engine;
           shards;
           sampler;
           clock_size = None;
           checkpoint_dir;
           resume_dir;
           checkpoint_every = Serve.default_checkpoint_every;
           max_parked = Serve.default_max_parked;
           backlog = Serve.default_backlog;
           ready_file = None;
           heartbeat_s = None;
           metrics_json;
           max_restarts = Serve.default_max_restarts;
           chaos;
         }
     with exn ->
       Printf.eprintf "server died: %s\n%!" (Printexc.to_string exn);
       Unix._exit 1);
    Unix._exit 0
  | pid -> pid

let reap pid =
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let kill_and_reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap pid

let get_ok what = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s failed: %s" what msg

let sample_trace ~seed ~length =
  let prng = Prng.create ~seed in
  Trace_gen.random prng
    {
      Trace_gen.nthreads = 4;
      nlocks = 3;
      nlocs = 10;
      length;
      atomics = true;
      forkjoin = true;
    }

(* split a trace into (base, sub-trace) batches of [batch] events *)
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
  Serve.report_text ~events:(Trace.length trace)
    (Engine.run engine ~sampler trace)

(* --- roundtrip -------------------------------------------------------------- *)

let test_roundtrip_out_of_order () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.So and sampler = Sampler.bernoulli ~rate:0.3 ~seed:5 in
  let trace = sample_trace ~seed:1 ~length:2_000 in
  let expected = expected_report ~engine ~sampler trace in
  let socket = Filename.concat dir "serve.sock" in
  let pid = start_server ~engine ~shards:4 ~sampler socket in
  Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
  let fd = Serve.connect (Serve.Unix_path socket) in
  Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
  let batches = slices trace ~batch:300 in
  (* odd-numbered batches first: everything parks until the evens arrive *)
  let scrambled =
    List.filteri (fun i _ -> i mod 2 = 1) batches
    @ List.filteri (fun i _ -> i mod 2 = 0) batches
  in
  List.iter
    (fun (base, sub) -> ignore (get_ok "send_batch" (Serve.send_batch fd ~base sub)))
    scrambled;
  let report = get_ok "fetch_report" (Serve.fetch_report fd) in
  Alcotest.(check string) "serve report ≡ analyze" expected report;
  get_ok "shutdown" (Serve.shutdown fd);
  reap pid

(* --- two clients, stride 2 ---------------------------------------------------- *)

let test_two_clients_interleaved () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.Su and sampler = Sampler.all in
  let trace = sample_trace ~seed:2 ~length:1_500 in
  let expected = expected_report ~engine ~sampler trace in
  let socket = Filename.concat dir "serve.sock" in
  let pid = start_server ~engine ~shards:2 ~sampler socket in
  Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
  let a = Serve.connect (Serve.Unix_path socket) in
  let b = Serve.connect (Serve.Unix_path socket) in
  Fun.protect ~finally:(fun () -> Serve.close a; Serve.close b) @@ fun () ->
  let batches = Array.of_list (slices trace ~batch:250) in
  (* client A owns even batches, client B odd ones; B runs ahead of A *)
  Array.iteri
    (fun i (base, sub) ->
      let fd = if i mod 2 = 0 then a else b in
      ignore (get_ok "send_batch" (Serve.send_batch fd ~base sub)))
    (Array.concat
       [
         Array.of_list
           (List.filteri (fun i _ -> i mod 2 = 1) (Array.to_list batches));
         Array.of_list
           (List.filteri (fun i _ -> i mod 2 = 0) (Array.to_list batches));
       ]);
  (* careful: the iteration above alternates conns over the reordered list —
     what matters is that both conns sent and the server reassembled *)
  let report = get_ok "fetch_report" (Serve.fetch_report b) in
  Alcotest.(check string) "two-client report ≡ analyze" expected report;
  get_ok "shutdown" (Serve.shutdown a);
  reap pid

(* --- protocol edges ------------------------------------------------------------ *)

let test_protocol_edges () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.St and sampler = Sampler.all in
  let trace = sample_trace ~seed:3 ~length:600 in
  let socket = Filename.concat dir "serve.sock" in
  let pid = start_server ~engine ~shards:3 ~sampler socket in
  Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
  let fd = Serve.connect (Serve.Unix_path socket) in
  Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
  let batches = Array.of_list (slices trace ~batch:200) in
  let base0, sub0 = batches.(0) in
  let total = get_ok "first batch" (Serve.send_batch fd ~base:base0 sub0) in
  Alcotest.(check int) "total after batch 0" 200 total;
  (* duplicate resend is idempotent *)
  let total = get_ok "duplicate" (Serve.send_batch fd ~base:base0 sub0) in
  Alcotest.(check int) "duplicate leaves total alone" 200 total;
  (* a batch from a different universe is refused *)
  let alien = sample_trace ~seed:99 ~length:50 in
  let alien =
    Trace.make ~nthreads:(alien.Trace.nthreads + 3) ~nlocks:alien.Trace.nlocks
      ~nlocs:alien.Trace.nlocs
      (Array.init (Trace.length alien) (Trace.get alien))
  in
  (match Serve.send_batch fd ~base:200 alien with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "universe mismatch accepted");
  (* malformed payload and unknown commands answer ERR without wedging *)
  let module U = Unix in
  let write_all s =
    let b = Bytes.of_string s in
    ignore (U.write fd b 0 (Bytes.length b))
  in
  write_all "BATCH 200 5\nHELLO";
  write_all "NONSENSE\n";
  (* both must answer ERR, in order *)
  let read_line () =
    let b = Buffer.create 32 in
    let one = Bytes.create 1 in
    let rec go () =
      if U.read fd one 0 1 = 0 then Alcotest.fail "server closed on bad input"
      else if Bytes.get one 0 = '\n' then Buffer.contents b
      else (Buffer.add_char b (Bytes.get one 0); go ())
    in
    go ()
  in
  List.iter
    (fun what ->
      let line = read_line () in
      Alcotest.(check bool) (what ^ " answered ERR") true
        (String.length line >= 3 && String.sub line 0 3 = "ERR"))
    [ "malformed payload"; "unknown command" ];
  (* the connection still works: finish the stream and report *)
  Array.iteri
    (fun i (base, sub) ->
      if i > 0 then ignore (get_ok "rest" (Serve.send_batch fd ~base sub)))
    batches;
  let report = get_ok "fetch_report after errors" (Serve.fetch_report fd) in
  let expected = expected_report ~engine ~sampler trace in
  Alcotest.(check string) "session survived bad input" expected report;
  get_ok "shutdown" (Serve.shutdown fd);
  reap pid

(* --- crash mid-stream, resume from .ftc checkpoints ---------------------------- *)

let test_crash_and_resume () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.So and sampler = Sampler.cold_region ~threshold:2 in
  let trace = sample_trace ~seed:4 ~length:1_800 in
  let expected = expected_report ~engine ~sampler trace in
  let socket = Filename.concat dir "serve.sock" in
  let ckpt = Filename.concat dir "ckpt" in
  Unix.mkdir ckpt 0o700;
  Fun.protect ~finally:(fun () -> rm_rf ckpt) @@ fun () ->
  let batches = Array.of_list (slices trace ~batch:300) in
  let shards = 4 in
  (* phase 1: ingest half the stream, checkpointing after every batch *)
  let pid = start_server ~engine ~shards ~sampler ~checkpoint_dir:ckpt socket in
  let survived_events =
    Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
    let fd = Serve.connect (Serve.Unix_path socket) in
    Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
    let total = ref 0 in
    for i = 0 to 2 do
      let base, sub = batches.(i) in
      total := get_ok "phase-1 batch" (Serve.send_batch fd ~base sub)
    done;
    (* SIGKILL between batches: no goodbye, no final checkpoint *)
    Unix.kill pid Sys.sigkill;
    reap pid;
    !total
  in
  Alcotest.(check int) "three batches ingested before the crash" 900 survived_events;
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  (* phase 2: restart from the checkpoint directory, blindly resend all *)
  let pid =
    start_server ~engine ~shards ~sampler ~checkpoint_dir:ckpt ~resume_dir:ckpt socket
  in
  Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
  let fd = Serve.connect (Serve.Unix_path socket) in
  Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
  (* the first resent batch's reply proves state survived the crash *)
  let base0, sub0 = batches.(0) in
  let total = get_ok "resent batch 0" (Serve.send_batch fd ~base:base0 sub0) in
  Alcotest.(check int) "resumed from the checkpoint, not from zero" 900 total;
  Array.iteri
    (fun i (base, sub) ->
      if i > 0 then ignore (get_ok "resend" (Serve.send_batch fd ~base sub)))
    batches;
  let report = get_ok "post-resume report" (Serve.fetch_report fd) in
  Alcotest.(check string) "crash+resume report ≡ analyze" expected report;
  get_ok "shutdown" (Serve.shutdown fd);
  reap pid

(* A missing/garbled checkpoint set must degrade to a fresh start, and the
   blind resend still converges to the exact report. *)
let test_resume_with_corrupt_checkpoint_starts_fresh () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.Fasttrack and sampler = Sampler.all in
  let trace = sample_trace ~seed:6 ~length:800 in
  let expected = expected_report ~engine ~sampler trace in
  let socket = Filename.concat dir "serve.sock" in
  let ckpt = Filename.concat dir "ckpt" in
  Unix.mkdir ckpt 0o700;
  Fun.protect ~finally:(fun () -> rm_rf ckpt) @@ fun () ->
  Out_channel.with_open_bin (Filename.concat ckpt "router.ftc") (fun oc ->
      Out_channel.output_string oc "FTCKgarbage");
  let pid = start_server ~engine ~shards:2 ~sampler ~resume_dir:ckpt socket in
  Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
  let fd = Serve.connect (Serve.Unix_path socket) in
  Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
  List.iter
    (fun (base, sub) -> ignore (get_ok "send" (Serve.send_batch fd ~base sub)))
    (slices trace ~batch:250);
  let report = get_ok "report" (Serve.fetch_report fd) in
  Alcotest.(check string) "fresh start still exact" expected report;
  get_ok "shutdown" (Serve.shutdown fd);
  reap pid

(* --- slow server: partial reads must not spuriously fail ----------------------- *)

(* A fake server on a socketpair trickles a REPORT reply out in tiny chunks
   with pauses longer than the client's receive timeout, so every chunk
   boundary fires EAGAIN mid-blob.  The regression: the client used to treat
   the first EAGAIN as a hard failure; it must instead keep reading until its
   overall deadline. *)

let fake_report_payload =
  String.concat "" (List.init 24 (fun i -> Printf.sprintf "report line %d\n" i))

let with_fake_server ~serve f =
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 ->
    Unix.close client;
    (try serve server with _ -> ());
    (try Unix.close server with Unix.Unix_error _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close server;
    Fun.protect
      ~finally:(fun () ->
        (try Unix.close client with Unix.Unix_error _ -> ());
        kill_and_reap pid)
      (fun () -> f client)

let write_slowly ?(chunk = 9) ?(pause = 0.05) fd s =
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let len = Stdlib.min chunk (n - !i) in
    ignore (Unix.write_substring fd s !i len);
    ignore (Unix.select [] [] [] pause);
    i := !i + len
  done

let test_slow_server_partial_reads () =
  with_fake_server
    ~serve:(fun fd ->
      let buf = Bytes.create 64 in
      ignore (Unix.read fd buf 0 64);
      write_slowly fd
        (Printf.sprintf "REPORT %d\n" (String.length fake_report_payload));
      write_slowly fd fake_report_payload)
  @@ fun client ->
  (* a receive timeout shorter than the server's inter-chunk pause: every
     chunk boundary surfaces EAGAIN to the reader *)
  Unix.setsockopt_float client Unix.SO_RCVTIMEO 0.02;
  let report = get_ok "fetch_report from slow server" (Serve.fetch_report client) in
  Alcotest.(check string) "blob reassembled across partial reads"
    fake_report_payload report

let test_slow_server_deadline_expires () =
  with_fake_server
    ~serve:(fun fd ->
      let buf = Bytes.create 64 in
      ignore (Unix.read fd buf 0 64);
      (* claim a large blob, deliver a sliver, then stall past any deadline *)
      ignore (Unix.write_substring fd "REPORT 100000\nstall" 0 19);
      ignore (Unix.select [] [] [] 30.0))
  @@ fun client ->
  Unix.setsockopt_float client Unix.SO_RCVTIMEO 0.02;
  match Serve.fetch_report ~deadline_s:0.4 client with
  | Ok _ -> Alcotest.fail "stalled server produced a report"
  | Error msg ->
    Alcotest.(check bool) "error mentions the deadline" true
      (String.length msg > 0)

(* --- STATS under concurrent ingestion ------------------------------------------ *)

let member_int path doc =
  let rec go doc = function
    | [] -> Json.to_int doc
    | key :: rest -> Option.bind (Json.member key doc) (fun d -> go d rest)
  in
  match go doc path with
  | Some n -> n
  | None ->
    Alcotest.failf "stats JSON is missing %s" (String.concat "." path)

let test_stats_during_ingestion () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.So and sampler = Sampler.bernoulli ~rate:0.25 ~seed:9 in
  let trace = sample_trace ~seed:8 ~length:2_000 in
  let expected_result = Engine.run engine ~sampler trace in
  let expected_report = expected_report ~engine ~sampler trace in
  let socket = Filename.concat dir "serve.sock" in
  let pid = start_server ~engine ~shards:3 ~sampler socket in
  Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
  let a = Serve.connect (Serve.Unix_path socket) in
  let b = Serve.connect (Serve.Unix_path socket) in
  let c = Serve.connect (Serve.Unix_path socket) in
  Fun.protect
    ~finally:(fun () -> Serve.close a; Serve.close b; Serve.close c)
  @@ fun () ->
  let batches = Array.of_list (slices trace ~batch:200) in
  let last_events = ref (-1) in
  let last_batches = ref (-1) in
  let query_stats () =
    (* Prometheus first: must expose the ingest counters as text *)
    let prom = get_ok "fetch_stats prom" (Serve.fetch_stats c ~format:`Prometheus) in
    List.iter
      (fun series ->
        Alcotest.(check bool) (series ^ " exposed") true
          (let nh = String.length prom and nn = String.length series in
           let rec go i = i + nn <= nh && (String.sub prom i nn = series || go (i + 1)) in
           go 0))
      [
        "# TYPE serve_batches_ingested_total counter";
        "serve_events_ingested_total";
        "serve_batch_ingest_ns_bucket{le=";
        "serve_shard_ring_occupancy{shard=\"0\"}";
        "racedet_supervisor_restore_points_total{shard=\"2\"}";
        "serve_supervisor_backlog_bytes{shard=\"2\"}";
      ];
    (* JSON: parseable, counters monotone across successive queries *)
    let text = get_ok "fetch_stats json" (Serve.fetch_stats c ~format:`Json) in
    match Json.parse text with
    | Error msg -> Alcotest.failf "STATS JSON does not parse: %s" msg
    | Ok doc ->
      let events = member_int [ "telemetry"; "serve_events_ingested_total" ] doc in
      let nbatches = member_int [ "telemetry"; "serve_batches_ingested_total" ] doc in
      Alcotest.(check bool) "events counter is monotone" true (events >= !last_events);
      Alcotest.(check bool) "batches counter is monotone" true (nbatches >= !last_batches);
      last_events := events;
      last_batches := nbatches;
      doc
  in
  (* two clients interleave disjoint batch halves; a third queries STATS
     after every round of sends *)
  let final_doc = ref None in
  Array.iteri
    (fun i (base, sub) ->
      let fd = if i mod 2 = 0 then a else b in
      ignore (get_ok "send_batch" (Serve.send_batch fd ~base sub));
      if i mod 3 = 0 then final_doc := Some (query_stats ()))
    batches;
  let doc = query_stats () in
  ignore !final_doc;
  (* final values agree with the REPORT-side analysis *)
  let n = Ft_trace.Trace.length trace in
  Alcotest.(check int) "all events ingested" n
    (member_int [ "telemetry"; "serve_events_ingested_total" ] doc);
  Alcotest.(check int) "session event count" n (member_int [ "events" ] doc);
  Alcotest.(check int) "race count matches the in-process run"
    (List.length expected_result.Ft_core.Detector.races)
    (member_int [ "races" ] doc);
  Alcotest.(check int) "merged metrics events match"
    expected_result.Ft_core.Detector.metrics.Ft_core.Metrics.events
    (member_int [ "metrics"; "events" ] doc);
  Alcotest.(check int) "no batches left parked" 0 (member_int [ "parked" ] doc);
  let per_shard key =
    match Json.member key doc with
    | Some (Json.Arr xs) -> List.map (fun x -> Option.get (Json.to_int x)) xs
    | _ -> Alcotest.failf "stats JSON is missing the %s array" key
  in
  Alcotest.(check bool) "every shard adopted a restore point" true
    (let rp = per_shard "restore_points" in
     List.length rp = 3 && List.for_all (fun n -> n > 0) rp);
  Alcotest.(check int) "one backlog size per shard" 3 (List.length (per_shard "backlog_bytes"));
  (* STATS instrumentation must leave the report byte-identical *)
  let report = get_ok "fetch_report" (Serve.fetch_report c) in
  Alcotest.(check string) "report unchanged by telemetry" expected_report report;
  get_ok "shutdown" (Serve.shutdown c);
  reap pid

(* --- --metrics-json on shutdown ------------------------------------------------- *)

let test_metrics_json_file () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.Su and sampler = Sampler.all in
  let trace = sample_trace ~seed:11 ~length:600 in
  let socket = Filename.concat dir "serve.sock" in
  let path = Filename.concat dir "metrics.json" in
  let pid = start_server ~engine ~shards:2 ~sampler ~metrics_json:path socket in
  Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
  let fd = Serve.connect (Serve.Unix_path socket) in
  Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
  List.iter
    (fun (base, sub) -> ignore (get_ok "send" (Serve.send_batch fd ~base sub)))
    (slices trace ~batch:200);
  get_ok "shutdown" (Serve.shutdown fd);
  reap pid;
  (* the daemon wrote the STATS JSON document on its way out *)
  let rec wait_for tries =
    if Sys.file_exists path then ()
    else if tries = 0 then Alcotest.failf "%s was not written" path
    else begin
      ignore (Unix.select [] [] [] 0.05);
      wait_for (tries - 1)
    end
  in
  wait_for 100;
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  match Json.parse text with
  | Error msg -> Alcotest.failf "--metrics-json output does not parse: %s" msg
  | Ok doc ->
    Alcotest.(check int) "events recorded" (Ft_trace.Trace.length trace)
      (member_int [ "events" ] doc);
    Alcotest.(check bool) "merged metrics present" true
      (Json.member "metrics" doc <> None)

(* One large BATCH whose payload spans many 64 KiB recv rounds: the daemon
   must accumulate it in amortized O(1) per byte (Netbuf) and answer with
   the exact report.  The algorithmic bound itself is pinned by the Netbuf
   copied-bytes test in test_fastpath; this exercises the integration —
   blob reassembly across reads, then a correct verdict — under a
   generous wall-clock ceiling that the old quadratic accumulate would
   start to threaten as payloads grow. *)
let test_large_single_batch () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.St and sampler = Sampler.all in
  let trace = sample_trace ~seed:21 ~length:400_000 in
  let expected = expected_report ~engine ~sampler trace in
  let socket = Filename.concat dir "serve.sock" in
  let pid = start_server ~engine ~shards:4 ~sampler socket in
  Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
  let fd = Serve.connect (Serve.Unix_path socket) in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let total =
    get_ok "large batch" (Serve.send_batch ~deadline_s:60.0 fd ~base:0 trace)
  in
  Alcotest.(check int) "all events ingested in one batch" (Trace.length trace) total;
  let report = get_ok "report" (Serve.fetch_report ~deadline_s:60.0 fd) in
  Alcotest.(check string) "single large batch ≡ analyze" expected report;
  Alcotest.(check bool) "ingestion throughput sane" true
    (Unix.gettimeofday () -. t0 < 30.0)

(* A second daemon handed the path of a LIVE server must refuse to start
   (probe-with-connect), not blindly unlink the listener out from under it;
   the first server keeps serving.  (Stale socket files of crashed servers
   are still replaced — the crash/resume test exercises that path.) *)
let test_refuses_live_listener () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.So and sampler = Sampler.all in
  let socket = Filename.concat dir "serve.sock" in
  let pid = start_server ~engine ~shards:1 ~sampler socket in
  Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
  let fd = Serve.connect (Serve.Unix_path socket) in
  Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
  let pid2 = start_server ~engine ~shards:1 ~sampler socket in
  let _, status = Unix.waitpid [] pid2 in
  (match status with
  | Unix.WEXITED 1 -> ()
  | Unix.WEXITED n -> Alcotest.failf "second server exited %d, wanted 1" n
  | _ -> Alcotest.fail "second server was killed by a signal");
  (* the first server kept its socket and still answers *)
  let trace = sample_trace ~seed:41 ~length:400 in
  ignore (get_ok "send" (Serve.send_batch fd ~base:0 trace));
  let report = get_ok "report" (Serve.fetch_report fd) in
  Alcotest.(check string) "first server unharmed"
    (expected_report ~engine ~sampler trace)
    report;
  get_ok "shutdown" (Serve.shutdown fd);
  reap pid

(* SIGTERM while the listener is under connect load must still take the
   graceful path (drain → final checkpoint → metrics dump → exit 0): the
   regression was an unguarded [accept] letting EINTR escape the loop. *)
let test_sigterm_graceful_under_connect_load () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.So and sampler = Sampler.all in
  let trace = sample_trace ~seed:31 ~length:1_000 in
  let socket = Filename.concat dir "serve.sock" in
  let path = Filename.concat dir "metrics.json" in
  let pid = start_server ~engine ~shards:2 ~sampler ~metrics_json:path socket in
  Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
  let fd = Serve.connect (Serve.Unix_path socket) in
  List.iter
    (fun (base, sub) -> ignore (get_ok "send" (Serve.send_batch fd ~base sub)))
    (slices trace ~batch:250);
  (* open connections plus a burst of racing connect attempts while the
     signal lands; attempts may fail once the listener is gone — fine *)
  let churn = Array.init 5 (fun i -> Serve.connect ~seed:i (Serve.Unix_path socket)) in
  Unix.kill pid Sys.sigterm;
  for _ = 1 to 20 do
    let fd2 = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd2 (Unix.ADDR_UNIX socket) with Unix.Unix_error _ -> ());
    try Unix.close fd2 with Unix.Unix_error _ -> ()
  done;
  let _, status = Unix.waitpid [] pid in
  Serve.close fd;
  Array.iter Serve.close churn;
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> Alcotest.failf "server exited %d after SIGTERM" n
  | _ -> Alcotest.fail "server was killed by a signal");
  Alcotest.(check bool) "graceful drain wrote --metrics-json" true (Sys.file_exists path);
  Sys.remove path;
  Alcotest.(check bool) "socket removed on exit" false (Sys.file_exists socket)

let () =
  Alcotest.run "serve"
    [
      ( "daemon",
        [
          Alcotest.test_case "out-of-order roundtrip ≡ analyze" `Quick
            test_roundtrip_out_of_order;
          Alcotest.test_case "two clients, stride 2" `Quick test_two_clients_interleaved;
          Alcotest.test_case "protocol edges" `Quick test_protocol_edges;
          Alcotest.test_case "large single batch streams through" `Quick
            test_large_single_batch;
          Alcotest.test_case "live listener refuses a second server" `Quick
            test_refuses_live_listener;
          Alcotest.test_case "SIGTERM under connect load drains gracefully" `Quick
            test_sigterm_graceful_under_connect_load;
        ] );
      ( "client robustness",
        [
          Alcotest.test_case "slow server: EAGAIN mid-blob" `Quick
            test_slow_server_partial_reads;
          Alcotest.test_case "stalled server: deadline expires" `Quick
            test_slow_server_deadline_expires;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "STATS during two-client ingestion" `Quick
            test_stats_during_ingestion;
          Alcotest.test_case "--metrics-json on shutdown" `Quick test_metrics_json_file;
        ] );
      ( "crash/resume",
        [
          Alcotest.test_case "SIGKILL mid-stream, resume from .ftc" `Quick
            test_crash_and_resume;
          Alcotest.test_case "corrupt checkpoint degrades to fresh start" `Quick
            test_resume_with_corrupt_checkpoint_starts_fresh;
        ] );
    ]
