(* racedet serve — the ingestion daemon:

   - roundtrip: batches streamed out of order over a Unix socket produce a
     REPORT byte-identical to the in-process unsharded analysis;
   - two client connections interleaving disjoint batch sets (stride 2);
   - idempotent resends, duplicate batches, universe mismatches, malformed
     payloads and unknown commands answer without corrupting the session;
   - crash-mid-stream: SIGKILL the daemon between batches, restart it from
     its .ftc checkpoint set, blindly resend everything — the final
     report still matches the uninterrupted analysis; a set in the layout
     of the K-checker daemon the pipeline replaced resumes at K = 1 and
     starts fresh, logged, at K = 2;
   - ordered admission ({!Ft_shard.Admit}) directly, as a QCheck property,
     and through the daemon at its parked-batch limit;
   - seeded fuzzing of the command-line parser.

   The daemon runs in a forked child (it spawns a checker domain; the
   parent forks before ever creating a domain). *)

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

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

let serve_config ?checkpoint_dir ?resume_dir ?metrics_json ?chaos
    ?(max_parked = Serve.default_max_parked) ~engine ~sampler socket =
  {
    Serve.listen = Serve.Unix_path socket;
    engine;
    shards = 1;
    sampler;
    clock_size = None;
    checkpoint_dir;
    resume_dir;
    checkpoint_every = Serve.default_checkpoint_every;
    max_parked;
    backlog = Serve.default_backlog;
    ready_file = None;
    heartbeat_s = None;
    metrics_json;
    max_restarts = Serve.default_max_restarts;
    chaos;
  }

(* [log]: the child's stderr goes to this file. *)
let start_server ?checkpoint_dir ?resume_dir ?metrics_json ?chaos ?max_parked ?log ~engine
    ~sampler socket =
  match Unix.fork () with
  | 0 ->
    Option.iter
      (fun path ->
        let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
        Unix.dup2 fd Unix.stderr;
        Unix.close fd)
      log;
    (try
       Serve.run
         (serve_config ?checkpoint_dir ?resume_dir ?metrics_json ?chaos ?max_parked ~engine
            ~sampler socket)
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
  let pid = start_server ~engine ~sampler socket in
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
  let pid = start_server ~engine ~sampler socket in
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
  let pid = start_server ~engine ~sampler socket in
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
  (* phase 1: ingest half the stream, checkpointing after every batch *)
  let pid = start_server ~engine ~sampler ~checkpoint_dir:ckpt socket in
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
    start_server ~engine ~sampler ~checkpoint_dir:ckpt ~resume_dir:ckpt socket
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
  Out_channel.with_open_bin (Filename.concat ckpt "set.ftc") (fun oc ->
      Out_channel.output_string oc "FTCKgarbage");
  let pid = start_server ~engine ~sampler ~resume_dir:ckpt socket in
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

(* A set in the layout of the K-checker daemon the pipeline replaced,
   written over the first 600 events.  At K = 1 its bytes are the
   pipeline's own, so a daemon resumes from it; at K = 2 it is refused
   with a logged fresh start.  Either way a blind resend of every batch
   converges to the exact report. *)
let test_k_checker_sets () =
  let engine = Engine.So and sampler = Sampler.bernoulli ~rate:0.3 ~seed:5 in
  let trace = sample_trace ~seed:12 ~length:1_200 in
  let expected = expected_report ~engine ~sampler trace in
  let n = 600 in
  let config =
    {
      Ft_core.Detector.nthreads = trace.Trace.nthreads;
      nlocks = trace.Trace.nlocks;
      nlocs = trace.Trace.nlocs;
      clock_size = trace.Trace.nthreads;
      sampler;
    }
  in
  List.iter
    (fun k ->
      with_temp_dir @@ fun dir ->
      let socket = Filename.concat dir "serve.sock" in
      let log = Filename.concat dir "serve.log" in
      let ckpt = Filename.concat dir "ckpt" in
      Unix.mkdir ckpt 0o700;
      Fun.protect ~finally:(fun () -> rm_rf ckpt) @@ fun () ->
      Ft_snapshot.Checkpoint.save (Filename.concat ckpt "set.ftc")
        {
          Ft_snapshot.Checkpoint.meta =
            {
              Ft_snapshot.Checkpoint.engine;
              sampler = Sampler.name sampler;
              nthreads = trace.Trace.nthreads;
              nlocks = trace.Trace.nlocks;
              nlocs = trace.Trace.nlocs;
              clock_size = trace.Trace.nthreads;
              next_index = n;
              byte_offset = -1;
            };
          detector = Routed.k_checker_set (Routed.feed ~n engine ~k config trace) ~n;
        };
      let batches = slices trace ~batch:200 in
      let pid = start_server ~engine ~sampler ~resume_dir:ckpt ~log socket in
      Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
      let fd = Serve.connect (Serve.Unix_path socket) in
      let first, report =
        Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
        let totals =
          List.map (fun (base, sub) -> get_ok "send" (Serve.send_batch fd ~base sub)) batches
        in
        let report = get_ok "report" (Serve.fetch_report fd) in
        get_ok "shutdown" (Serve.shutdown fd);
        (List.hd totals, report)
      in
      reap pid;
      let logged = In_channel.with_open_bin log In_channel.input_all in
      let has sub = contains ~sub logged in
      let what = Printf.sprintf "K = %d: " k in
      if k = 1 then begin
        Alcotest.(check int) (what ^ "resumed at the set's cut") n first;
        Alcotest.(check bool) (what ^ "resume logged") true (has "resumed at event 600")
      end
      else begin
        Alcotest.(check int) (what ^ "started fresh") 200 first;
        Alcotest.(check bool) (what ^ "fresh start logged: " ^ logged) true
          (has "cannot resume from" && has "more than one checker" && has "starting fresh")
      end;
      Alcotest.(check string) (what ^ "report ≡ analyze") expected report)
    [ 1; 2 ]

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
  let pid = start_server ~engine ~sampler socket in
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
    let exposed series = contains ~sub:series prom in
    List.iter
      (fun series -> Alcotest.(check bool) (series ^ " exposed") true (exposed series))
      [
        "# TYPE serve_batches_ingested_total counter";
        "serve_events_ingested_total";
        "serve_batch_ingest_ns_bucket{le=";
        "# TYPE serve_shard_ring_occupancy gauge";
      ];
    (* a failed shard fails fast: there is no supervisor to report on *)
    List.iter
      (fun series -> Alcotest.(check bool) (series ^ " absent") false (exposed series))
      [
        "racedet_shard_restarts";
        "racedet_supervisor_restore_points_total";
        "serve_supervisor_backlog_bytes";
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
  (* the checker gets sampled accesses and view changes, never a sync
     event: each message is a sampled access or the view change before one *)
  let sampled = expected_result.Ft_core.Detector.metrics.Ft_core.Metrics.sampled_accesses in
  let messages = member_int [ "shard_events" ] doc in
  Alcotest.(check bool)
    (Printf.sprintf "sampled %d ≤ checker messages %d ≤ 2 × sampled" sampled messages)
    true
    (sampled <= messages && messages <= 2 * sampled);
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " absent") true (Option.is_none (Json.member key doc)))
    [ "shards"; "restore_points"; "backlog_bytes" ];
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
  let pid = start_server ~engine ~sampler ~metrics_json:path socket in
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
  let pid = start_server ~engine ~sampler socket in
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
(* A failed checker fails fast: there is no restart budget to configure. *)
let test_refuses_max_restarts () =
  with_temp_dir @@ fun dir ->
  let cfg =
    serve_config ~engine:Engine.So ~sampler:Sampler.all
      (Filename.concat dir "serve.sock")
  in
  match Serve.run { cfg with Serve.max_restarts = 8 } with
  | () -> Alcotest.fail "Serve.run accepted max_restarts = 8"
  | exception Invalid_argument _ -> ()

(* A BATCH session is a front and one checker: there is no K to set. *)
let test_refuses_shards () =
  with_temp_dir @@ fun dir ->
  let cfg =
    serve_config ~engine:Engine.So ~sampler:Sampler.all (Filename.concat dir "serve.sock")
  in
  match Serve.run { cfg with Serve.shards = 2 } with
  | () -> Alcotest.fail "Serve.run accepted shards = 2"
  | exception Invalid_argument _ -> ()

let test_refuses_live_listener () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.So and sampler = Sampler.all in
  let socket = Filename.concat dir "serve.sock" in
  let pid = start_server ~engine ~sampler socket in
  Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
  let fd = Serve.connect (Serve.Unix_path socket) in
  Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
  let pid2 = start_server ~engine ~sampler socket in
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
  let pid = start_server ~engine ~sampler ~metrics_json:path socket in
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

(* --- ordered admission -------------------------------------------------------- *)

module Admit = Ft_shard.Admit

(* [0, n) split into random batches, then offered scrambled: shuffled, with
   duplicates and overlapping resends of arbitrary ranges mixed in. *)
let admission_gen =
  let open QCheck.Gen in
  let* n = int_range 1 150 in
  let* cuts = list_size (int_range 0 20) (int_range 0 n) in
  let rec batches = function b :: (e :: _ as rest) -> (b, e - b) :: batches rest | _ -> [] in
  let batches = batches (List.sort_uniq compare (0 :: n :: cuts)) in
  let* dups = list_size (int_range 0 10) (oneofl batches) in
  let* resends =
    list_size (int_range 0 10)
      (let* b = int_range 0 (n - 1) in
       map (fun len -> (b, len)) (int_range 1 (n - b)))
  in
  let* offers = shuffle_l (batches @ dups @ resends) in
  let* max_parked = int_range 1 4 in
  return (n, max_parked, batches, offers)

(* Drive one admitter the way the daemons do: feed on [Due], park on
   [Park], do nothing on [Refuse]; then resend every batch in order, as a
   client finishing its stream would.  A list-based model of the parked
   set pins how far the cursor must have moved after every offer. *)
let drive ~max_parked ~n ~batches offers =
  let a = Admit.create max_parked in
  let fed = ref 0 in
  let model_cursor = ref 0 and model_parked = ref [] in
  let rec model_drain () =
    match List.find_opt (fun (b, _) -> b <= !model_cursor) !model_parked with
    | Some (b, l) ->
      model_parked := List.remove_assoc b !model_parked;
      model_cursor := Stdlib.max !model_cursor (b + l);
      model_drain ()
    | None -> ()
  in
  let offer (base, len) =
    let cursor = Admit.expected a and parked = Admit.parked a in
    let feeder first =
      if base + first <> !fed then
        QCheck.Test.fail_reportf "fed from %d, but %d was next" (base + first) !fed;
      if first >= len then QCheck.Test.fail_reportf "fed an empty suffix of [%d, +%d)" base len;
      fed := base + len
    in
    (match Admit.verdict a base with
    | Admit.Due ->
      if base > cursor then QCheck.Test.fail_reportf "offer at %d due before cursor %d" base cursor;
      Admit.feed a ~base ~len feeder;
      model_cursor := Stdlib.max !model_cursor (base + len);
      model_drain ()
    | Admit.Park ->
      if base <= cursor || parked >= max_parked then
        QCheck.Test.fail_reportf "offer at %d parked (cursor %d, %d parked)" base cursor parked;
      Admit.park a ~base ~len feeder;
      model_parked := (base, len) :: List.remove_assoc base !model_parked
    | Admit.Refuse ->
      if base <= cursor || parked < max_parked then
        QCheck.Test.fail_reportf "offer at %d refused (cursor %d, %d parked)" base cursor parked;
      if Admit.expected a <> cursor || Admit.parked a <> parked then
        QCheck.Test.fail_reportf "a refused offer changed the admitter");
    if Admit.parked a > max_parked then
      QCheck.Test.fail_reportf "%d parked > max_parked %d" (Admit.parked a) max_parked;
    if Admit.expected a <> !fed then
      QCheck.Test.fail_reportf "cursor %d but %d fed" (Admit.expected a) !fed;
    if Admit.expected a <> !model_cursor || Admit.parked a <> List.length !model_parked then
      QCheck.Test.fail_reportf "cursor %d with %d parked, the model says %d with %d"
        (Admit.expected a) (Admit.parked a) !model_cursor (List.length !model_parked)
  in
  List.iter offer offers;
  List.iter offer batches;
  if !fed <> n || Admit.parked a <> 0 then
    QCheck.Test.fail_reportf "stream ended with %d of %d fed, %d parked" !fed n (Admit.parked a)

let admission_property =
  let print (n, max_parked, _, offers) =
    Printf.sprintf "n=%d max_parked=%d offers=[%s]" n max_parked
      (String.concat "; " (List.map (fun (b, l) -> Printf.sprintf "%d+%d" b l) offers))
  in
  QCheck.Test.make ~name:"every index fed once, in order, within the parked bound" ~count:500
    (QCheck.make ~print admission_gen)
    (fun (n, max_parked, batches, offers) ->
      drive ~max_parked ~n ~batches offers;
      (* the CBATCH rule: nothing parks, every offer ahead of the cursor is
         refused *)
      drive ~max_parked:0 ~n ~batches offers;
      true)

(* At the parked-batch limit one more early batch is refused, and resending
   it once the gap fills completes the stream exactly. *)
let test_parked_limit () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.So and sampler = Sampler.bernoulli ~rate:0.3 ~seed:61 in
  let trace = sample_trace ~seed:63 ~length:1_000 in
  let batches = Array.of_list (slices trace ~batch:200) in
  let socket = Filename.concat dir "serve.sock" in
  let pid = start_server ~max_parked:2 ~engine ~sampler socket in
  Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
  let fd = Serve.connect (Serve.Unix_path socket) in
  Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
  let send i =
    let base, sub = batches.(i) in
    Serve.send_batch fd ~base sub
  in
  Alcotest.(check int) "batch 1 parks" 0 (get_ok "batch 1" (send 1));
  Alcotest.(check int) "batch 2 parks" 0 (get_ok "batch 2" (send 2));
  Alcotest.(check (result int string)) "a third early batch is refused"
    (Error "ERR parked batch limit exceeded") (send 3);
  Alcotest.(check int) "batch 0 drains 1 and 2" 600 (get_ok "batch 0" (send 0));
  Alcotest.(check int) "the refused batch, resent" 800 (get_ok "batch 3" (send 3));
  for i = 4 to Array.length batches - 1 do
    ignore (get_ok "rest" (send i))
  done;
  Alcotest.(check string) "REPORT ≡ analyze" (expected_report ~engine ~sampler trace)
    (get_ok "fetch_report" (Serve.fetch_report fd));
  get_ok "shutdown" (Serve.shutdown fd);
  reap pid

(* --- cluster batches -------------------------------------------------------------- *)

module Cmsg = Ft_shard.Cmsg
module Event = Ft_trace.Event
module Detector = Ft_core.Detector
module Metrics = Ft_core.Metrics

let read_reply fd =
  let b = Buffer.create 32 and one = Bytes.create 1 in
  let rec go () =
    match Unix.read fd one 0 1 with
    | 0 -> Alcotest.fail "server closed the connection"
    | _ when Bytes.get one 0 = '\n' -> Buffer.contents b
    | _ ->
      Buffer.add_char b (Bytes.get one 0);
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> go ()
  in
  go ()

(* A CBATCH is checked whole before its first message is applied: a bad
   one answers ERR and leaves SEQ, the state and the daemon as they were,
   so its valid resend counts each access once. *)
let test_cbatch_all_or_nothing () =
  with_temp_dir @@ fun dir ->
  let socket = Filename.concat dir "serve.sock" in
  let pid = start_server ~engine:Engine.So ~sampler:Sampler.all socket in
  Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
  let fd = Serve.connect (Serve.Unix_path socket) in
  Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
  let send msgs =
    let msgs = Array.of_list msgs in
    Serve.send_cbatch_nowait fd ~seq:0
      (Cmsg.encode ~nthreads:2 ~nlocks:1 ~nlocs:4 msgs ~off:0 ~len:(Array.length msgs));
    read_reply fd
  in
  let write_x1 = Cmsg.Acc (0, { Event.thread = 0; op = Event.Write 1 }) in
  List.iter
    (fun (what, msgs) ->
      let line = send msgs in
      Alcotest.(check bool) (what ^ " refused: " ^ line) true (String.starts_with ~prefix:"ERR" line);
      Alcotest.(check int) (what ^ " left SEQ") 0 (get_ok "SEQ" (Serve.fetch_seq fd)))
    [
      ("a write, then a view of thread 9", [ write_x1; Cmsg.View (9, [||], [||]) ]);
      ("a read of x7 in 4 locations", [ Cmsg.Acc (0, { Event.thread = 0; op = Event.Read 7 }) ]);
    ];
  Alcotest.(check string) "the valid resend" "OK 1 0" (send [ write_x1 ]);
  let r = get_ok "RESULT" (Serve.fetch_result fd) in
  Alcotest.(check int) "one write" 1 r.Detector.metrics.Metrics.writes;
  get_ok "shutdown" (Serve.shutdown fd);
  reap pid

(* --- wire fuzz ----------------------------------------------------------------- *)

let test_wire_fuzz () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.So and sampler = Sampler.bernoulli ~rate:0.3 ~seed:71 in
  let trace = sample_trace ~seed:73 ~length:600 in
  let socket = Filename.concat dir "serve.sock" in
  let pid = start_server ~engine ~sampler socket in
  Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
  let fd = Serve.connect (Serve.Unix_path socket) in
  Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
  List.iter
    (fun seed -> Wire_fuzz.run ~seed ~count:200 ~blob_verbs:[ "BATCH"; "CBATCH" ] fd)
    [ 1; 2; 3 ];
  List.iter
    (fun (base, sub) -> ignore (get_ok "send_batch" (Serve.send_batch fd ~base sub)))
    (slices trace ~batch:200);
  Alcotest.(check string) "a valid stream after the fuzz ≡ analyze"
    (expected_report ~engine ~sampler trace)
    (get_ok "fetch_report" (Serve.fetch_report fd));
  get_ok "shutdown" (Serve.shutdown fd);
  reap pid

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
          Alcotest.test_case "parked-batch limit refuses, resend completes" `Quick
            test_parked_limit;
          Alcotest.test_case "wire parser fuzz, then ≡ analyze" `Quick test_wire_fuzz;
          Alcotest.test_case "CBATCH applies entirely or not at all" `Quick
            test_cbatch_all_or_nothing;
          Alcotest.test_case "Serve.run refuses max_restarts = 8" `Quick
            test_refuses_max_restarts;
          Alcotest.test_case "Serve.run refuses shards = 2" `Quick test_refuses_shards;
        ] );
      ("admission", [ QCheck_alcotest.to_alcotest admission_property ]);
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
          Alcotest.test_case "a K = 2 set is refused with a logged fresh start" `Quick
            test_k_checker_sets;
        ] );
    ]
