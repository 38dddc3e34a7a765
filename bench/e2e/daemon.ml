(* The daemon workloads.  Each session starts a fresh daemon by exec'ing
   this benchmark with [--daemon], so the daemon's peak RSS owes nothing to
   the client's memory, and drives it from this one process over one
   connection as a closed loop: the next BATCH goes out only after the
   previous OK, as [racedet emit] and a back-pressured instrumented program
   behave.  Per-layer numbers come from the daemons' own STATS JSON, pulled
   after the REPORT, outside the timed window. *)

module Engine = Ft_core.Engine
module Detector = Ft_core.Detector
module Trace = Ft_trace.Trace
module Tb = Ft_trace.Trace_binary
module Serve = Ft_shard.Serve
module Router = Ft_cluster.Router
module Json = Ft_obs.Json
module Clock = Ft_support.Clock
open Measure

let socket dir = Filename.concat dir "d.sock"
let ready_file dir = Filename.concat dir "ready"
let router_dir dir = Filename.concat dir "run"

(* --- inside the daemon process ------------------------------------------------- *)

let serve_forever (w : Catalog.workload) ~seed dir =
  let sampler = Inproc.sampler_of w ~seed in
  match w.system with
  | Catalog.Analyze -> invalid_arg (w.name ^ " runs no daemon")
  | Catalog.Serve ->
    Serve.run
      {
        Serve.listen = Serve.Unix_path (socket dir);
        engine = w.engine;
        shards = 1;
        sampler;
        clock_size = w.clock_size;
        checkpoint_dir = None;
        checkpoint_every = Serve.default_checkpoint_every;
        resume_dir = None;
        max_parked = Serve.default_max_parked;
        backlog = Serve.default_backlog;
        ready_file = Some (ready_file dir);
        heartbeat_s = None;
        metrics_json = None;
        max_restarts = Serve.default_max_restarts;
        chaos = None;
      }
  | Catalog.Route workers ->
    Router.run
      {
        Router.listen = Serve.Unix_path (socket dir);
        workers;
        worker_shards = 1;
        engine = w.engine;
        sampler;
        clock_size = w.clock_size;
        dir = router_dir dir;
        worker_tcp = false;
        checkpoint = true;
        max_parked = Serve.default_max_parked;
        backlog = Serve.default_backlog;
        ready_file = Some (ready_file dir);
        heartbeat_s = None;
        metrics_json = None;
        max_respawns = Router.default_max_respawns;
        chaos = None;
        window = Router.default_window;
        wal = true;
        resume = false;
        state_every = Router.default_state_every;
      }

(* --- the client side ----------------------------------------------------------- *)

let deadline_s = 20.0

let workers (w : Catalog.workload) = match w.system with Catalog.Route k -> k | _ -> 0

(* The router's workers, by the pid files it keeps for external kills. *)
let worker_pids w dir =
  List.filter_map
    (fun k ->
      let path = Filename.concat (router_dir dir) (Printf.sprintf "worker-%d.pid" k) in
      try Some (int_of_string (String.trim (In_channel.with_open_text path In_channel.input_all)))
      with Sys_error _ | Failure _ -> None)
    (List.init (workers w) Fun.id)

(* A router stopped by SIGTERM stops and reaps its workers itself; any it
   could not are killed after it. *)
let kill_daemon w dir pid =
  let workers = worker_pids w dir in
  ignore (stop pid);
  List.iter (fun p -> kill_quietly p Sys.sigkill) workers

let log_file dir = Filename.concat dir "daemon.log"

(* What a daemon that went wrong had to say. *)
let dump_log dir =
  match In_channel.with_open_bin (log_file dir) In_channel.input_all with
  | text -> prerr_string text
  | exception Sys_error _ -> ()

(* Fork+exec the daemon and wait for its ready file: the set-up time.  Its
   output goes to a log that only a failed session shows. *)
let spawn ~exe (w : Catalog.workload) ~seed dir =
  Unix.mkdir dir 0o700;
  let log = Unix.openfile (log_file dir) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o600 in
  let t0 = now () in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close log) @@ fun () ->
    Unix.create_process exe
      [| exe; "--daemon"; w.name; "--seed"; string_of_int seed; "--dir"; dir |]
      Unix.stdin log log
  in
  let until = Clock.now_s () +. deadline_s in
  let rec await () =
    if not (Sys.file_exists (ready_file dir)) then
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when Clock.now_s () < until ->
        Unix.sleepf 0.0002;
        await ()
      | 0, _ ->
        kill_daemon w dir pid;
        dump_log dir;
        failwith (w.name ^ ": daemon not ready in time")
      | _ ->
        dump_log dir;
        failwith (w.name ^ ": daemon exited before it was ready")
  in
  await ();
  (pid, secs_between t0 (now ()))

let ok_or_fail = Inproc.ok_or_fail

let fetch_stats fd =
  ok_or_fail "STATS JSON"
    (Result.bind (Serve.fetch_stats ~deadline_s ~format:`Json fd) Json.parse)

(* Each worker's STATS, at the address its newest generation published. *)
let worker_stats w dir =
  let files = if workers w = 0 then [||] else Sys.readdir (router_dir dir) in
  List.init (workers w) (fun k ->
      let prefix = Printf.sprintf "worker-%d-g" k in
      let newest =
        Array.fold_left
          (fun best f ->
            if String.starts_with ~prefix f && Filename.check_suffix f ".addr" then
              match best with Some b when String.compare b f >= 0 -> best | _ -> Some f
            else best)
          None files
      in
      match newest with
      | None -> failwith (Printf.sprintf "worker %d published no address" k)
      | Some f ->
        let addr = ok_or_fail f (Serve.read_addr_file (Filename.concat (router_dir dir) f)) in
        let fd = Serve.connect ~deadline_s addr in
        Fun.protect ~finally:(fun () -> Serve.close fd) (fun () -> fetch_stats fd))

let num path j =
  let rec go j = function
    | [] -> Option.value (Json.to_float j) ~default:0.0
    | k :: rest -> ( match Json.member k j with Some v -> go v rest | None -> 0.0)
  in
  go j path

let tel key j = num [ "telemetry"; key ] j
let hist key field j = num [ "telemetry"; key; field ] j
let sum_over js f = List.fold_left (fun acc j -> acc +. f j) 0.0 js
let max_over js f = List.fold_left (fun acc j -> Float.max acc (f j)) 0.0 js

(* The daemon-only layer metrics of one session; absent series read 0. *)
let layers (w : Catalog.workload) ~events ~wall_s ~daemon ~workers =
  let ev = float_of_int events and share ns = ns /. 1e9 /. wall_s in
  let sharded = match w.system with Catalog.Route _ -> workers | _ -> [ daemon ] in
  let routed =
    List.init (List.length workers) (fun k ->
        tel (Printf.sprintf "router_worker_messages_total{worker=\"%d\"}" k) daemon)
  in
  let total = List.fold_left ( +. ) 0.0 routed in
  let skew =
    match routed with
    | [] -> 0.0
    | _ -> List.fold_left Float.max 0.0 routed /. (total /. float_of_int (List.length routed))
  in
  [
    ("serve.ingest_share", share (hist "serve_batch_ingest_ns" "sum" daemon));
    ("sharded.events", sum_over sharded (num [ "events" ]));
    ("sharded.restarts", sum_over sharded (tel "racedet_shard_restarts"));
    ("router.ingest_share", share (hist "router_batch_ingest_ns" "sum" daemon));
    ("router.marks_per_event", tel "router_marks_total" daemon /. ev);
    ("router.window_occupancy_max", hist "router_window_occupancy" "max" daemon);
    ("router.respawns", tel "router_worker_respawns_total" daemon);
    ("router.send_failures", tel "router_send_failures_total" daemon);
    ("cmsg.messages_per_event", total /. ev);
    ("cmsg.worker_skew", skew);
    ("wal.appends", tel "router_wal_appends_total" daemon);
    ("wal.bytes_per_event", tel "router_wal_bytes_total" daemon /. ev);
    ("wal.fsync_share", share (hist "router_wal_fsync_ns" "sum" daemon));
    ( "worker.ingest_share_max",
      share (max_over workers (hist "serve_batch_ingest_ns" "sum")) );
    ("worker.checkpoints", sum_over workers (tel "serve_checkpoints_total"));
  ]

type session = {
  setup_s : float;  (** exec until the ready file appeared *)
  wall_s : float;
  starts : int64 array;  (** when each BATCH was sent *)
  lat : float array;  (** seconds from each BATCH to its OK *)
  rss_mb : float;
  layers : (string * float) list;
  stats : Json.t;
}

(* One daemon, one connection, the whole trace; [None] when a batch failed. *)
let session s ~exe w ~seed ~dir ~slices ~events ~expected ~(oracle : Detector.result) =
  let pid, setup_s = spawn ~exe w ~seed dir in
  let finished = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !finished then begin
        kill_daemon w dir pid;
        dump_log dir
      end;
      rm_rf dir)
  @@ fun () ->
  let fd = Serve.connect ~deadline_s (Serve.Unix_path (socket dir)) in
  let nb = Array.length slices in
  let starts = Array.make nb 0L and lat = Array.make nb 0.0 in
  let rec send i =
    if i = nb then Ok ()
    else begin
      let base, sub = slices.(i) in
      let t0 = now () in
      match Serve.send_batch ~deadline_s fd ~base sub with
      | Ok _ ->
        starts.(i) <- t0;
        lat.(i) <- secs_between t0 (now ());
        send (i + 1)
      | Error msg -> Error (i, msg)
    end
  in
  let t_first = now () in
  let sent = send 0 in
  let wall_s = secs_between t_first (now ()) in
  match sent with
  | Error (i, msg) ->
    tally s ~attempted:nb ~failed:(nb - i) (Printf.sprintf "batch %d: %s" i msg);
    Serve.close fd;
    None
  | Ok () ->
    let report = ok_or_fail "REPORT" (Serve.fetch_report ~deadline_s fd) in
    (match Oracle.same_report ~expected ~actual:report with
    | Ok () -> tally s ~attempted:nb ~failed:0 ""
    | Error msg -> tally s ~attempted:nb ~failed:nb ("REPORT: " ^ msg));
    let daemon = fetch_stats fd in
    let workers = worker_stats w dir in
    (match (w.system, Json.member "metrics" daemon) with
    | Catalog.Serve, Some m when m <> Serve.metrics_json_value oracle.Detector.metrics ->
      problem s "STATS metrics differ from the in-process run's"
    | _ -> ());
    let pids = pid :: worker_pids w dir in
    let rss_mb = List.fold_left (fun acc p -> acc +. peak_rss_mb p) 0.0 pids in
    ignore (Serve.shutdown ~deadline_s fd);
    Serve.close fd;
    ignore (reap pid);
    finished := true;
    Some
      {
        setup_s;
        wall_s;
        starts;
        lat;
        rss_mb;
        layers = layers w ~events ~wall_s ~daemon ~workers;
        stats = Json.Obj [ ("daemon", daemon); ("workers", Json.Arr workers) ];
      }

(* A daemon started and shut down with no traffic: one more set-up sample. *)
let setup_only ~exe w ~seed ~dir =
  let pid, setup = spawn ~exe w ~seed dir in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (try
     let fd = Serve.connect ~deadline_s (Serve.Unix_path (socket dir)) in
     ignore (Serve.shutdown ~deadline_s fd);
     Serve.close fd;
     ignore (reap pid)
   with e ->
     kill_daemon w dir pid;
     dump_log dir;
     raise e);
  setup

let slices trace =
  let n = Trace.length trace and b = Catalog.batch_events in
  Array.init ((n + b - 1) / b) (fun k ->
      let base = k * b in
      ( base,
        Trace.make ~nthreads:trace.Trace.nthreads ~nlocks:trace.Trace.nlocks
          ~nlocs:trace.Trace.nlocs
          (Array.init (Stdlib.min b (n - base)) (fun i -> Trace.get trace (base + i))) ))

let extra_setups = 6

(* Sessions until [budget_s] would be overrun (at least [min_reps]); every
   session replays the same trace, so sessions differ only in timing.  Each
   session is bracketed by ET replays of its trace, eight before and eight
   after (one takes only ~10 ms, so a few would jitter), and its ratios
   divide by their median. *)
let run s (w : Catalog.workload) ~exe ~seed ~ftb ~budget_s ~min_reps ~traced =
  let sampler = Inproc.sampler_of w ~seed in
  let trace = ok_or_fail ftb (Tb.of_file ftb) in
  let events = Trace.length trace in
  let oracle = Engine.run w.engine ~sampler ?clock_size:w.clock_size trace in
  let expected = Inproc.report ~events oracle in
  let slices = slices trace in
  let et () = Array.init 8 (fun _ -> snd (timed (fun () -> Detector.replay_instrumented trace))) in
  let t0 = now () in
  let rec go i acc =
    let elapsed = Clock.elapsed_s ~since:t0 in
    if i >= min_reps && elapsed +. (elapsed /. float_of_int i) > budget_s then List.rev acc
    else
      let dir = Printf.sprintf "s%d" i in
      let before = et () in
      match session s ~exe w ~seed ~dir ~slices ~events ~expected ~oracle with
      | Some r -> go (i + 1) ((r, Stats.median before, Stats.median (Array.append before (et ()))) :: acc)
      | None -> List.rev acc
  in
  let runs = go 0 [] in
  if runs = [] then failwith (w.name ^ ": no session completed");
  let sessions = List.map (fun (r, _, et) -> (r, et)) runs in
  (* set-up samples pair with the ET replays just before them *)
  let setups =
    List.map (fun (r, before, _) -> (r.setup_s, before)) runs
    @ List.init (if min_reps > 1 then extra_setups else 0) (fun i ->
          let before = Stats.median (et ()) in
          (setup_only ~exe w ~seed ~dir:(Printf.sprintf "setup%d" i), before))
  in
  let n = List.length sessions and per_event = float_of_int events in
  let med f = Stats.median (Array.of_list (List.map f sessions)) in
  let et_batch et = et *. float_of_int Catalog.batch_events /. per_event in
  (* batch latencies pool over sessions: one is too short for a p99 with ten
     samples beyond it *)
  let pooled p scale =
    (Stats.nearest_rank
       (Array.concat (List.map (fun (r, et) -> Array.map (fun l -> l /. scale et) r.lat) sessions))
       p)
      .Stats.value
  in
  metric s "slowdown" (med (fun (r, et) -> r.wall_s /. et)) ~n;
  metric s "ao_ratio" (med (fun (r, et) -> (r.wall_s -. et) /. et)) ~n;
  metric s "batch_p50_x" (pooled 50.0 et_batch) ~n;
  metric s "batch_p99_x" (pooled 99.0 et_batch) ~n;
  let setup_ratio = Stats.median (Array.of_list (List.map (fun (t, et) -> t /. et) setups)) in
  metric s "setup_s" (Catalog.at_reference_speed ~events setup_ratio) ~n:(List.length setups);
  metric s "peak_rss_mb" (med (fun (r, _) -> r.rss_mb)) ~n;
  metric s "events_per_s" (per_event /. med (fun (r, _) -> r.wall_s)) ~n;
  metric s "ao_ns_per_event" (med (fun (r, et) -> r.wall_s -. et) /. per_event *. 1e9) ~n;
  metric s "batch_ms_p50" (pooled 50.0 (fun _ -> 1e-3)) ~n;
  metric s "batch_ms_p99" (pooled 99.0 (fun _ -> 1e-3)) ~n;
  metric s "setup_raw_s" (Stats.median (Array.of_list (List.map fst setups))) ~n:(List.length setups);
  metric s "client.late_early_ratio" (med (fun (r, _) -> Inproc.late_early_ratio r.lat)) ~n;
  List.iter (fun name -> metric s name (med (fun (r, _) -> List.assoc name r.layers)) ~n)
    Catalog.daemon_layers;
  if traced then begin
    List.iteri
      (fun k (r, _) ->
        let root = fresh_span_id s in
        Array.iteri
          (fun i st ->
            span s ~parent:root "client.batch" ~start_ns:st
              ~end_ns:(Int64.add st (Int64.of_float (r.lat.(i) *. 1e9))))
          r.starts;
        span s ~id:root (Printf.sprintf "session.%d" k) ~start_ns:r.starts.(0)
          ~end_ns:(Int64.add r.starts.(0) (Int64.of_float (r.wall_s *. 1e9))))
      sessions;
    Inproc.attribute s w ~sampler ~ftb ~trace ~oracle ~min_reps ~budget_s
  end;
  (fst (List.nth sessions (n - 1))).stats
