(* racedet — command-line front end for the FreshTrack library.

   Subcommands:
     generate     render a workload to a trace file (textual or .ftb binary)
     analyze      run a detection engine over a trace file
     compare      run every engine over a trace and tabulate
     report       describe a trace (sync mix, contention, hot locations)
     oracle       brute-force ground truth for small traces
     experiments  regenerate the paper's tables and figures
     list         show available workloads and engines *)

module Trace = Ft_trace.Trace
module Trace_format = Ft_trace.Trace_format
module Trace_gen = Ft_trace.Trace_gen
module Engine = Ft_core.Engine
module Detector = Ft_core.Detector
module Sampler = Ft_core.Sampler
module Metrics = Ft_core.Metrics
module Race = Ft_core.Race
module Db_sim = Ft_workloads.Db_sim
module Classic = Ft_workloads.Classic
module Serve = Ft_shard.Serve
module Router = Ft_cluster.Router
module Loadgen = Ft_cluster.Loadgen
module Clock = Ft_support.Clock
module Json = Ft_obs.Json
module Fault = Ft_fault.Fault

open Cmdliner

(* --- shared arguments --------------------------------------------------- *)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed (determinism knob).")

let rate_arg =
  Arg.(
    value
    & opt float 0.03
    & info [ "rate" ] ~docv:"RATE" ~doc:"Sampling rate in [0,1]; 1 samples every access.")

(* Generated from the registry so the help text can never drift from
   what [Engine.of_name] actually accepts. *)
let engine_doc =
  "Engine: " ^ String.concat ", " (List.map Engine.name Engine.all) ^ "."

let clock_size_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "clock-size" ]
        ~docv:"N"
        ~doc:
          "Vector-clock width (default: thread count). Use 256 to mimic \
           ThreadSanitizer v3's fixed clocks.")

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path to listen on.")

let tcp_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT"
        ~doc:
          "TCP address to listen on instead of a Unix-domain socket. Port 0 \
           binds an ephemeral port; combine with --ready-file to learn it.")

let backlog_arg =
  Arg.(
    value
    & opt int Serve.default_backlog
    & info [ "backlog" ] ~docv:"N" ~doc:"listen(2) backlog.")

let ready_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "ready-file" ] ~docv:"FILE"
        ~doc:
          "Atomically publish the actual listen address (unix:PATH or \
           tcp:HOST:PORT) to FILE once bound — how scripts learn an \
           ephemeral TCP port.")

(* exactly one of --socket / --tcp names the listen (or connect) address *)
let resolve_addr ~socket ~tcp =
  match (socket, tcp) with
  | Some path, None -> Ok (Serve.Unix_path path)
  | None, Some hostport -> Serve.tcp_of_string hostport
  | Some _, Some _ -> Error "--socket and --tcp are mutually exclusive"
  | None, None -> Error "one of --socket or --tcp is required"

(* --connect additionally accepts the ready-file syntax (unix:PATH /
   tcp:HOST:PORT); a bare string stays a unix socket path *)
let resolve_connect_addr ~connect ~tcp =
  match (connect, tcp) with
  | Some s, None -> Serve.addr_of_string s
  | None, Some hostport -> Serve.tcp_of_string hostport
  | Some _, Some _ -> Error "--connect and --tcp are mutually exclusive"
  | None, None -> Error "one of --connect or --tcp is required"

let chaos_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chaos" ] ~docv:"SEED[:SPEC]"
        ~doc:
          "Arm the deterministic fault-injection layer with this seed. SPEC is \
           comma-separated options: p=FLOAT (per-hit fire probability, default \
           0.01), points=a+b (restrict to named injection points), \
           kinds=exn+delay+partial_io+torn_write, max=N (stop after N faults), \
           delay=FLOAT (base Delay duration). Faults are a pure function of the \
           seed, so any chaos run replays exactly. A fault that kills a checker \
           fails the run fast; a run that completes, or a serve daemon resumed \
           from its checkpoint, reports byte-identically to a fault-free run — \
           that invariant is what the chaos suite checks.")

(* Arm --chaos around an action; the summary goes to stderr so stdout stays
   byte-identical to a fault-free run (the chaos oracle diffs it). *)
let with_chaos chaos k =
  match chaos with
  | None -> k ()
  | Some spec -> (
    match Fault.parse spec with
    | Error msg ->
      prerr_endline ("racedet: " ^ msg);
      1
    | Ok c ->
      Fault.arm c;
      let code = k () in
      Printf.eprintf "racedet: chaos summary: %d faults fired over %d checks\n%!"
        (Fault.fired ()) (Fault.checks ());
      code)

(* binary (.ftb) or textual, by extension *)
let load_trace file =
  let parsed =
    if Filename.check_suffix file ".ftb" then Ft_trace.Trace_binary.of_file file
    else Trace_format.parse_file file
  in
  match parsed with
  | Error _ as e -> e
  | Ok trace -> (
    match Trace.well_formed trace with
    | Error msg -> Error ("ill-formed trace: " ^ msg)
    | Ok () -> Ok trace)


(* --- generate ------------------------------------------------------------ *)

let workload_doc =
  "Workload to render: db:NAME (BenchBase profile), classic:NAME (RAPID-suite benchmark), or \
   random."

let generate_cmd =
  let workload =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc:workload_doc)
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output file (default: stdout).")
  in
  let events =
    Arg.(value & opt int 100_000 & info [ "events" ] ~docv:"N"
           ~doc:"Target event count (db and random workloads).")
  in
  let scale =
    Arg.(value & opt int 10 & info [ "scale" ] ~docv:"K" ~doc:"Scale factor (classic workloads).")
  in
  let run workload output events scale seed =
    let trace =
      match String.split_on_char ':' workload with
      | [ "db"; name ] -> (
        match Db_sim.profile name with
        | Some p -> Ok (Db_sim.generate p ~seed ~target_events:events)
        | None -> Error (Printf.sprintf "unknown db profile %S (try: racedet list)" name))
      | [ "classic"; name ] -> (
        match Classic.find name with
        | Some b -> Ok (b.Classic.generate ~seed ~scale)
        | None -> Error (Printf.sprintf "unknown classic benchmark %S (try: racedet list)" name))
      | [ "random" ] ->
        let prng = Ft_support.Prng.create ~seed in
        Ok (Trace_gen.random prng { Trace_gen.default with Trace_gen.length = events })
      | _ -> Error (Printf.sprintf "cannot parse workload %S" workload)
    in
    match trace with
    | Error msg ->
      prerr_endline ("racedet: " ^ msg);
      1
    | Ok trace -> (
      match output with
      | Some path ->
        if Filename.check_suffix path ".ftb" then Ft_trace.Trace_binary.to_file path trace
        else Trace_format.to_file path trace;
        Printf.printf "wrote %d events to %s\n" (Trace.length trace) path;
        0
      | None ->
        print_string (Trace_format.to_string trace);
        0)
  in
  let term = Term.(const run $ workload $ output $ events $ scale $ seed_arg) in
  Cmd.v (Cmd.info "generate" ~doc:"Render a workload to a textual trace.") term

(* --- analyze ------------------------------------------------------------- *)

let analyze_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc:"Trace file to analyse.")
  in
  let engine =
    Arg.(value & opt string "so" & info [ "engine" ] ~docv:"ENGINE" ~doc:engine_doc)
  in
  let show_races =
    Arg.(value & flag & info [ "races" ] ~doc:"Print every race declaration.")
  in
  let checkpoint =
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE"
           ~doc:"Write a resumable .ftc checkpoint to FILE every \
                 $(b,--checkpoint-every) events.")
  in
  let checkpoint_every =
    Arg.(value & opt int 10_000 & info [ "checkpoint-every" ] ~docv:"N"
           ~doc:"Checkpoint interval in events (with --checkpoint).")
  in
  let resume =
    Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE"
           ~doc:"Resume from a .ftc checkpoint written by an earlier run with the same \
                 engine, sampler and trace. A checkpoint that fails to load or \
                 validate is reported and the analysis replays from the start.")
  in
  let metrics_json =
    Arg.(value & opt (some string) None & info [ "metrics-json" ] ~docv:"FILE"
           ~doc:"Write the run's full work counters and wall-clock timing as a JSON \
                 document to FILE (stdout stays byte-identical).")
  in
  let write_metrics_json ~path ~file ~engine ~sampler ~events ~wall_s
      ~(result : Detector.result) =
    let doc =
      Json.Obj
        [
          ("tool", Json.Str "racedet analyze");
          ("trace", Json.Str file);
          ("engine", Json.Str result.Detector.engine);
          ("engine_requested", Json.Str (Engine.name engine));
          ("sampler", Json.Str (Sampler.name sampler));
          ("events", Json.Int events);
          ("wall_s", Json.Float wall_s);
          ("races", Json.Int (List.length result.Detector.races));
          ( "racy_locations",
            Json.Arr (List.map (fun x -> Json.Int x) (Detector.racy_locations result)) );
          ("metrics", Serve.metrics_json_value result.Detector.metrics);
        ]
    in
    let oc = open_out path in
    output_string oc (Json.to_string_pretty doc);
    close_out oc
  in
  let print_result ~events ~(result : Detector.result) show_races =
    (* the daemon's REPORT payload and this output share one renderer, so
       serve-vs-analyze diffs compare bytes *)
    print_string (Serve.report_text ~events result);
    if show_races then
      List.iter (fun race -> Format.printf "%a@." Race.pp race) result.Detector.races;
    if Detector.racy_locations result = [] then 0 else 2
  in
  (* the directory a --checkpoint file would land in, if it does not exist:
     refused before any event is analysed *)
  let missing_dir = function
    | None -> None
    | Some path ->
      let dir = Filename.dirname path in
      if (try Sys.is_directory dir with Sys_error _ -> false) then None else Some dir
  in
  let run file engine rate seed clock_size show_races checkpoint checkpoint_every resume
      metrics_json chaos =
    match (Engine.of_name engine, missing_dir checkpoint) with
    | None, _ ->
      prerr_endline ("racedet: unknown engine " ^ engine);
      1
    | Some _, Some dir ->
      prerr_endline ("racedet: checkpoint directory " ^ dir ^ " does not exist");
      1
    | Some id, None -> (
      with_chaos chaos @@ fun () ->
      let sampler = if rate >= 1.0 then Sampler.all else Sampler.bernoulli ~rate ~seed in
      let t0 = Clock.now_ns () in
      (* .ftb traces stream (and record byte offsets for seeking); textual
         traces are parsed, validated and replayed in memory *)
      let outcome =
        if Filename.check_suffix file ".ftb" then
          Ft_snapshot.Runner.analyze_file ~engine:id ~sampler ?clock_size ?checkpoint
            ~checkpoint_every ?resume file
        else
          Result.bind (load_trace file)
            (Ft_snapshot.Runner.analyze_trace ~engine:id ~sampler ?clock_size ?checkpoint
               ~checkpoint_every ?resume)
      in
      match outcome with
      | Error msg ->
        prerr_endline ("racedet: " ^ msg);
        1
      | Ok { Ft_snapshot.Runner.result; resumed_at; _ } ->
        (* stderr, so stdout stays byte-identical to a straight-through run *)
        (match resumed_at with
        | Some k -> Printf.eprintf "resumed at event : %d\n%!" k
        | None -> ());
        let events = result.Detector.metrics.Metrics.events in
        (match metrics_json with
        | Some path ->
          write_metrics_json ~path ~file ~engine:id ~sampler ~events
            ~wall_s:(Clock.elapsed_s ~since:t0) ~result
        | None -> ());
        print_result ~events ~result show_races)
  in
  let term =
    Term.(
      const run $ file $ engine $ rate_arg $ seed_arg $ clock_size_arg $ show_races
      $ checkpoint $ checkpoint_every $ resume $ metrics_json $ chaos_arg)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Run a race-detection engine over a trace file (exit 2 if races found).")
    term

(* --- serve ----------------------------------------------------------------- *)

let serve_cmd =
  let engine =
    Arg.(value & opt string "so" & info [ "engine" ] ~docv:"ENGINE" ~doc:engine_doc)
  in
  let checkpoint =
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"DIR"
           ~doc:"Persist the checkpoint set (DIR/set.ftc, front and checker in \
                 one atomic file) after every ingested batch and on shutdown.")
  in
  let resume =
    Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"DIR"
           ~doc:"Resume from the checkpoint set in DIR. A missing or inconsistent \
                 set is reported and the server starts fresh, which is still exact \
                 because clients resend idempotently.")
  in
  let heartbeat =
    Arg.(value & opt float 10.0 & info [ "heartbeat" ] ~docv:"SECONDS"
           ~doc:"Period of the one-line telemetry heartbeat on stderr (0 disables).")
  in
  let metrics_json =
    Arg.(value & opt (some string) None & info [ "metrics-json" ] ~docv:"FILE"
           ~doc:"On shutdown, write the final telemetry and merged work counters \
                 (the $(b,STATS JSON) payload) to FILE.")
  in
  let run socket tcp backlog ready_file engine rate seed clock_size checkpoint resume
      heartbeat metrics_json chaos =
    match Engine.of_name engine with
    | None ->
      prerr_endline ("racedet: unknown engine " ^ engine);
      1
    | Some id -> (
      let chaos_cfg =
        match chaos with
        | None -> Ok None
        | Some spec -> Result.map Option.some (Fault.parse spec)
      in
      match (chaos_cfg, resolve_addr ~socket ~tcp) with
      | Error msg, _ | _, Error msg ->
        prerr_endline ("racedet: " ^ msg);
        1
      | Ok chaos, Ok listen ->
        let sampler = if rate >= 1.0 then Sampler.all else Sampler.bernoulli ~rate ~seed in
        (try
           Serve.run
             {
               Serve.listen;
               engine = id;
               shards = 1;
               sampler;
               clock_size;
               checkpoint_dir = checkpoint;
               checkpoint_every = Serve.default_checkpoint_every;
               resume_dir = resume;
               max_parked = Serve.default_max_parked;
               backlog;
               ready_file;
               heartbeat_s = (if heartbeat > 0.0 then Some heartbeat else None);
               metrics_json;
               max_restarts = Serve.default_max_restarts;
               chaos;
             };
           0
         with
        | Unix.Unix_error (err, fn, arg) ->
          Printf.eprintf "racedet: serve: %s(%s): %s\n" fn arg (Unix.error_message err);
          1
        | Failure msg ->
          prerr_endline ("racedet: serve: " ^ msg);
          1))
  in
  let term =
    Term.(
      const run $ socket_arg $ tcp_arg $ backlog_arg $ ready_file_arg $ engine $ rate_arg
      $ seed_arg $ clock_size_arg $ checkpoint $ resume $ heartbeat $ metrics_json
      $ chaos_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Ingestion daemon: accept .ftb event batches over a Unix-domain socket \
          or TCP ($(b,--tcp)), feed a pipelined online detector (a front and one \
          checker domain), answer REPORT queries. Runs until a client sends \
          SHUTDOWN, SIGTERM or SIGINT (all three drain, write a final checkpoint \
          and dump --metrics-json before exiting).")
    term

(* --- emit ------------------------------------------------------------------ *)

let emit_cmd =
  let connect =
    Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"PATH"
           ~doc:"Unix-domain socket of a running $(b,racedet serve) or \
                 $(b,racedet route).")
  in
  let tcp =
    Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT"
           ~doc:"TCP address of a running $(b,racedet serve) or \
                 $(b,racedet route) (alternative to $(b,--connect)).")
  in
  let file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"TRACE"
           ~doc:"Trace file to stream (omit to only query/shut down the server).")
  in
  let batch =
    Arg.(value & opt int 10_000 & info [ "batch" ] ~docv:"N"
           ~doc:"Events per batch.")
  in
  let stride =
    Arg.(value & opt int 1 & info [ "stride" ] ~docv:"S"
           ~doc:"Send only every S-th batch (split one trace across S clients).")
  in
  let offset =
    Arg.(value & opt int 0 & info [ "offset" ] ~docv:"I"
           ~doc:"This client's batch residue modulo $(b,--stride).")
  in
  let report =
    Arg.(value & flag & info [ "report" ]
           ~doc:"Fetch and print the server's analysis report (exit 2 if it shows \
                 racy locations).")
  in
  let shutdown_flag =
    Arg.(value & flag & info [ "shutdown" ]
           ~doc:"Ask the server to checkpoint and exit after this client is done.")
  in
  let stats_flag =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Fetch and print the server's telemetry as Prometheus text.")
  in
  let stats_json_flag =
    Arg.(value & flag & info [ "stats-json" ]
           ~doc:"Fetch and print the server's telemetry as a JSON document.")
  in
  let resize =
    Arg.(value & opt (some int) None & info [ "resize" ] ~docv:"DELTA"
           ~doc:"After streaming, ask a $(b,racedet route) server to resize its \
                 worker ring by DELTA (+1 or -1).")
  in
  let run connect tcp file batch stride offset report stats stats_json shutdown_flag
      resize seed chaos =
    if batch < 1 then begin
      prerr_endline "racedet: --batch must be positive";
      1
    end
    else if stride < 1 then begin
      prerr_endline "racedet: --stride must be positive";
      1
    end
    else begin
      let exception Fail of string in
      with_chaos chaos @@ fun () ->
      match resolve_connect_addr ~connect ~tcp with
      | Error msg ->
        prerr_endline ("racedet: " ^ msg);
        1
      | Ok addr -> (
      let name = Serve.addr_to_string addr in
      match Serve.connect_stats ~seed addr with
      | exception Unix.Unix_error (err, fn, _) ->
        Printf.eprintf "racedet: cannot connect to %s: %s: %s\n" name fn
          (Unix.error_message err);
        1
      | fd0, attempts0 ->
        if attempts0 > 1 then
          Printf.eprintf "racedet: connected to %s after %d attempts\n%!" name attempts0;
        let fd = ref fd0 in
        let attempts = ref attempts0 in
        let reconnects = ref 0 in
        (* A dead connection mid-stream (EOF, reset or timeout: a router
           restarting after a crash, say) is the same situation as a worker
           respawn seen one level down: reconnect with the same capped
           backoff — connect_stats already retries ECONNREFUSED/ENOENT —
           and blind-resend, which the server dedups by base index. *)
        let reconnect why =
          Serve.close !fd;
          incr reconnects;
          Printf.eprintf "racedet: connection to %s lost (%s); reconnecting\n%!" name why;
          match Serve.connect_stats ~seed:(seed + !reconnects) addr with
          | nfd, a ->
            fd := nfd;
            attempts := !attempts + a
          | exception Unix.Unix_error (err, fn, _) ->
            raise
              (Fail
                 (Printf.sprintf "cannot reconnect to %s: %s: %s" name fn
                    (Unix.error_message err)))
        in
        let code = ref 0 in
        (try
           (match file with
           | None -> ()
           | Some file -> (
             match load_trace file with
             | Error msg -> raise (Fail msg)
             | Ok trace ->
               let n = Trace.length trace in
               let nbatches = (n + batch - 1) / batch in
               for b = 0 to nbatches - 1 do
                 if b mod stride = offset mod stride then begin
                   let base = b * batch in
                   let len = min batch (n - base) in
                   let sub =
                     Trace.make ~nthreads:trace.Trace.nthreads
                       ~nlocks:trace.Trace.nlocks ~nlocs:trace.Trace.nlocs
                       (Array.init len (fun i -> Trace.get trace (base + i)))
                   in
                   let rec send tries =
                     match Serve.send_batch !fd ~base sub with
                     | Ok total ->
                       Printf.eprintf "batch %d (base %d): server has %d events\n%!" b
                         base total
                     | Error msg ->
                       (* an ERR line is the server's answer (a daemon that
                          failed fast, a refused batch): give up at once.
                          Anything else is a lost connection. *)
                       if tries >= 3 || String.starts_with ~prefix:"ERR" msg then
                         raise (Fail (Printf.sprintf "batch %d: %s" b msg))
                       else begin
                         reconnect msg;
                         send (tries + 1)
                       end
                   in
                   send 0
                 end
               done));
           (match resize with
           | None -> ()
           | Some delta -> (
             match Serve.resize !fd delta with
             | Ok k -> Printf.eprintf "racedet: cluster resized to %d worker(s)\n%!" k
             | Error msg -> raise (Fail ("resize: " ^ msg))));
           if stats then begin
             match Serve.fetch_stats !fd ~format:`Prometheus with
             | Error msg -> raise (Fail ("stats: " ^ msg))
             | Ok text ->
               (* client-side backoff telemetry rides along as a Prometheus
                  comment: the server cannot know how hard we had to try *)
               Printf.printf "# emit_connect_attempts %d\n" !attempts;
               Printf.printf "# emit_reconnects %d\n" !reconnects;
               print_string text
           end;
           if stats_json then begin
             match Serve.fetch_stats !fd ~format:`Json with
             | Error msg -> raise (Fail ("stats: " ^ msg))
             | Ok text -> print_string text
           end;
           if report then begin
             match Serve.fetch_report !fd with
             | Error msg -> raise (Fail msg)
             | Ok text ->
               print_string text;
               (* mirror analyze's exit code from the shared report renderer *)
               let clean = "racy locations  : 0\n" in
               let has_sub hay needle =
                 let nh = String.length hay and nn = String.length needle in
                 let rec go i =
                   i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
                 in
                 go 0
               in
               if not (has_sub text clean) then code := 2
           end;
           if shutdown_flag then
             match Serve.shutdown !fd with
             | Ok () -> ()
             | Error msg -> raise (Fail ("shutdown: " ^ msg))
         with
        | Fail msg ->
          prerr_endline ("racedet: " ^ msg);
          code := 1
        | Unix.Unix_error (err, fn, _) ->
          Printf.eprintf "racedet: %s: %s\n" fn (Unix.error_message err);
          code := 1);
        Serve.close !fd;
        !code)
    end
  in
  let term =
    Term.(
      const run $ connect $ tcp $ file $ batch $ stride $ offset $ report $ stats_flag
      $ stats_json_flag $ shutdown_flag $ resize $ seed_arg $ chaos_arg)
  in
  Cmd.v
    (Cmd.info "emit"
       ~doc:
         "Stream a trace to a $(b,racedet serve) or $(b,racedet route) daemon in \
          indexed batches; optionally fetch the report and/or shut the server \
          down.")
    term

(* --- route ----------------------------------------------------------------- *)

let route_cmd =
  let engine =
    Arg.(value & opt string "so" & info [ "engine" ] ~docv:"ENGINE" ~doc:engine_doc)
  in
  let workers =
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"K"
           ~doc:"Worker processes to partition locations across (consistent \
                 hashing). Reports stay byte-identical to a single-process \
                 analyze for every K.")
  in
  let dir =
    Arg.(required & opt (some string) None & info [ "dir" ] ~docv:"DIR"
           ~doc:"Run directory: worker sockets, ready/pid files and per-worker \
                 checkpoint directories live here (created if missing).")
  in
  let worker_tcp =
    Arg.(value & flag & info [ "worker-tcp" ]
           ~doc:"Workers listen on 127.0.0.1 ephemeral TCP ports instead of \
                 Unix-domain sockets in --dir.")
  in
  let metrics_json =
    Arg.(value & opt (some string) None & info [ "metrics-json" ] ~docv:"FILE"
           ~doc:"On shutdown, write the router's telemetry JSON to FILE.")
  in
  let max_respawns =
    Arg.(value & opt int Router.default_max_respawns & info [ "max-respawns" ] ~docv:"N"
           ~doc:"Per-worker respawn budget; past it the router fails fast with a \
                 non-zero exit.")
  in
  let window =
    Arg.(value & opt int Router.default_window & info [ "window" ] ~docv:"N"
           ~doc:"Per-worker in-flight CBATCH window; acks are drained \
                 asynchronously and a full window applies backpressure. 1 \
                 restores lockstep send-then-wait.")
  in
  let resume =
    Arg.(value & flag & info [ "resume" ]
           ~doc:"Recover the previous session from --dir's WAL and router-state \
                 checkpoint: kill stale workers, replay the routed history, \
                 respawn workers and align each at its durable SEQ. Clients \
                 blind-resend unacked batches; the report stays byte-identical.")
  in
  let heartbeat =
    Arg.(value & opt (some float) None & info [ "heartbeat" ] ~docv:"SECONDS"
           ~doc:"Log a one-line liveness heartbeat to stderr every SECONDS.")
  in
  let run socket tcp backlog ready_file engine workers dir worker_tcp rate seed
      clock_size metrics_json max_respawns window resume heartbeat chaos =
    match Engine.of_name engine with
    | None ->
      prerr_endline ("racedet: unknown engine " ^ engine);
      1
    | Some id -> (
      let chaos_cfg =
        match chaos with
        | None -> Ok None
        | Some spec -> Result.map Option.some (Fault.parse spec)
      in
      match (chaos_cfg, resolve_addr ~socket ~tcp) with
      | Error msg, _ | _, Error msg ->
        prerr_endline ("racedet: " ^ msg);
        1
      | Ok chaos, Ok listen ->
        let sampler =
          if rate >= 1.0 then Sampler.all else Sampler.bernoulli ~rate ~seed
        in
        (try
           Router.run
             {
               Router.listen;
               workers;
               worker_shards = 1;
               engine = id;
               sampler;
               clock_size;
               dir;
               worker_tcp;
               checkpoint = true;
               max_parked = Serve.default_max_parked;
               backlog;
               ready_file;
               heartbeat_s = heartbeat;
               metrics_json;
               max_respawns;
               chaos;
               window;
               wal = true;
               resume;
               state_every = Router.default_state_every;
             };
           0
         with
        | Unix.Unix_error (err, fn, arg) ->
          Printf.eprintf "racedet: route: %s(%s): %s\n" fn arg (Unix.error_message err);
          1
        | Failure msg ->
          prerr_endline ("racedet: route: " ^ msg);
          1))
  in
  let term =
    Term.(
      const run $ socket_arg $ tcp_arg $ backlog_arg $ ready_file_arg $ engine
      $ workers $ dir $ worker_tcp $ rate_arg $ seed_arg $ clock_size_arg $ metrics_json
      $ max_respawns $ window $ resume $ heartbeat $ chaos_arg)
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "Cluster router: partition locations across K worker processes (each a \
          $(b,racedet serve) checking what the router sends) by consistent hashing, speak \
          the same BATCH protocol to clients, and merge the workers' partial \
          results into a report byte-identical to a single-process analyze. \
          Every client batch is fsynced to a WAL in --dir before it is acknowledged. \
          Worker death and MIGRATE reuse the .ftc checkpoint/restore machinery.")
    term

(* --- loadgen ---------------------------------------------------------------- *)

let loadgen_cmd =
  let connect =
    Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"PATH"
           ~doc:"Unix-domain socket of the daemon under load.")
  in
  let tcp =
    Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT"
           ~doc:"TCP address of the daemon under load.")
  in
  let workload =
    Arg.(value & opt string "tpcc" & info [ "workload" ] ~docv:"NAME"
           ~doc:"db_sim profile driving the generated trace (tpcc, ycsb, ...).")
  in
  let events =
    Arg.(value & opt int 200_000 & info [ "events" ] ~docv:"N"
           ~doc:"Target trace length.")
  in
  let batch =
    Arg.(value & opt int 512 & info [ "batch" ] ~docv:"N" ~doc:"Events per batch.")
  in
  let clients =
    Arg.(value & opt int 2 & info [ "clients" ] ~docv:"C"
           ~doc:"Concurrent client connections (batch i goes to connection i mod C).")
  in
  let report =
    Arg.(value & flag & info [ "report" ]
           ~doc:"Print the server's final analysis report after the run.")
  in
  let run connect tcp workload events batch clients report seed =
    match resolve_connect_addr ~connect ~tcp with
    | Error msg ->
      prerr_endline ("racedet: " ^ msg);
      1
    | Ok addr -> (
      match Loadgen.db_trace ~workload ~seed ~events with
      | Error msg ->
        prerr_endline ("racedet: loadgen: " ^ msg);
        1
      | Ok trace -> (
        match Loadgen.drive ~clients ~batch ~addr trace with
        | Error msg ->
          prerr_endline ("racedet: loadgen: " ^ msg);
          1
        | Ok (result, report_text) ->
          print_endline (Loadgen.summary result);
          if report then print_string report_text;
          0))
  in
  let term =
    Term.(
      const run $ connect $ tcp $ workload $ events $ batch $ clients $ report
      $ seed_arg)
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive a $(b,racedet serve) or $(b,racedet route) daemon with a db_sim \
          workload over several client connections, reporting ingest throughput \
          and per-batch latency.")
    term

(* --- compare --------------------------------------------------------------- *)

let compare_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc:"Trace file to analyse.")
  in
  let run file rate seed clock_size =
    match load_trace file with
    | Error msg ->
      prerr_endline ("racedet: " ^ msg);
      1
    | Ok trace ->
      let sampler =
        if rate >= 1.0 then Sampler.all else Sampler.bernoulli ~rate ~seed
      in
      let rows =
        List.map
          (fun id ->
            let result = Engine.run id ~sampler ?clock_size trace in
            let m = result.Detector.metrics in
            [|
              Engine.name id;
              string_of_int m.Metrics.sampled_accesses;
              string_of_int (List.length result.Detector.races);
              string_of_int (List.length (Detector.racy_locations result));
              Printf.sprintf "%d/%d" m.Metrics.acquires_skipped m.Metrics.acquires;
              Printf.sprintf "%d/%d" m.Metrics.releases_processed m.Metrics.releases;
              string_of_int m.Metrics.deep_copies;
              string_of_int m.Metrics.vc_full_ops;
            |])
          Engine.all
      in
      Ft_support.Tabulate.print
        ~title:(Printf.sprintf "all engines on %s (rate %g, seed %d)" file rate seed)
        ~header:
          [| "engine"; "|S|"; "races"; "racy locs"; "acq skipped"; "rel copied"; "deep"; "O(T) ops" |]
        rows;
      0
  in
  let term = Term.(const run $ file $ rate_arg $ seed_arg $ clock_size_arg) in
  Cmd.v (Cmd.info "compare" ~doc:"Run every engine over a trace and tabulate the results.") term

(* --- report ----------------------------------------------------------------- *)

let report_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc:"Trace file to analyse.")
  in
  let run file =
    match load_trace file with
    | Error msg ->
      prerr_endline ("racedet: " ^ msg);
      1
    | Ok trace ->
      print_string (Ft_rapid.Trace_report.render (Ft_rapid.Trace_report.analyze trace));
      0
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Describe a trace: sync/access mix, contention, hot locations.")
    Term.(const run $ file)

(* --- oracle ----------------------------------------------------------------- *)

let oracle_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc:"Trace file to analyse.")
  in
  let pairs =
    Arg.(value & flag & info [ "pairs" ] ~doc:"Print every racy pair, not just locations.")
  in
  let run file rate seed pairs =
    match load_trace file with
    | Error msg ->
      prerr_endline ("racedet: " ^ msg);
      1
    | Ok trace ->
      if Trace.length trace > 20_000 then begin
        prerr_endline "racedet: oracle is quadratic; refusing traces over 20k events";
        1
      end
      else begin
        let sampler =
          if rate >= 1.0 then Sampler.all else Sampler.bernoulli ~rate ~seed
        in
        let sampled = Sampler.to_sampled_array sampler trace in
        let locs = Ft_trace.Hb.racy_locations trace ~sampled in
        Printf.printf "events: %d, sampled: %d\n" (Trace.length trace)
          (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 sampled);
        Printf.printf "ground-truth racy locations: %d%s\n" (List.length locs)
          (if locs = [] then ""
           else "  (" ^ String.concat ", " (List.map (Printf.sprintf "x%d") locs) ^ ")");
        if pairs then
          List.iter
            (fun (i, j) ->
              Format.printf "  %a  ∥  %a  (events %d, %d)@."
                Ft_trace.Event.pp (Trace.get trace i)
                Ft_trace.Event.pp (Trace.get trace j) i j)
            (Ft_trace.Hb.racy_pairs_sampled trace ~sampled);
        if locs = [] then 0 else 2
      end
  in
  let term = Term.(const run $ file $ rate_arg $ seed_arg $ pairs) in
  Cmd.v
    (Cmd.info "oracle"
       ~doc:"Brute-force ground truth (quadratic; small traces only, exit 2 if races).")
    term

(* --- experiments ---------------------------------------------------------- *)

let experiments_cmd =
  let figure =
    Arg.(value & opt string "all" & info [ "figure" ] ~docv:"FIG"
           ~doc:"Which figure to regenerate: 5a, 5b, 6a, 6b, 6c, 7, 8, 9 or all.")
  in
  let events =
    Arg.(value & opt int 200_000 & info [ "events" ] ~docv:"N"
           ~doc:"Events per DB benchmark trace (figures 5–6).")
  in
  let runs =
    Arg.(value & opt int 30 & info [ "runs" ] ~docv:"K"
           ~doc:"Seeded repetitions for the offline experiment (figures 7–9).")
  in
  let scale =
    Arg.(value & opt int 4 & info [ "scale" ] ~docv:"K"
           ~doc:"Classic benchmark scale (figures 7–9).")
  in
  let csv =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR"
           ~doc:"Also write raw data as CSV files into this directory.")
  in
  let jobs_arg =
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Domains for experiment cells (default 1 = sequential). Tables and CSV \
                 stay byte-identical for any N; wall-clock timing columns contend for \
                 cores, so keep N=1 when the milliseconds matter. Runner statistics go \
                 to stderr.")
  in
  let run figure events runs scale seed clock_size csv jobs =
    let clock_size = Option.value clock_size ~default:Ft_tsan.Harness.default_clock_size in
    let jobs = Stdlib.max 1 jobs in
    let report label stats = Format.eprintf "[%s] %a@." label Ft_par.pp_stats stats in
    let need_tsan = List.mem figure [ "5a"; "5b"; "6a"; "6b"; "6c"; "all" ] in
    let need_rapid = List.mem figure [ "7"; "8"; "9"; "all" ] in
    let need_ablation = List.mem figure [ "ablation"; "all" ] in
    let write_csv name contents =
      match csv with
      | None -> ()
      | Some dir ->
        let path = Filename.concat dir name in
        let oc = open_out path in
        output_string oc contents;
        close_out oc;
        Printf.printf "wrote %s\n" path
    in
    if not (need_tsan || need_rapid || need_ablation) then begin
      prerr_endline ("racedet: unknown figure " ^ figure);
      1
    end
    else begin
      if need_tsan then begin
        let ms =
          Ft_tsan.Harness.run_all ~seed ~clock_size ~jobs ~report:(report "figs 5-6")
            ~target_events:events ()
        in
        let show title body = Printf.printf "\n%s\n%s\n%s" title (String.make (String.length title) '=') body in
        if figure = "5a" || figure = "all" then
          show "Fig 5a: latency relative to NT" (Ft_tsan.Harness.fig5a ms);
        if figure = "5b" || figure = "all" then
          show "Fig 5b: algorithmic-overhead improvement" (Ft_tsan.Harness.fig5b ms);
        if figure = "6a" || figure = "all" then
          show "Fig 6a: racy locations relative to FT (fixed time budget)"
            (Ft_tsan.Harness.fig6a ms);
        if figure = "6b" || figure = "all" then
          show "Fig 6b: SU full-traversal share of sync events" (Ft_tsan.Harness.fig6b ms);
        if figure = "6c" || figure = "all" then
          show "Fig 6c: SO ordered-list entries per acquire" (Ft_tsan.Harness.fig6c ms);
        print_newline ();
        print_string (Ft_tsan.Harness.summary ms);
        write_csv "tsan_latency.csv" (Ft_tsan.Harness.to_csv ms)
      end;
      if need_rapid then begin
        let rows =
          Ft_rapid.Experiment.run ~runs ~scale ~base_seed:seed ~jobs
            ~report:(report "figs 7-9") ()
        in
        let show title body = Printf.printf "\n%s\n%s\n%s" title (String.make (String.length title) '=') body in
        if figure = "7" || figure = "all" then
          show "Fig 7: acquires skipped / total acquires" (Ft_rapid.Experiment.fig7 rows);
        if figure = "8" || figure = "all" then
          show "Fig 8: releases processed (SU) and deep copies (SO) / total releases"
            (Ft_rapid.Experiment.fig8 rows);
        if figure = "9" || figure = "all" then
          show "Fig 9: ordered-list saving ratio" (Ft_rapid.Experiment.fig9 rows);
        print_newline ();
        print_string (Ft_rapid.Experiment.summary rows);
        write_csv "rapid_metrics.csv" (Ft_rapid.Experiment.to_csv rows)
      end;
      if need_ablation then begin
        let show title body = Printf.printf "\n%s\n%s\n%s" title (String.make (String.length title) '=') body in
        show "Ablation: all engines"
          (Ft_tsan.Ablation.engines_table ~clock_size ~jobs ~target_events:events ());
        show "Ablation: clock-width sweep"
          (Ft_tsan.Ablation.clock_sweep ~jobs ~target_events:events ());
        show "Ablation: many-locks microbenchmark"
          (Ft_tsan.Ablation.lock_sweep ~jobs ~target_events:events ());
        show "Extension: sampling strategies"
          (Ft_tsan.Ablation.sampler_table ~clock_size ~jobs ~target_events:events ());
        show "Extension: Eraser lockset baseline vs ground truth"
          (Ft_rapid.Experiment.eraser_comparison ())
      end;
      0
    end
  in
  let term =
    Term.(
      const run $ figure $ events $ runs $ scale $ seed_arg $ clock_size_arg $ csv
      $ jobs_arg)
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Regenerate the paper's evaluation tables and figures.")
    term

(* --- list ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    print_endline "engines (HB-exact):";
    List.iter (fun id -> Printf.printf "  %s\n" (Engine.name id)) Engine.all;
    print_endline "engines (baselines):";
    print_endline "  eraser  (lockset analysis; unsound, for comparison)";
    print_endline "db profiles (workload db:NAME):";
    List.iter (fun (p : Db_sim.profile) -> Printf.printf "  %s\n" p.Db_sim.name) Db_sim.profiles;
    print_endline "classic benchmarks (workload classic:NAME):";
    List.iter
      (fun (b : Classic.benchmark) ->
        Printf.printf "  %-18s %s\n" b.Classic.name b.Classic.description)
      Classic.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List engines and workloads.") Term.(const run $ const ())

let main_cmd =
  let doc = "sampling-based dynamic race detection with efficient timestamping" in
  let info = Cmd.info "racedet" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      generate_cmd; analyze_cmd; serve_cmd; emit_cmd; route_cmd; loadgen_cmd;
      compare_cmd; report_cmd; oracle_cmd; experiments_cmd; list_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
