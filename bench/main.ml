(* Benchmark driver: regenerates every table and figure of the paper's
   evaluation, prints the tables on stdout and writes one BENCH_<figure>.json
   per figure.

     dune exec bench/main.exe                     (moderate sizes, all figures)
     dune exec bench/main.exe -- --full           (paper-scale sizes, slower)
     dune exec bench/main.exe -- --figure 7 -j 2  (one figure, two domains)

   Every wall clock it reports is timed by [Ft_tsan.Timing]: the thunks
   compared in a figure run in alternating rounds and each wall is a median
   with its quartiles.  The tables themselves are printed by the harnesses
   in [ft_tsan] and [ft_rapid]. *)

module Engine = Ft_core.Engine
module Detector = Ft_core.Detector
module Sampler = Ft_core.Sampler
module Trace = Ft_trace.Trace
module Sharded = Ft_shard.Sharded
module Clock = Ft_support.Clock
module Stats = Ft_support.Stats
module Db_sim = Ft_workloads.Db_sim
module Classic = Ft_workloads.Classic
module Harness = Ft_tsan.Harness
module Timing = Ft_tsan.Timing
module Experiment = Ft_rapid.Experiment
module Json = Ft_obs.Json
module Metrics = Ft_core.Metrics
module Serve = Ft_shard.Serve
module Router = Ft_cluster.Router
module Loadgen = Ft_cluster.Loadgen

(* --- options -------------------------------------------------------------- *)

type options = {
  mutable figure : string;
  mutable full : bool;
  mutable events : int option;
  mutable runs : int option;
  mutable jobs : int;
  mutable phase : string;
}

let options =
  { figure = "all"; full = false; events = None; runs = None; jobs = 1; phase = "current" }

let figures =
  [ "all"; "5a"; "5b"; "6a"; "6b"; "6c"; "7"; "8"; "9"; "ablation"; "shards"; "fig7";
    "cluster" ]

let parse_args () =
  let spec =
    [
      ( "--figure",
        Arg.String (fun s -> options.figure <- s),
        "FIG  only this figure (" ^ String.concat ", " figures ^ ")" );
      ("--full", Arg.Unit (fun () -> options.full <- true), "  paper-scale sizes");
      ("--events", Arg.Int (fun n -> options.events <- Some n), "N  events per DB trace");
      ("--runs", Arg.Int (fun n -> options.runs <- Some n), "K  offline repetitions");
      ( "-j",
        Arg.Int (fun n -> options.jobs <- Stdlib.max 1 n),
        "N  domains for experiment cells (default 1; 0 < N; tables stay \
         byte-identical, wall-clock timings contend)" );
      ("--jobs", Arg.Int (fun n -> options.jobs <- Stdlib.max 1 n), "N  same as -j");
      ( "--phase",
        Arg.String (fun s -> options.phase <- s),
        "NAME  label stamped on fig7 throughput rows (e.g. seed/flat)" );
    ]
  in
  Arg.parse spec (fun _ -> ()) "bench/main.exe [options]";
  (* A typo must not run nothing and exit 0: CI would then gate the
     committed BENCH file against itself. *)
  if not (List.mem options.figure figures) then begin
    Printf.eprintf "bench: unknown figure %S (valid: %s)\n" options.figure
      (String.concat ", " figures);
    exit 2
  end

(* Runner statistics go to stderr so stdout — the tables — stays
   byte-comparable across [-j] values. *)
let report label stats =
  Format.eprintf "[%s] %a@." label Ft_par.pp_stats stats

let wants fig = options.figure = "all" || options.figure = fig

(* --- BENCH_<figure>.json sink ---------------------------------------------- *)

(* Every rendered figure also collects machine-readable rows; at exit one
   BENCH_<figure>.json per figure with data is written as a JSON array.  Rows
   carry engine, sampling rate, events, wall-clock seconds and the key
   Metrics ratios behind the figure, so plotting scripts need not scrape the
   printed tables. *)
let bench_rows : (string, Json.t list ref) Hashtbl.t = Hashtbl.create 16
let bench_order : string list ref = ref []

let add_row figure (fields : (string * Json.t) list) =
  let rows =
    match Hashtbl.find_opt bench_rows figure with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add bench_rows figure r;
      bench_order := figure :: !bench_order;
      r
  in
  rows := Json.Obj (("figure", Json.Str figure) :: fields) :: !rows

let write_bench_files () =
  List.iter
    (fun figure ->
      let rows = List.rev !(Hashtbl.find bench_rows figure) in
      let path = Printf.sprintf "BENCH_%s.json" figure in
      let oc = open_out path in
      output_string oc (Json.to_string_pretty (Json.Arr rows));
      close_out oc;
      Printf.eprintf "wrote %s (%d rows)\n%!" path (List.length rows))
    (List.rev !bench_order)

let jf x = Json.Float x

(* A timed wall as three fields: the median and its quartiles. *)
let wall name (t : Timing.t) =
  [ (name, jf t.Timing.median);
    (name ^ "_q1", jf t.Timing.q1);
    (name ^ "_q3", jf t.Timing.q3) ]

let add_tsan_rows (ms : Harness.measurement list) =
  List.iter
    (fun (m : Harness.measurement) ->
      let base extra =
        ("benchmark", Json.Str m.Harness.benchmark)
        :: ("events", Json.Int m.Harness.events)
        :: extra
      in
      (* Figs 5a/5b divide by NT or subtract ET; both ride along, with ET
         per event, so a drifting denominator shows in the row. *)
      let nt = m.Harness.nt.Timing.median and et = m.Harness.et.Timing.median in
      let baselines =
        wall "nt_s" m.Harness.nt
        @ wall "et_s" m.Harness.et
        @ [ ("et_ns_per_event", jf (1e9 *. et /. float_of_int (max 1 m.Harness.events))) ]
      in
      let rel (t : Timing.t) = t.Timing.median /. Float.max nt 1e-12 in
      if wants "5a" then begin
        let row eng rate t =
          add_row "5a"
            (base
               ([ ("engine", Json.Str eng); ("rate", jf rate) ]
               @ wall "wall_s" t
               @ [ ("rel_nt", jf (rel t)) ]
               @ baselines))
        in
        row "ET" 1.0 m.Harness.et;
        row "FT" 1.0 m.Harness.ft;
        List.iter (fun (r : Harness.rate_result) -> row "ST" r.rate r.st_time) m.per_rate
      end;
      if wants "5b" then
        List.iter
          (fun (r : Harness.rate_result) ->
            let ao_st = Harness.ao m ~time:r.st_time.Timing.median in
            let row eng (t : Timing.t) =
              let ao = Harness.ao m ~time:t.Timing.median in
              base
                ([ ("engine", Json.Str eng); ("rate", jf r.rate) ]
                @ wall "wall_s" t
                @ [ ("ao_s", jf ao); ("ao_st_s", jf ao_st);
                    ("improvement", jf (1.0 -. (ao /. Float.max ao_st 1e-12))) ]
                @ baselines)
            in
            add_row "5b" (row "SU" r.su_time);
            add_row "5b" (row "SO" r.so_time))
          m.per_rate;
      if wants "6a" then
        List.iter
          (fun (r : Harness.rate_result) ->
            let rel_ft locs =
              float_of_int locs /. Float.max (float_of_int m.Harness.ft_locs) 1.0
            in
            let row eng locs =
              base
                [ ("engine", Json.Str eng); ("rate", jf r.rate);
                  ("racy_locations", Json.Int locs);
                  ("ft_locations", Json.Int m.Harness.ft_locs);
                  ("rel_ft", jf (rel_ft locs)) ]
            in
            add_row "6a" (row "ST" r.st_locs);
            add_row "6a" (row "SU" r.su_locs);
            add_row "6a" (row "SO" r.so_locs))
          m.per_rate;
      if wants "6b" then
        List.iter
          (fun (r : Harness.rate_result) ->
            add_row "6b"
              (base
                 ([ ("engine", Json.Str "SU"); ("rate", jf r.rate) ]
                 @ wall "wall_s" r.su_time
                 @ [ ("sync_full_work_ratio",
                      jf (Metrics.sync_full_work_ratio r.su_metrics)) ])))
          m.per_rate;
      if wants "6c" then
        List.iter
          (fun (r : Harness.rate_result) ->
            add_row "6c"
              (base
                 ([ ("engine", Json.Str "SO"); ("rate", jf r.rate) ]
                 @ wall "wall_s" r.so_time
                 @ [ ("mean_entries_per_acquire",
                      jf (Metrics.mean_entries_per_acquire r.so_metrics));
                     ("saved_traversal_ratio",
                      jf (Metrics.saved_traversal_ratio r.so_metrics)) ])))
          m.per_rate)
    ms

let add_rapid_rows ~grid_wall_s (rows : Experiment.row list) =
  List.iter
    (fun (r : Experiment.row) ->
      let m = r.Experiment.metrics in
      let base extra =
        ("benchmark", Json.Str r.Experiment.benchmark)
        :: ("engine", Json.Str r.Experiment.label)
        :: ("runs", Json.Int r.Experiment.runs)
        :: ("events", Json.Int m.Metrics.events)
        :: ("grid_wall_s", jf grid_wall_s)
        :: ("racy_locations", jf r.Experiment.racy_locations)
        :: ("peak_sampled", Json.Int r.Experiment.peak_sampled)
        :: ("metrics", Result.get_ok (Json.parse (Metrics.to_json m)))
        :: extra
      in
      if wants "7" then
        add_row "7" (base [ ("acquires_skipped_ratio", jf (Metrics.acquires_skipped_ratio m)) ]);
      if wants "8" then
        add_row "8"
          (base [ ("releases_processed_ratio", jf (Metrics.releases_processed_ratio m));
                  ("deep_copy_ratio", jf (Metrics.deep_copy_ratio m)) ]);
      if wants "9" then
        add_row "9" (base [ ("saved_traversal_ratio", jf (Metrics.saved_traversal_ratio m)) ]))
    rows

(* --- pipeline vs plain -------------------------------------------------------- *)

(* Wall clock of the pipelined online detector — the front (sampler + sync
   engine) on this domain, one checker on another — against the plain
   engine on the same trace: SO at 3% and 10% on a sync-heavy trace (tpcc)
   and an access-heavy one (hyadapt).  One JSON row per (workload, rate):
   the median wall of each over [shard_repeats] alternating rounds, with
   its first and third quartiles.  Verdict exactness is enforced inline:
   every pipeline run must report the plain engine's race count, or the
   figure aborts. *)
let shard_repeats = 7

let run_shard_grid ~target_events =
  print_newline ();
  print_endline "Pipeline vs plain: SO engine, a front and one checker domain";
  print_endline "=============================================================";
  List.iter
    (fun profile ->
      let trace =
        Db_sim.generate (Option.get (Db_sim.profile profile)) ~seed:7 ~target_events
      in
      let wname = "db:" ^ profile in
      let events = Trace.length trace in
      List.iter
        (fun rate ->
          let sampler = Sampler.bernoulli ~rate ~seed:7 in
          let config = Detector.config_of_trace ~sampler trace in
          let plain () = Engine.run Engine.So ~sampler trace in
          let races = List.length (plain ()).Detector.races in
          let pipeline () =
            let sh = Sharded.create ~engine:Engine.So config in
            Trace.iteri (fun i e -> Sharded.handle sh i e) trace;
            let got = List.length (Sharded.result sh).Detector.races in
            Sharded.stop sh;
            if got <> races then
              failwith
                (Printf.sprintf
                   "pipeline figure: %s at %g reports %d races but the plain engine \
                    reported %d"
                   wname rate got races)
          in
          let t =
            Timing.run ~rounds:shard_repeats [| (fun () -> ignore (plain ())); pipeline |]
          in
          let plain_t = t.(0) and pipe_t = t.(1) in
          let events_per_s = float_of_int events /. Float.max pipe_t.Timing.median 1e-9 in
          add_row "shards"
            ([ ("workload", Json.Str wname);
               ("engine", Json.Str (Engine.name Engine.So));
               ("rate", jf rate);
               ("events", Json.Int events);
               ("repeats", Json.Int shard_repeats) ]
            @ wall "wall_s" pipe_t
            @ [ ("events_per_s", jf events_per_s) ]
            @ wall "plain_wall_s" plain_t
            @ [ ("races", Json.Int races) ]);
          Printf.printf
            "{\"figure\": \"shards\", \"workload\": %S, \"rate\": %g, \"events\": %d, \
             \"wall_s\": %.6f, \"wall_s_q1\": %.6f, \"wall_s_q3\": %.6f, \
             \"plain_wall_s\": %.6f, \"plain_wall_s_q1\": %.6f, \"plain_wall_s_q3\": %.6f, \
             \"races\": %d}\n%!"
            wname rate events pipe_t.Timing.median pipe_t.Timing.q1 pipe_t.Timing.q3
            plain_t.Timing.median plain_t.Timing.q1 plain_t.Timing.q3 races)
        [ 0.03; 0.1 ])
    [ "tpcc"; "hyadapt" ]

(* --- cluster scaling --------------------------------------------------------- *)

(* Routed-ingest throughput of the K-process cluster: a forked router
   partitions locations across K worker processes (each a serve daemon
   checking inline); the load generator streams a db_sim trace over two client
   connections and fetches the final REPORT, which must be byte-identical
   to the in-process analysis.  Runs before any figure that spawns domains:
   the router forks, and forking a multi-domain process is not safe. *)
let run_cluster_grid ~target_events =
  print_newline ();
  print_endline "Cluster scaling: SO engine routed across K worker processes";
  print_endline "===========================================================";
  let trace =
    match Loadgen.db_trace ~workload:"tpcc" ~seed:7 ~events:target_events with
    | Ok t -> t
    | Error msg -> failwith ("cluster grid: " ^ msg)
  in
  let rate = 0.1 in
  let sampler = Sampler.bernoulli ~rate ~seed:7 in
  let events = Trace.length trace in
  let expected = Serve.report_text ~events (Engine.run Engine.So ~sampler trace) in
  List.iter
    (fun workers ->
      let dir =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "ftbench-cluster-%d-%d" (Unix.getpid ()) workers)
      in
      let socket = Filename.concat dir "route.sock" in
      Unix.mkdir dir 0o700;
      let cfg =
        {
          Router.listen = Serve.Unix_path socket;
          workers;
          worker_shards = 1;
          engine = Engine.So;
          sampler;
          clock_size = None;
          dir = Filename.concat dir "run";
          worker_tcp = false;
          checkpoint = true;
          max_parked = Serve.default_max_parked;
          backlog = Serve.default_backlog;
          ready_file = None;
          heartbeat_s = None;
          metrics_json = None;
          max_respawns = Router.default_max_respawns;
          chaos = None;
          window = Router.default_window;
          wal = true;
          resume = false;
          state_every = Router.default_state_every;
        }
      in
      let pid =
        match Unix.fork () with
        | 0 ->
          (try Router.run cfg with _ -> Unix._exit 1);
          Unix._exit 0
        | pid -> pid
      in
      let reaped = ref false in
      let finish () =
        if not !reaped then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        end;
        let rec rm path =
          match (Unix.lstat path).Unix.st_kind with
          | Unix.S_DIR ->
            Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
            Unix.rmdir path
          | _ -> Sys.remove path
          | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
        in
        rm dir
      in
      Fun.protect ~finally:finish @@ fun () ->
      match Loadgen.drive ~clients:2 ~addr:(Serve.Unix_path socket) trace with
      | Error msg -> failwith (Printf.sprintf "cluster grid K=%d: %s" workers msg)
      | Ok (r, report) ->
        if report <> expected then
          failwith
            (Printf.sprintf "cluster grid: K=%d REPORT diverged from analyze" workers);
        (* Graceful stop, then wait for the router to finish tearing its
           workers down before the dir is removed — killing it early
           orphans worker processes mid-checkpoint. *)
        (let fd = Serve.connect (Serve.Unix_path socket) in
         (match Serve.shutdown fd with Ok () | Error _ -> ());
         Serve.close fd);
        ignore (Unix.waitpid [] pid);
        reaped := true;
        add_row "cluster"
          [ ("workload", Json.Str "db:tpcc");
            ("engine", Json.Str (Engine.name Engine.So));
            ("rate", jf rate);
            ("phase", Json.Str options.phase);
            ("window", Json.Int Router.default_window);
            ("workers", Json.Int workers);
            ("clients", Json.Int r.Loadgen.clients);
            ("events", Json.Int r.Loadgen.events);
            ("wall_s", jf r.Loadgen.wall_s);
            ("events_per_s", jf r.Loadgen.events_per_s);
            ("send_ms_mean", jf r.Loadgen.send_ms_mean);
            ("send_ms_p99", jf r.Loadgen.send_ms_p99) ];
        Printf.printf "  K=%d  %s  (REPORT ≡ analyze)\n%!" workers (Loadgen.summary r))
    [ 1; 2; 4 ]

(* --- fig7 grid throughput --------------------------------------------------- *)

(* Events/sec over the Fig 7 grid (classic benchmarks × engine × sampling
   rate).  One JSON row per cell, stamped with [options.phase] so before/after
   rows of an optimization land in the same BENCH_fig7.json.  NT and the
   benchmark's cells are timed in one alternating call, and [rel_nt] is the
   median over rounds of NT's wall over the cell's — the NT-relative speed
   the CI regression gate compares, since raw events/sec are not portable
   across runners. *)
let run_fig7_throughput ~target_events ~clock_size ~rounds =
  print_newline ();
  print_endline "Fig 7 grid: analysis throughput (events/sec)";
  print_endline "============================================";
  let benchmarks = [ "producerconsumer"; "cryptorsa"; "readerswriters" ] in
  let cells =
    [
      (Engine.Fasttrack, 1.0);
      (Engine.Djit, 1.0);
      (Engine.St, 0.03);
      (Engine.St, 1.0);
      (Engine.Su, 0.03);
      (Engine.Su, 1.0);
      (Engine.So, 0.03);
      (Engine.So, 1.0);
      (Engine.O1, 0.03);
      (Engine.O1, 1.0);
      (Engine.O1u, 0.03);
      (Engine.O1u, 1.0);
    ]
  in
  List.iter
    (fun bname ->
      let b = Option.get (Classic.find bname) in
      (* the classic generators are event-count-agnostic; double the scale
         until the trace is big enough for stable wall-clock timing *)
      let rec pick scale =
        let trace = b.Classic.generate ~seed:11 ~scale in
        if Trace.length trace >= target_events || scale >= 4096 then (scale, trace)
        else pick (scale * 2)
      in
      let scale, trace = pick 6 in
      let events = Trace.length trace in
      let run (id, rate) =
        let sampler = if rate >= 1.0 then Sampler.all else Sampler.bernoulli ~rate ~seed:11 in
        fun () -> ignore (Engine.run id ~sampler ~clock_size trace)
      in
      let t =
        Timing.run ~rounds
          (Array.of_list ((fun () -> ignore (Detector.replay_only trace)) :: List.map run cells))
      in
      let nt = t.(0) in
      let nt_eps = float_of_int events /. Float.max nt.Timing.median 1e-9 in
      List.iteri
        (fun i (id, rate) ->
          let cell = t.(i + 1) in
          let eps = float_of_int events /. Float.max cell.Timing.median 1e-9 in
          let rel_nt = Stats.median (Array.map2 ( /. ) nt.Timing.walls cell.Timing.walls) in
          add_row "fig7"
            ([ ("phase", Json.Str options.phase);
               ("benchmark", Json.Str bname);
               ("engine", Json.Str (Engine.name id));
               ("rate", jf rate);
               ("scale", Json.Int scale);
               ("clock_size", Json.Int clock_size);
               ("events", Json.Int events) ]
            @ wall "wall_s" cell
            @ [ ("events_per_s", jf eps);
                ("nt_events_per_s", jf nt_eps);
                ("rel_nt", jf rel_nt) ]);
          Printf.printf "  %-18s %-10s rate %4.0f%%  %9.0f ev/s  (%.3f of NT)\n%!" bname
            (Engine.name id) (rate *. 100.0) eps rel_nt)
        cells)
    benchmarks

(* --- figures ---------------------------------------------------------------- *)

let show title body =
  print_newline ();
  print_endline title;
  print_endline (String.make (String.length title) '=');
  print_string body

let () =
  parse_args ();
  let target_events =
    match options.events with Some n -> n | None -> if options.full then 1_000_000 else 150_000
  in
  let runs = match options.runs with Some k -> k | None -> if options.full then 30 else 12 in
  let scale = if options.full then 8 else 4 in
  let clock_size = if options.full then 256 else Harness.default_clock_size in
  let repeats = 3 in
  Printf.printf
    "freshtrack bench: events/db-trace=%d, offline runs=%d, scale=%d, clock=%d%s\n"
    target_events runs scale clock_size
    (if options.full then " (full)" else " (use --full for paper-scale sizes)");
  (* Must precede every domain-spawning figure: the cluster grid forks. *)
  if wants "cluster" then run_cluster_grid ~target_events:(target_events / 2);
  let tsan_figures = List.exists wants [ "5a"; "5b"; "6a"; "6b"; "6c" ] in
  let rapid_figures = List.exists wants [ "7"; "8"; "9" ] in
  if tsan_figures then begin
    let nseeds = if options.full then 3 else 2 in
    let ms =
      Harness.run_all ~repeats ~clock_size ~nseeds ~jobs:options.jobs
        ~report:(report "figs 5-6") ~target_events ()
    in
    if wants "5a" then show "Fig 5a: latency relative to NT" (Harness.fig5a ms);
    if wants "5b" then
      show "Fig 5b: algorithmic-overhead improvement over ST" (Harness.fig5b ms);
    if wants "6a" then
      show "Fig 6a: racy locations relative to FT (fixed time budget)" (Harness.fig6a ms);
    if wants "6b" then
      show "Fig 6b: share of sync events with O(T) work under SU" (Harness.fig6b ms);
    if wants "6c" then
      show "Fig 6c: mean ordered-list entries per acquire under SO" (Harness.fig6c ms);
    show "Summary (paper §6.2.3–6.2.4 headline numbers)" (Harness.summary ms);
    add_tsan_rows ms
  end;
  if rapid_figures then begin
    let t0 = Clock.now_ns () in
    let rows =
      Experiment.run ~runs ~scale ~jobs:options.jobs ~report:(report "figs 7-9") ()
    in
    let grid_wall_s = Clock.elapsed_s ~since:t0 in
    if wants "7" then
      show "Fig 7: acquires skipped / total acquires (offline, 26 benchmarks)"
        (Experiment.fig7 rows);
    if wants "8" then
      show "Fig 8: releases processed (SU) and deep copies (SO) / total releases"
        (Experiment.fig8 rows);
    if wants "9" then
      show "Fig 9: ordered-list saving ratio (SO engines)" (Experiment.fig9 rows);
    show "Summary (paper §A.1.2 observations)" (Experiment.summary rows);
    add_rapid_rows ~grid_wall_s rows
  end;
  if wants "ablation" || options.figure = "all" then begin
    let ae = target_events / 2 in
    let jobs = options.jobs in
    show "Ablation: all engines, tpcc, 3% sampling"
      (Ft_tsan.Ablation.engines_table ~repeats ~rate:0.03 ~clock_size ~jobs ~target_events:ae
         ());
    show "Ablation: clock-width sweep (analysis time)"
      (Ft_tsan.Ablation.clock_sweep ~repeats ~rate:0.03 ~jobs ~target_events:ae ());
    show "Ablation: many-locks microbenchmark (O(T) clock operations)"
      (Ft_tsan.Ablation.lock_sweep ~jobs ~target_events:ae ());
    show "Extension: sampling strategies (SO engine)"
      (Ft_tsan.Ablation.sampler_table ~clock_size ~jobs ~target_events:ae ());
    show "Extension: Eraser lockset baseline vs ground truth (unsoundness, §7)"
      (Experiment.eraser_comparison ())
  end;
  if wants "shards" then
    run_shard_grid ~target_events:(target_events / 2);
  if wants "fig7" then
    run_fig7_throughput
      ~target_events:(if options.full then 1_000_000 else 200_000)
      ~clock_size ~rounds:5;
  write_bench_files ()
