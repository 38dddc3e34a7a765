(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation and times the core operations with Bechamel.

     dune exec bench/main.exe                 (moderate sizes, all figures)
     dune exec bench/main.exe -- --full       (paper-scale sizes, slower)
     dune exec bench/main.exe -- --figure 5b  (one figure)
     dune exec bench/main.exe -- --no-bechamel

   One [Test.make] per table/figure: the Bechamel section times the
   computation underlying each figure on a small fixed instance (engine
   analysis runs for Figs 5–6, metric-counting runs for Figs 7–9) plus
   data-structure ablations; the tables themselves are then printed by the
   harnesses in [ft_tsan] and [ft_rapid]. *)

module Engine = Ft_core.Engine
module Detector = Ft_core.Detector
module Sampler = Ft_core.Sampler
module Vc = Ft_core.Vector_clock
module Ol = Ft_core.Ordered_list
module Trace = Ft_trace.Trace
module Sharded = Ft_shard.Sharded
module Clock = Ft_support.Clock
module Stats = Ft_support.Stats
module Db_sim = Ft_workloads.Db_sim
module Classic = Ft_workloads.Classic
module Harness = Ft_tsan.Harness
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
  mutable bechamel : bool;
  mutable events : int option;
  mutable runs : int option;
  mutable jobs : int;
  mutable phase : string;
}

let options =
  { figure = "all"; full = false; bechamel = true; events = None; runs = None; jobs = 1;
    phase = "current" }

let parse_args () =
  let spec =
    [
      ( "--figure",
        Arg.String (fun s -> options.figure <- s),
        "FIG  only this figure (5a..9, ablation, shards, cluster)" );
      ("--full", Arg.Unit (fun () -> options.full <- true), "  paper-scale sizes");
      ("--no-bechamel", Arg.Unit (fun () -> options.bechamel <- false), "  skip micro-timings");
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
  Arg.parse spec (fun _ -> ()) "bench/main.exe [options]"

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

let add_tsan_rows (ms : Harness.measurement list) =
  List.iter
    (fun (m : Harness.measurement) ->
      let base extra =
        ("benchmark", Json.Str m.Harness.benchmark)
        :: ("events", Json.Int m.Harness.events)
        :: extra
      in
      let rel t = t /. Float.max m.Harness.nt 1e-12 in
      if wants "5a" then begin
        add_row "5a"
          (base [ ("engine", Json.Str "ET"); ("rate", jf 1.0); ("wall_s", jf m.et);
                  ("rel_nt", jf (rel m.et)) ]);
        add_row "5a"
          (base [ ("engine", Json.Str "FT"); ("rate", jf 1.0); ("wall_s", jf m.ft);
                  ("rel_nt", jf (rel m.ft)) ]);
        List.iter
          (fun (r : Harness.rate_result) ->
            add_row "5a"
              (base [ ("engine", Json.Str "ST"); ("rate", jf r.rate);
                      ("wall_s", jf r.st_time); ("rel_nt", jf (rel r.st_time)) ]))
          m.per_rate
      end;
      if wants "5b" then
        List.iter
          (fun (r : Harness.rate_result) ->
            let ao_st = Harness.ao m ~time:r.st_time in
            let row eng time =
              let ao = Harness.ao m ~time in
              base
                [ ("engine", Json.Str eng); ("rate", jf r.rate); ("wall_s", jf time);
                  ("ao_s", jf ao); ("ao_st_s", jf ao_st);
                  ("improvement", jf (1.0 -. (ao /. Float.max ao_st 1e-12))) ]
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
              (base [ ("engine", Json.Str "SU"); ("rate", jf r.rate);
                      ("wall_s", jf r.su_time);
                      ("sync_full_work_ratio", jf (Metrics.sync_full_work_ratio r.su_metrics)) ]))
          m.per_rate;
      if wants "6c" then
        List.iter
          (fun (r : Harness.rate_result) ->
            add_row "6c"
              (base [ ("engine", Json.Str "SO"); ("rate", jf r.rate);
                      ("wall_s", jf r.so_time);
                      ("mean_entries_per_acquire", jf (Metrics.mean_entries_per_acquire r.so_metrics));
                      ("saved_traversal_ratio", jf (Metrics.saved_traversal_ratio r.so_metrics)) ]))
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

(* --- bechamel section ------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let tpcc = Option.get (Db_sim.profile "tpcc") in
  let trace = Db_sim.generate tpcc ~seed:3 ~target_events:20_000 in
  let sampler = Sampler.bernoulli ~rate:0.03 ~seed:3 in
  let clock_size = 64 in
  let engine_run id () = Engine.run_instrumented id ~sampler ~clock_size trace in
  let pc = Option.get (Classic.find "producerconsumer") in
  let pc_trace = pc.Classic.generate ~seed:3 ~scale:4 in
  let offline id rate () =
    let s = if rate >= 1.0 then Sampler.all else Sampler.bernoulli ~rate ~seed:3 in
    Engine.run id ~sampler:s pc_trace
  in
  (* ablation micro-benches: the data-structure operations the figures hinge
     on — a full vector-clock join versus ordered-list prefix absorption *)
  let vc_a = Vc.create 64 and vc_b = Vc.create 64 in
  Vc.set vc_b 7 1_000_000;
  let ol = Ol.create 64 in
  Ol.set ol 7 1_000_000;
  [
    Test.make ~name:"fig5a: NT replay" (Staged.stage (fun () -> Detector.replay_only trace));
    Test.make ~name:"fig5a: ET instrumented replay"
      (Staged.stage (fun () -> Detector.replay_instrumented trace));
    Test.make ~name:"fig5a: FT full detection" (Staged.stage (engine_run Engine.Fasttrack));
    Test.make ~name:"fig5a: ST 3% analysis" (Staged.stage (engine_run Engine.St));
    Test.make ~name:"fig5b: SU 3% analysis" (Staged.stage (engine_run Engine.Su));
    Test.make ~name:"fig5b: SO 3% analysis" (Staged.stage (engine_run Engine.So));
    Test.make ~name:"fig6: SU metrics run" (Staged.stage (offline Engine.Su 0.03));
    Test.make ~name:"fig6: SO metrics run" (Staged.stage (offline Engine.So 0.03));
    Test.make ~name:"fig7-9: SU-(100%) offline" (Staged.stage (offline Engine.Su 1.0));
    Test.make ~name:"fig7-9: SO-(100%) offline" (Staged.stage (offline Engine.So 1.0));
    Test.make ~name:"ablation: vector-clock join (T=64)"
      (Staged.stage (fun () -> Vc.join ~into:vc_a vc_b));
    Test.make ~name:"ablation: ordered-list 1-entry absorb (T=64)"
      (Staged.stage (fun () ->
           let stale = ref 0 in
           Ol.iter_prefix ol 1 (fun _ v -> stale := v);
           !stale));
    Test.make ~name:"ablation: ordered-list deep copy (T=64)"
      (Staged.stage (fun () -> Ol.deep_copy ol));
  ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  print_endline "Bechamel micro-timings (one test per table/figure)";
  print_endline "==================================================";
  let cfg = Benchmark.cfg ~limit:1200 ~quota:(Time.second 0.4) ~kde:None () in
  let instances = [ Instance.monotonic_clock ] in
  let tests = Test.make_grouped ~name:"freshtrack" (bechamel_tests ()) in
  let raw = Benchmark.all cfg instances tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (t :: _) -> t
        | Some [] | None -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  let rows = List.sort compare !rows in
  List.iter
    (fun (name, ns) ->
      let pretty =
        if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
        else Printf.sprintf "%8.1f ns" ns
      in
      Printf.printf "  %-45s %s/run\n" name pretty)
    rows;
  print_newline ()

(* --- pipeline vs plain -------------------------------------------------------- *)

(* Wall clock of the pipelined online detector — the front (sampler + sync
   engine) on this domain, one checker on another — against the plain
   engine on the same trace: SO at 3% and 10% on a sync-heavy trace (tpcc)
   and an access-heavy one (hyadapt).  One JSON row per (workload, rate).
   The two are timed in [shard_repeats] alternating rounds (plain first in
   odd rounds, the pipeline first in even ones), so drift on a shared host
   hits both alike; each row holds the median wall of each with its first
   and third quartiles.  Verdict exactness is enforced inline: every
   pipeline run must report the plain engine's race count, or the figure
   aborts. *)
let shard_repeats = 7

let run_shard_grid ~target_events =
  print_newline ();
  print_endline "Pipeline vs plain: SO engine, a front and one checker domain";
  print_endline "=============================================================";
  (* Time [f] into [walls.(i)] and answer its race count. *)
  let time_into walls i f =
    let t0 = Clock.now_ns () in
    let r = f () in
    walls.(i) <- Clock.elapsed_s ~since:t0;
    List.length r.Ft_core.Detector.races
  in
  let quartiles walls =
    (Stats.percentile walls 25.0, Stats.median walls, Stats.percentile walls 75.0)
  in
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
          let pipeline () =
            let sh = Sharded.create ~engine:Engine.So config in
            Trace.iteri (fun i e -> Sharded.handle sh i e) trace;
            let result = Sharded.result sh in
            Sharded.stop sh;
            result
          in
          let plain_walls = Array.make shard_repeats 0.0
          and walls = Array.make shard_repeats 0.0 in
          let races = ref 0 in
          for i = 0 to shard_repeats - 1 do
            let expected, got =
              if i mod 2 = 0 then
                let expected = time_into plain_walls i plain in
                (expected, time_into walls i pipeline)
              else
                let got = time_into walls i pipeline in
                (time_into plain_walls i plain, got)
            in
            if got <> expected then
              failwith
                (Printf.sprintf
                   "pipeline figure: %s at %g reports %d races but the plain engine \
                    reported %d"
                   wname rate got expected);
            races := got
          done;
          let q1, wall_s, q3 = quartiles walls in
          let plain_q1, plain_s, plain_q3 = quartiles plain_walls in
          let events_per_s = float_of_int events /. Float.max wall_s 1e-9 in
          add_row "shards"
            [ ("workload", Json.Str wname);
              ("engine", Json.Str (Engine.name Engine.So));
              ("rate", jf rate);
              ("events", Json.Int events);
              ("repeats", Json.Int shard_repeats);
              ("wall_s", jf wall_s);
              ("wall_s_q1", jf q1);
              ("wall_s_q3", jf q3);
              ("events_per_s", jf events_per_s);
              ("plain_wall_s", jf plain_s);
              ("plain_wall_s_q1", jf plain_q1);
              ("plain_wall_s_q3", jf plain_q3);
              ("races", Json.Int !races) ];
          Printf.printf
            "{\"figure\": \"shards\", \"workload\": %S, \"rate\": %g, \"events\": %d, \
             \"wall_s\": %.6f, \"wall_s_q1\": %.6f, \"wall_s_q3\": %.6f, \
             \"plain_wall_s\": %.6f, \"plain_wall_s_q1\": %.6f, \"plain_wall_s_q3\": %.6f, \
             \"races\": %d}\n%!"
            wname rate events wall_s q1 q3 plain_s plain_q1 plain_q3 !races)
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
   rows of an optimization land in the same BENCH_fig7.json; [rel_nt]
   normalizes by the NT replay speed of the same trace on the same machine,
   which is what the CI regression gate compares — raw events/sec are not
   portable across runners. *)
let run_fig7_throughput ~target_events ~clock_size ~repeats =
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
  let time f =
    let best = ref infinity in
    for _ = 1 to repeats do
      let t0 = Clock.now_ns () in
      ignore (Sys.opaque_identity (f ()));
      let dt = Clock.elapsed_s ~since:t0 in
      if dt < !best then best := dt
    done;
    !best
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
      let nt_wall = time (fun () -> Detector.replay_only trace) in
      let nt_eps = float_of_int events /. Float.max nt_wall 1e-9 in
      List.iter
        (fun (id, rate) ->
          let sampler =
            if rate >= 1.0 then Sampler.all else Sampler.bernoulli ~rate ~seed:11
          in
          let wall_s = time (fun () -> Engine.run id ~sampler ~clock_size trace) in
          let eps = float_of_int events /. Float.max wall_s 1e-9 in
          add_row "fig7"
            [ ("phase", Json.Str options.phase);
              ("benchmark", Json.Str bname);
              ("engine", Json.Str (Engine.name id));
              ("rate", jf rate);
              ("scale", Json.Int scale);
              ("clock_size", Json.Int clock_size);
              ("events", Json.Int events);
              ("wall_s", jf wall_s);
              ("events_per_s", jf eps);
              ("nt_events_per_s", jf nt_eps);
              ("rel_nt", jf (eps /. Float.max nt_eps 1e-9)) ];
          Printf.printf "  %-18s %-10s rate %4.0f%%  %9.0f ev/s  (%.3f of NT)\n%!" bname
            (Engine.name id) (rate *. 100.0) eps (eps /. Float.max nt_eps 1e-9))
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
      ~clock_size ~repeats:5;
  (* Bechamel last: its GC stabilization (per-sample compactions) perturbs
     the wall-clock comparisons above if run first. *)
  if options.bechamel then begin
    print_newline ();
    run_bechamel ()
  end;
  write_bench_files ()
