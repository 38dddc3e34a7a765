(* What the benchmark runs and what it reports.  BENCHMARK.json at the
   repository root mirrors these tables; the smoke test fails when the two
   disagree. *)

module Engine = Ft_core.Engine

type system =
  | Analyze  (** [Runner.analyze_file] over a .ftb file, in process *)
  | Serve  (** one [Serve.run] daemon per session: 1 shard, no checkpoints *)
  | Route of int  (** [Router.run] with this many workers, WAL and checkpoints on *)

type workload = {
  name : string;
  why : string;
  profile : string;  (** [Db_sim] profile *)
  events : int;  (** trace length; per session for the daemons *)
  engine : Engine.id;
  rate : float;  (** Bernoulli sampling rate; 1.0 samples every access *)
  clock_size : int option;
  system : system;
}

let workloads =
  [
    {
      name = "analyze-tpcc-so-3pct";
      why =
        "the paper's headline setting: Alg 4 at 3% on a sync-heavy server trace with \
         256-entry clocks; sync handlers, sampler and decode do the work";
      profile = "tpcc";
      events = 2_000_000;
      engine = Engine.So;
      rate = 0.03;
      clock_size = Some 256;
      system = Analyze;
    };
    {
      name = "analyze-hyadapt-o1u-full";
      why =
        "the same layers the other way round: 93% accesses, every one checked by o1-u \
         at rate 1, so access handlers and decode do the work";
      profile = "hyadapt";
      events = 2_000_000;
      engine = Engine.O1u;
      rate = 1.0;
      clock_size = None;
      system = Analyze;
    };
    {
      name = "serve-tpcc-so-10pct";
      why =
        "the ingest path alone: socket, .ftb decode, supervised Sharded and detector, \
         with no router and no disk";
      profile = "tpcc";
      events = 400_000;
      engine = Engine.So;
      rate = 0.10;
      clock_size = None;
      system = Serve;
    };
    {
      name = "route-tpcc-so-10pct-k2";
      why =
        "the full durable cluster: routing, Cmsg sub-streams, WAL fsync before each ack \
         and worker checkpoints";
      profile = "tpcc";
      events = 400_000;
      engine = Engine.So;
      rate = 0.10;
      clock_size = None;
      system = Route 2;
    };
  ]

let workload name = List.find_opt (fun w -> w.name = name) workloads

(* Every client batch carries this many events; the streamed in-process pass
   of the analyze workloads uses the same size so batch latencies compare. *)
let batch_events = 512

type metric = {
  metric : string;
  unit : string;
  better : Stats.better;
  bound : float option;  (** end-to-end metrics only *)
}

let e2e metric unit better bound = { metric; unit; better; bound = Some bound }
let layer metric unit better = { metric; unit; better; bound = None }

(* Judged end-to-end metrics.  The time metrics are ratios to the ET replay
   (the paper's instrumentation-only baseline) of the same events, timed
   right next to the pass they divide: the speed of a shared host drifts by
   tens of percent for minutes at a time, and a ratio within one pair
   cancels it.  [setup_s] must stay in seconds, so it is the same kind of
   ratio brought back to seconds at a fixed reference speed (below). *)
let end_to_end =
  Stats.
    [
      e2e "slowdown" "x" Lower 0.20;
      e2e "ao_ratio" "x" Lower 0.20;
      e2e "batch_p50_x" "x" Lower 0.20;
      e2e "batch_p99_x" "x" Lower 0.25;
      e2e "setup_s" "s" Lower 0.25;
      e2e "peak_rss_mb" "MiB" Lower 0.10;
    ]

(* The same quantities in absolute units, printed with every run but not
   judged: on a shared host they move with its speed. *)
let absolute =
  Stats.
    [
      layer "events_per_s" "events/s" Higher;
      layer "ao_ns_per_event" "ns/event" Lower;
      layer "batch_ms_p50" "ms" Lower;
      layer "batch_ms_p99" "ms" Lower;
      layer "setup_raw_s" "s" Lower;
    ]

(* The reference speed of [setup_s]: ET at 20 ns per event, about what it
   costs on the 2-core host the bounds were set on.  A set-up sample divided
   by the ET replay timed just before it, times the trace's ET time at this
   speed, reads in seconds yet moves only with the code. *)
let reference_et_ns_per_event = 20.0

let at_reference_speed ~events ratio =
  ratio *. float_of_int events *. reference_et_ns_per_event *. 1e-9

let per_layer =
  Stats.
    [
      layer "trace_binary.busy_s" "s" Lower;
      layer "trace_binary.ns_per_event" "ns/event" Lower;
      layer "sampler.busy_s" "s" Lower;
      layer "sampler.ns_per_query" "ns/query" Lower;
      layer "detector.busy_s" "s" Lower;
      layer "detector.ns_per_event" "ns/event" Lower;
      layer "detector.live_mb" "MiB" Lower;
      layer "detector.sync.busy_s" "s" Lower;
      layer "detector.sync.acquires_skipped" "count" Higher;
      layer "detector.sync.skip_ratio" "fraction" Higher;
      layer "detector.sync.releases_processed" "count" Lower;
      layer "detector.sync.vc_full_ops" "count" Lower;
      layer "detector.sync.entries_traversed" "count" Lower;
      layer "detector.sync.deep_copies" "count" Lower;
      layer "detector.access.busy_s" "s" Lower;
      layer "detector.access.race_checks" "count" Lower;
      layer "detector.access.same_epoch_hits" "count" Higher;
      layer "instrumentation.et_s" "s" Lower;
      layer "gc.alloc_bytes_per_event" "bytes/event" Lower;
      layer "gc.major_collections" "count" Lower;
      layer "client.late_early_ratio" "ratio" Lower;
      layer "serve.ingest_share" "fraction" Lower;
      layer "sharded.events" "count" Lower;
      layer "sharded.restarts" "count" Lower;
      layer "router.ingest_share" "fraction" Lower;
      layer "router.marks_per_event" "ratio" Lower;
      layer "router.window_occupancy_max" "count" Lower;
      layer "router.respawns" "count" Lower;
      layer "router.send_failures" "count" Lower;
      layer "cmsg.messages_per_event" "ratio" Lower;
      layer "cmsg.worker_skew" "ratio" Lower;
      layer "wal.appends" "count" Lower;
      layer "wal.bytes_per_event" "bytes/event" Lower;
      layer "wal.fsync_share" "fraction" Lower;
      layer "worker.ingest_share_max" "fraction" Lower;
      layer "worker.checkpoints" "count" Lower;
      layer "bench.tracing_overhead" "fraction" Lower;
    ]

(* Layers that exist only inside the daemons, read from their STATS; the
   in-process workloads report 0 for them. *)
let daemon_layers =
  List.filter_map
    (fun m ->
      let layer = List.hd (String.split_on_char '.' m.metric) in
      if List.mem layer [ "serve"; "sharded"; "router"; "cmsg"; "wal"; "worker" ] then
        Some m.metric
      else None)
    per_layer

let all_metrics = end_to_end @ absolute @ per_layer
let find_metric name = List.find_opt (fun m -> m.metric = name) all_metrics
let better_name = function Stats.Higher -> "higher" | Stats.Lower -> "lower"

(* --- BENCHMARK.json ----------------------------------------------------------- *)

module Json = Ft_obs.Json

let field key j = Option.value (Json.member key j) ~default:Json.Null

(* Every disagreement between the tables above and a parsed BENCHMARK.json. *)
let check_benchmark_json (j : Json.t) =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let list key = match field key j with Json.Arr l -> l | _ -> [] in
  let str key o = Option.value (Json.to_str (field key o)) ~default:"" in
  let names = List.map (str "name") (list "workloads") in
  if names <> List.map (fun w -> w.name) workloads then
    err "workloads differ: %s" (String.concat ", " names);
  List.iter
    (fun o ->
      match workload (str "name" o) with
      | Some w when w.why <> str "why" o -> err "why of %s differs" w.name
      | _ -> ())
    (list "workloads");
  let check key expected =
    let got = list key in
    if List.map (str "name") got <> List.map (fun m -> m.metric) expected then
      err "%s names differ" key;
    List.iter
      (fun o ->
        match find_metric (str "name" o) with
        | None -> ()
        | Some m ->
          if str "unit" o <> m.unit then err "unit of %s differs" m.metric;
          if str "better" o <> better_name m.better then err "better of %s differs" m.metric;
          if Option.bind (Json.member "bound" o) Json.to_float <> m.bound then
            err "bound of %s differs" m.metric)
      got
  in
  check "end_to_end" end_to_end;
  check "per_layer" per_layer;
  List.rev !errors
