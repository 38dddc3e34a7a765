(* lib/fault — deterministic fault injection, and the recovery machinery it
   exists to exercise:

   - the fault layer itself: spec parsing, stateless per-(seed,point,lane,hit)
     schedule determinism, pass-through when disarmed or p=0, single-shot
     [arm_exact], io_len/torn_len contracts;
   - the REPORT byte-identity oracle: chaos schedules over shard.step /
     spsc.push across engines × samplers × K — every supervised run, however
     many workers crash and heal, must match the fault-free unsharded run
     exactly (races, merged metrics, rendered report);
   - a QCheck property: killing one random shard at one random message cut,
     with a random kind, for a random engine/sampler/K, changes nothing;
   - bounded restarts: a deterministic always-failing fault exhausts the
     budget and fails fast with [Sharded.Shard_failed];
   - checkpoint durability: a torn write leaves the previous .ftc intact and
     loadable;
   - the serve daemon: connect backoff against a slow-starting server,
     SIGTERM graceful shutdown (final checkpoint + metrics dump) followed by
     an exact resume, and a chaos-armed session whose REPORT still matches
     analyze. *)

module Trace = Ft_trace.Trace
module Trace_gen = Ft_trace.Trace_gen
module Prng = Ft_support.Prng
module Engine = Ft_core.Engine
module Detector = Ft_core.Detector
module Sampler = Ft_core.Sampler
module Metrics = Ft_core.Metrics
module Checkpoint = Ft_snapshot.Checkpoint
module Sharded = Ft_shard.Sharded
module Serve = Ft_shard.Serve
module Fault = Ft_fault.Fault

let with_disarm f = Fun.protect ~finally:Fault.disarm f

(* --- the fault layer itself ------------------------------------------------ *)

let test_parse () =
  (match Fault.parse "42" with
  | Ok c ->
    Alcotest.(check int) "seed" 42 c.Fault.seed;
    Alcotest.(check bool) "parsed configs log" true c.Fault.log
  | Error msg -> Alcotest.failf "plain seed rejected: %s" msg);
  (match Fault.parse "7:p=0.5,points=shard.step+spsc.push,kinds=exn+delay,max=3,delay=0.002" with
  | Ok c ->
    Alcotest.(check (float 1e-9)) "p" 0.5 c.Fault.prob;
    Alcotest.(check (option (list string)))
      "points"
      (Some [ "shard.step"; "spsc.push" ])
      c.Fault.points;
    Alcotest.(check bool) "kinds" true (c.Fault.kinds = Some [ Fault.Exn; Fault.Delay ]);
    Alcotest.(check (option int)) "max" (Some 3) c.Fault.max_fires;
    Alcotest.(check (float 1e-9)) "delay" 0.002 c.Fault.delay_s;
    (* the rendered spec reparses to the same config *)
    (match Fault.parse (Fault.spec_of_config c) with
    | Ok c' -> Alcotest.(check bool) "spec roundtrip" true (c = c')
    | Error msg -> Alcotest.failf "rendered spec rejected: %s" msg)
  | Error msg -> Alcotest.failf "full spec rejected: %s" msg);
  List.iter
    (fun bad ->
      match Fault.parse bad with
      | Ok _ -> Alcotest.failf "bad spec %S accepted" bad
      | Error _ -> ())
    [ "x"; "1:p=2.0"; "1:kinds=nuke"; "1:max=-1"; "1:wat=1"; "1:points" ]

(* Whether the n-th hit of a point fires is a pure function of
   (seed, point, lane, hit): replaying the same hit sequence replays the
   same incidents, and a different seed gives a different schedule. *)
let test_schedule_deterministic () =
  with_disarm @@ fun () ->
  let drive () =
    for lane = 0 to 2 do
      for _ = 1 to 400 do
        try Fault.point ~lane ~supports:[ Fault.Exn ] "shard.step"
        with Fault.Injected _ -> ()
      done
    done;
    Fault.incidents ()
  in
  let c = { (Fault.default ~seed:123) with Fault.prob = 0.02 } in
  Fault.arm c;
  let first = drive () in
  Fault.arm c;
  let second = drive () in
  Alcotest.(check bool) "some faults fired" true (List.length first > 0);
  Alcotest.(check bool) "same seed, same incidents" true (first = second);
  Fault.arm { c with Fault.seed = 124 };
  let other = drive () in
  Alcotest.(check bool) "different seed, different schedule" true (first <> other)

let test_pass_through () =
  with_disarm @@ fun () ->
  (* disarmed: the checks counter does not even tick (counters reset on
     [arm], not on [disarm], so compare against a baseline) *)
  Fault.disarm ();
  let c0 = Fault.checks () in
  Fault.point "shard.step";
  Alcotest.(check int) "disarmed counts nothing" c0 (Fault.checks ());
  (* armed with p=0: every point is exercised, nothing fires *)
  Fault.arm { (Fault.default ~seed:1) with Fault.prob = 0.0 };
  for _ = 1 to 100 do
    Fault.point "shard.step";
    Alcotest.(check int) "io_len unchanged" 4096 (Fault.io_len "serve.recv" 4096);
    Alcotest.(check bool) "torn_len none" true (Fault.torn_len "checkpoint.write" 64 = None)
  done;
  Alcotest.(check int) "checks prove the points ran" 300 (Fault.checks ());
  Alcotest.(check int) "p=0 fires nothing" 0 (Fault.fired ())

let test_arm_exact () =
  with_disarm @@ fun () ->
  Fault.arm_exact ~lane:1 ~point:"shard.step" ~hit:3 Fault.Exn;
  let fired_at = ref [] in
  for hit = 1 to 6 do
    (* the scheduled lane *)
    (try Fault.point ~lane:1 ~supports:[ Fault.Exn ] "shard.step"
     with Fault.Injected _ -> fired_at := hit :: !fired_at);
    (* other lanes and points never fire *)
    Fault.point ~lane:0 ~supports:[ Fault.Exn ] "shard.step";
    Fault.point ~lane:1 ~supports:[ Fault.Exn ] "spsc.push"
  done;
  Alcotest.(check (list int)) "fired exactly once, at hit 3" [ 3 ] !fired_at;
  Alcotest.(check int) "fired counter" 1 (Fault.fired ())

(* --- the chaos oracle ------------------------------------------------------- *)

let chaos_trace =
  lazy
    (let prng = Prng.create ~seed:77 in
     Trace_gen.random prng
       {
         Trace_gen.nthreads = 4;
         nlocks = 3;
         nlocs = 12;
         length = 600;
         atomics = true;
         forkjoin = true;
       })

let config_for trace sampler =
  {
    Detector.nthreads = trace.Trace.nthreads;
    nlocks = trace.Trace.nlocks;
    nlocs = trace.Trace.nlocs;
    clock_size = trace.Trace.nthreads;
    sampler;
  }

let run_unsharded id config trace =
  let (module D : Detector.S) = Engine.detector id in
  let d = D.create config in
  Trace.iteri (fun i e -> D.handle d i e) trace;
  D.result d

(* The result, the restarts and how many of them restored a published
   snapshot rather than a fresh instance. *)
let run_supervised ?(max_restarts = 16) id ~shards config trace =
  let sh = Sharded.create ~engine:id ~shards ~supervise:true ~max_restarts config in
  Fun.protect ~finally:(fun () -> Sharded.stop sh) @@ fun () ->
  Trace.iteri (fun i e -> Sharded.handle sh i e) trace;
  let result = Sharded.result sh in
  let snapshot_heals =
    Array.fold_left
      (fun acc (s : Sharded.supervision) -> acc + s.Sharded.snapshot_heals)
      0 (Sharded.supervision sh)
  in
  (result, Sharded.restarts_total sh, snapshot_heals)

let same_result ~events a b =
  a.Detector.races = b.Detector.races
  && Metrics.to_array a.Detector.metrics = Metrics.to_array b.Detector.metrics
  && String.equal (Serve.report_text ~events a) (Serve.report_text ~events b)

(* Fault schedules × engines × samplers × K: every chaos run must end with
   state byte-identical to the fault-free run, and recoveries must exercise
   the restore-then-replay path, not just full replays from a fresh
   instance. *)
let test_chaos_grid () =
  with_disarm @@ fun () ->
  let trace = Lazy.force chaos_trace in
  let events = Trace.length trace in
  let engines = Engine.all @ [ Engine.Eraser ] in
  let samplers =
    [
      ("all", Sampler.all);
      ("bernoulli", Sampler.bernoulli ~rate:0.3 ~seed:11);
      ("adaptive", Sampler.adaptive ~base_rate:4);
    ]
  in
  let total_fired = ref 0 and total_restarts = ref 0 and total_snapshot_heals = ref 0 in
  let cell = ref 0 in
  List.iter
    (fun id ->
      List.iter
        (fun (sname, sampler) ->
          let config = config_for trace sampler in
          Fault.disarm ();
          let expected = run_unsharded id config trace in
          List.iter
            (fun k ->
              incr cell;
              (* a fresh schedule per cell sweeps seeds too *)
              Fault.arm
                {
                  (Fault.default ~seed:(1000 + !cell)) with
                  Fault.prob = 0.01;
                  points = Some [ "shard.step"; "spsc.push" ];
                  kinds = Some [ Fault.Exn; Fault.Crash_domain; Fault.Delay ];
                  max_fires = Some 8;
                  delay_s = 0.0002;
                };
              let got, restarts, snapshot_heals = run_supervised id ~shards:k config trace in
              total_fired := !total_fired + Fault.fired ();
              total_restarts := !total_restarts + restarts;
              total_snapshot_heals := !total_snapshot_heals + snapshot_heals;
              Fault.disarm ();
              if not (same_result ~events expected got) then
                Alcotest.failf "chaos diverged: %s/%s K=%d seed=%d" (Engine.name id) sname
                  k (1000 + !cell))
            [ 1; 2; 4 ])
        samplers)
    engines;
  Alcotest.(check bool) "the sweep injected faults" true (!total_fired > 0);
  Alcotest.(check bool) "some faults killed workers" true (!total_restarts > 0);
  Alcotest.(check bool) "some heals restored a published snapshot" true
    (!total_snapshot_heals > 0)

(* Satellite property: killing one random shard at one random message cut,
   for a random engine × sampler × K, yields races and merged metrics
   identical to the unfaulted run.  The shard's first request lands right
   behind its first message, so from the second message on every heal
   restores a published snapshot. *)
let kill_samplers =
  [
    Sampler.all;
    Sampler.none;
    Sampler.bernoulli ~rate:0.3 ~seed:11;
    Sampler.every_nth 3;
    Sampler.cold_region ~threshold:3;
    Sampler.adaptive ~base_rate:4;
  ]

let kill_engines = Engine.all @ [ Engine.Eraser ]

type kill_case = {
  engine_ix : int;
  sampler_ix : int;
  k : int;
  lane : int;
  cut : int;
  crash : bool;  (* Crash_domain (domain dies) vs Exn (handler raises) *)
}

let kill_gen =
  QCheck.Gen.(
    let* engine_ix = int_bound (List.length kill_engines - 1) in
    let* sampler_ix = int_bound (List.length kill_samplers - 1) in
    let* k = int_range 1 4 in
    let* lane = int_bound (k - 1) in
    let* cut = int_range 1 400 in
    let* crash = bool in
    return { engine_ix; sampler_ix; k; lane; cut; crash })

let print_kill c =
  Printf.sprintf "engine=%s sampler#%d K=%d lane=%d cut=%d kind=%s"
    (Engine.name (List.nth kill_engines c.engine_ix))
    c.sampler_ix c.k c.lane c.cut
    (if c.crash then "crash_domain" else "exn")

let kill_one_shard_test =
  QCheck.Test.make ~count:30 ~name:"killing any shard at any cut changes nothing"
    (QCheck.make ~print:print_kill kill_gen) (fun c ->
      with_disarm @@ fun () ->
      let trace = Lazy.force chaos_trace in
      let id = List.nth kill_engines c.engine_ix in
      let config = config_for trace (List.nth kill_samplers c.sampler_ix) in
      Fault.disarm ();
      let expected = run_unsharded id config trace in
      Fault.arm_exact ~lane:c.lane ~point:"shard.step" ~hit:c.cut
        (if c.crash then Fault.Crash_domain else Fault.Exn);
      let got, restarts, snapshot_heals = run_supervised id ~shards:c.k config trace in
      Fault.disarm ();
      same_result ~events:(Trace.length trace) expected got
      && (c.cut < 2 || snapshot_heals = restarts))

(* A resumed detector's first restore points are its checkpoint snapshots:
   a shard killed at its first message after the resume heals from the
   checkpoint, not from a fresh instance that never saw the prefix. *)
let test_resumed_shard_heals_from_checkpoint () =
  with_disarm @@ fun () ->
  let trace = Lazy.force chaos_trace in
  let n = Trace.length trace in
  List.iter
    (fun id ->
      let config = config_for trace (Sampler.bernoulli ~rate:0.3 ~seed:11) in
      let expected = run_unsharded id config trace in
      let first = Sharded.create ~engine:id ~shards:2 config in
      for i = 0 to (n / 2) - 1 do
        Sharded.handle first i (Trace.get trace i)
      done;
      let snaps = Sharded.shard_snapshots first in
      let router = Sharded.router_snapshot first in
      Sharded.stop first;
      let sh = Sharded.restore ~engine:id ~shards:2 ~supervise:true config ~router snaps in
      Fun.protect ~finally:(fun () -> Sharded.stop sh) @@ fun () ->
      Fault.arm_exact ~lane:0 ~point:"shard.step" ~hit:1 Fault.Crash_domain;
      for i = n / 2 to n - 1 do
        Sharded.handle sh i (Trace.get trace i)
      done;
      let got = Sharded.result sh in
      Fault.disarm ();
      Alcotest.(check int) (Engine.name id ^ ": one heal") 1 (Sharded.restarts_total sh);
      Alcotest.(check int)
        (Engine.name id ^ ": it restored the checkpoint")
        1 (Sharded.supervision sh).(0).Sharded.snapshot_heals;
      if not (same_result ~events:n expected got) then
        Alcotest.failf "%s: resumed shard healed into a different state" (Engine.name id))
    [ Engine.So; Engine.Fasttrack ]

let test_restart_budget_fails_fast () =
  with_disarm @@ fun () ->
  let trace = Lazy.force chaos_trace in
  let config = config_for trace Sampler.all in
  Fault.arm
    {
      (Fault.default ~seed:5) with
      Fault.prob = 1.0;
      points = Some [ "shard.step" ];
      kinds = Some [ Fault.Exn ];
    };
  let sh = Sharded.create ~engine:Engine.So ~shards:2 ~supervise:true ~max_restarts:2 config in
  let outcome =
    try
      Trace.iteri (fun i e -> Sharded.handle sh i e) trace;
      Sharded.flush sh;
      None
    with Sharded.Shard_failed msg -> Some msg
  in
  Fault.disarm ();
  (try Sharded.stop sh with Sharded.Shard_failed _ -> ());
  match outcome with
  | None -> Alcotest.fail "an always-failing shard must exhaust its restart budget"
  | Some msg ->
    let contains ~sub s =
      let n = String.length sub and m = String.length s in
      let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
      at 0
    in
    Alcotest.(check bool)
      "diagnostic names the budget" true
      (contains ~sub:"restart budget" msg)

(* --- checkpoint durability --------------------------------------------------- *)

let sample_checkpoint payload =
  {
    Checkpoint.meta =
      {
        Checkpoint.engine = Engine.So;
        sampler = "all";
        nthreads = 2;
        nlocks = 1;
        nlocs = 4;
        clock_size = 2;
        next_index = 10;
        byte_offset = -1;
      };
    detector = payload;
  }

let test_torn_write_keeps_previous () =
  with_disarm @@ fun () ->
  let path = Filename.temp_file "ftfault" ".ftc" in
  Fun.protect ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".tmp" ])
  @@ fun () ->
  Checkpoint.save path (sample_checkpoint "generation-A");
  Fault.arm_exact ~point:"checkpoint.write" ~hit:1 Fault.Torn_write;
  (match Checkpoint.save path (sample_checkpoint "generation-B") with
  | () -> Alcotest.fail "torn write must raise"
  | exception Fault.Injected _ -> ());
  Fault.disarm ();
  (match Checkpoint.load path with
  | Ok cp ->
    Alcotest.(check string) "previous checkpoint survives the torn write" "generation-A"
      cp.Checkpoint.detector
  | Error msg -> Alcotest.failf "previous checkpoint unreadable after torn write: %s" msg);
  (* and with the fault gone, the overwrite goes through *)
  Checkpoint.save path (sample_checkpoint "generation-B");
  match Checkpoint.load path with
  | Ok cp -> Alcotest.(check string) "clean save lands" "generation-B" cp.Checkpoint.detector
  | Error msg -> Alcotest.failf "clean save unreadable: %s" msg

(* --- the serve daemon --------------------------------------------------------- *)

let dir_counter = ref 0

let temp_dir () =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ftfault-%d-%d" (Unix.getpid ()) !dir_counter)
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

let server_config ?checkpoint_dir ?resume_dir ?metrics_json ?chaos ~engine ~shards ~sampler
    socket =
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

let start_server ?(delay_s = 0.0) cfg =
  match Unix.fork () with
  | 0 ->
    (try
       if delay_s > 0.0 then Unix.sleepf delay_s;
       Serve.run cfg
     with exn ->
       Printf.eprintf "server died: %s\n%!" (Printexc.to_string exn);
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

(* The backoff loop must tolerate a server that takes a while to bind, and
   report how hard it had to try. *)
let test_connect_backoff () =
  with_temp_dir @@ fun dir ->
  let socket = Filename.concat dir "serve.sock" in
  let cfg = server_config ~engine:Engine.So ~shards:1 ~sampler:Sampler.all socket in
  let pid = start_server ~delay_s:0.4 cfg in
  Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
  let fd, attempts = Serve.connect_stats ~deadline_s:15.0 ~seed:3 (Serve.Unix_path socket) in
  Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
  Alcotest.(check bool)
    (Printf.sprintf "slow bind forces retries (attempts=%d)" attempts)
    true (attempts > 1);
  get_ok "shutdown" (Serve.shutdown fd);
  reap pid

(* SIGTERM is a graceful shutdown: the daemon drains, writes a final
   checkpoint set and the metrics dump, and a successor resumes exactly. *)
let test_sigterm_graceful_then_resume () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.Su and sampler = Sampler.bernoulli ~rate:0.4 ~seed:9 in
  let trace = sample_trace ~seed:21 ~length:1_500 in
  let expected = expected_report ~engine ~sampler trace in
  let socket = Filename.concat dir "serve.sock" in
  let ckpt = Filename.concat dir "ckpt" in
  let metrics_json = Filename.concat dir "metrics.json" in
  Unix.mkdir ckpt 0o700;
  Fun.protect ~finally:(fun () -> rm_rf ckpt) @@ fun () ->
  let batches = Array.of_list (slices trace ~batch:250) in
  let cfg =
    server_config ~engine ~shards:3 ~sampler ~checkpoint_dir:ckpt ~metrics_json socket
  in
  let pid = start_server cfg in
  let status =
    Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
    let fd = Serve.connect (Serve.Unix_path socket) in
    Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
    for i = 0 to 2 do
      let base, sub = batches.(i) in
      ignore (get_ok "pre-SIGTERM batch" (Serve.send_batch fd ~base sub))
    done;
    Unix.kill pid Sys.sigterm;
    let _, status = Unix.waitpid [] pid in
    status
  in
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> Alcotest.failf "SIGTERM exit code %d (want 0)" n
  | _ -> Alcotest.fail "SIGTERM did not produce a clean exit");
  Alcotest.(check bool) "metrics dump written on SIGTERM" true (Sys.file_exists metrics_json);
  Alcotest.(check bool)
    "final checkpoint set written on SIGTERM" true
    (Sys.file_exists (Filename.concat ckpt "set.ftc"));
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  (* successor: resume, blindly resend everything, expect the exact report *)
  let pid =
    start_server
      (server_config ~engine ~shards:3 ~sampler ~checkpoint_dir:ckpt ~resume_dir:ckpt socket)
  in
  Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
  let fd = Serve.connect (Serve.Unix_path socket) in
  Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
  let base0, sub0 = batches.(0) in
  let total = get_ok "resend 0" (Serve.send_batch fd ~base:base0 sub0) in
  Alcotest.(check int) "resumed from the SIGTERM checkpoint" 750 total;
  Array.iteri
    (fun i (base, sub) ->
      if i > 0 then ignore (get_ok "resend" (Serve.send_batch fd ~base sub)))
    batches;
  let report = get_ok "post-resume report" (Serve.fetch_report fd) in
  Alcotest.(check string) "SIGTERM + resume ≡ analyze" expected report;
  get_ok "shutdown" (Serve.shutdown fd);
  reap pid

(* A chaos-armed daemon — worker crashes, ring delays, recv hiccups, torn
   checkpoint writes — still answers with the exact report. *)
let test_serve_with_chaos () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.So and sampler = Sampler.bernoulli ~rate:0.3 ~seed:5 in
  let trace = sample_trace ~seed:31 ~length:1_500 in
  let expected = expected_report ~engine ~sampler trace in
  let socket = Filename.concat dir "serve.sock" in
  let ckpt = Filename.concat dir "ckpt" in
  Unix.mkdir ckpt 0o700;
  Fun.protect ~finally:(fun () -> rm_rf ckpt) @@ fun () ->
  let chaos =
    match
      Fault.parse
        "11:p=0.004,points=shard.step+spsc.push+serve.recv+checkpoint.write,kinds=exn+crash_domain+delay+torn_write,delay=0.0002,max=8"
    with
    | Ok c -> c
    | Error msg -> Alcotest.failf "chaos spec rejected: %s" msg
  in
  let cfg = server_config ~engine ~shards:3 ~sampler ~checkpoint_dir:ckpt ~chaos socket in
  let pid = start_server cfg in
  Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
  let fd = Serve.connect (Serve.Unix_path socket) in
  Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
  List.iter
    (fun (base, sub) -> ignore (get_ok "chaos batch" (Serve.send_batch fd ~base sub)))
    (slices trace ~batch:200);
  let report = get_ok "chaos report" (Serve.fetch_report fd) in
  Alcotest.(check string) "chaos serve ≡ analyze" expected report;
  get_ok "shutdown" (Serve.shutdown fd);
  reap pid

let () =
  Alcotest.run "fault"
    [
      ( "layer",
        [
          Alcotest.test_case "--chaos spec parsing" `Quick test_parse;
          Alcotest.test_case "schedule is a pure function of the seed" `Quick
            test_schedule_deterministic;
          Alcotest.test_case "pass-through when disarmed or p=0" `Quick test_pass_through;
          Alcotest.test_case "arm_exact fires once at the named hit" `Quick test_arm_exact;
        ] );
      (* the serve group forks daemons, and [Unix.fork] is only legal while
         this process has never spawned a domain — so it must run before the
         oracle group, whose supervised runs spawn shard domains in-process *)
      ( "serve",
        [
          Alcotest.test_case "connect backs off against a slow server" `Quick
            test_connect_backoff;
          Alcotest.test_case "SIGTERM: graceful shutdown then exact resume" `Quick
            test_sigterm_graceful_then_resume;
          Alcotest.test_case "chaos-armed daemon still reports exactly" `Quick
            test_serve_with_chaos;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "chaos grid: schedules × engines × samplers × K" `Quick
            test_chaos_grid;
          QCheck_alcotest.to_alcotest kill_one_shard_test;
          Alcotest.test_case "resumed shard heals from its checkpoint" `Quick
            test_resumed_shard_heals_from_checkpoint;
          Alcotest.test_case "restart budget fails fast" `Quick
            test_restart_budget_fails_fast;
        ] );
      ( "durability",
        [
          Alcotest.test_case "torn write keeps the previous checkpoint" `Quick
            test_torn_write_keeps_previous;
        ] );
    ]
