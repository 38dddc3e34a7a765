(* lib/fault — deterministic fault injection, and the recovery machinery it
   exists to exercise:

   - the fault layer itself: spec parsing, stateless per-(seed,point,lane,hit)
     schedule determinism, pass-through when disarmed or p=0, single-shot
     [arm_exact], io_len/torn_len contracts;
   - the REPORT byte-identity oracle: chaos schedules over shard.step /
     spsc.push across engines × samplers, three schedules a cell, on the
     pipelined detector (a front and one checker domain) — a failed
     checker fails the detector fast, and recovery is the one checkpoint +
     resume path (restore the newest checker + router snapshots, replay
     from their event count); every recovered run must match the
     fault-free plain run exactly (races, merged metrics, rendered report);
   - a QCheck property: killing the checker at one random message cut, for
     a random engine/sampler, changes nothing once resumed;
   - fail-fast: the first injected fault raises [Sharded.Shard_failed], and
     [stop] joins the checker's domain before raising it again;
   - checkpoint durability: a torn write leaves the previous .ftc intact and
     loadable;
   - the serve daemon: connect backoff against a slow-starting server,
     SIGTERM graceful shutdown (final checkpoint + metrics dump) followed by
     an exact resume, a checker fault that fails the daemon fast followed by
     an exact resume, and a chaos-armed session whose REPORT, resumed when
     a fault killed it, still matches analyze. *)

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

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

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

(* Feed [trace] to a pipelined detector, checkpointing (the checker's
   snapshot plus the router's) every [every] events.  A [Shard_failed]
   stops the detector, restores the newest checkpoint — or starts fresh
   when there is none — and replays from its event count: the one
   recovery path.  Answers the result, the recoveries, and how many of
   them restored a checkpoint rather than starting fresh.  The fault
   schedule bounds the faults; [max_recoveries] bounds the loop. *)
let run_resumed ?(every = 50) ?(max_recoveries = 16) id config trace =
  let n = Trace.length trace in
  let newest = ref None and recoveries = ref 0 and from_ckpt = ref 0 in
  let rec run sh =
    match
      for i = Sharded.events sh to n - 1 do
        Sharded.handle sh i (Trace.get trace i);
        if (i + 1) mod every = 0 then begin
          let checker = Sharded.shard_snapshot sh in
          newest := Some (Sharded.router_snapshot sh, checker)
        end
      done;
      Sharded.result sh
    with
    | result ->
      Sharded.stop sh;
      (result, !recoveries, !from_ckpt)
    | exception Sharded.Shard_failed _ when !recoveries < max_recoveries ->
      (try Sharded.stop sh with Sharded.Shard_failed _ -> ());
      incr recoveries;
      run
        (match !newest with
        | None -> Sharded.create ~engine:id config
        | Some (router, checker) ->
          incr from_ckpt;
          Sharded.restore ~engine:id config ~router checker)
  in
  run (Sharded.create ~engine:id config)

let same_result ~events a b =
  a.Detector.races = b.Detector.races
  && Metrics.to_array a.Detector.metrics = Metrics.to_array b.Detector.metrics
  && String.equal (Serve.report_text ~events a) (Serve.report_text ~events b)

(* Fault schedules × engines × samplers, three schedules a cell: every
   chaos run, resumed after each fault, must end with state byte-identical
   to the fault-free run, and recoveries must exercise the
   restore-then-replay path, not just full replays from a fresh
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
  let total_fired = ref 0 and total_recoveries = ref 0 and total_from_ckpt = ref 0 in
  let cell = ref 0 in
  List.iter
    (fun id ->
      List.iter
        (fun (sname, sampler) ->
          let config = config_for trace sampler in
          Fault.disarm ();
          let expected = run_unsharded id config trace in
          List.iter
            (fun () ->
              incr cell;
              (* a fresh schedule per cell sweeps seeds too *)
              Fault.arm
                {
                  (Fault.default ~seed:(1000 + !cell)) with
                  Fault.prob = 0.01;
                  points = Some [ "shard.step"; "spsc.push" ];
                  kinds = Some [ Fault.Exn; Fault.Delay ];
                  max_fires = Some 8;
                  delay_s = 0.0002;
                };
              let got, recoveries, from_ckpt = run_resumed id config trace in
              total_fired := !total_fired + Fault.fired ();
              total_recoveries := !total_recoveries + recoveries;
              total_from_ckpt := !total_from_ckpt + from_ckpt;
              Fault.disarm ();
              if not (same_result ~events expected got) then
                Alcotest.failf "chaos diverged: %s/%s seed=%d" (Engine.name id) sname
                  (1000 + !cell))
            [ (); (); () ])
        samplers)
    engines;
  Alcotest.(check bool) "the sweep injected faults" true (!total_fired > 0);
  Alcotest.(check bool) "some faults killed workers" true (!total_recoveries > 0);
  Alcotest.(check bool) "some recoveries restored a checkpoint" true (!total_from_ckpt > 0)

(* Killing the checker at one random message cut, for a random engine ×
   sampler, yields races and merged metrics identical to the unfaulted run
   once resumed, and each fired fault costs exactly one recovery. *)
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
  cut : int;
}

let kill_gen =
  QCheck.Gen.(
    let* engine_ix = int_bound (List.length kill_engines - 1) in
    let* sampler_ix = int_bound (List.length kill_samplers - 1) in
    let* cut = int_range 1 400 in
    return { engine_ix; sampler_ix; cut })

let print_kill c =
  Printf.sprintf "engine=%s sampler#%d cut=%d"
    (Engine.name (List.nth kill_engines c.engine_ix))
    c.sampler_ix c.cut

let kill_one_shard_test =
  QCheck.Test.make ~count:30 ~name:"killing any shard at any cut changes nothing"
    (QCheck.make ~print:print_kill kill_gen) (fun c ->
      with_disarm @@ fun () ->
      let trace = Lazy.force chaos_trace in
      let id = List.nth kill_engines c.engine_ix in
      let config = config_for trace (List.nth kill_samplers c.sampler_ix) in
      Fault.disarm ();
      let expected = run_unsharded id config trace in
      Fault.arm_exact ~lane:0 ~point:"shard.step" ~hit:c.cut Fault.Exn;
      let got, recoveries, _ = run_resumed id config trace in
      let fired = Fault.fired () in
      Fault.disarm ();
      same_result ~events:(Trace.length trace) expected got && recoveries = fired)

(* A detector resumed from a checkpoint whose checker fails at its first
   message fails fast; resuming again from the same checkpoint reaches the
   uninterrupted result. *)
let test_resumed_fails_then_re_resumes () =
  with_disarm @@ fun () ->
  let trace = Lazy.force chaos_trace in
  let n = Trace.length trace in
  let feed sh =
    for i = Sharded.events sh to n - 1 do
      Sharded.handle sh i (Trace.get trace i)
    done;
    Sharded.result sh
  in
  List.iter
    (fun id ->
      let name = Engine.name id in
      let config = config_for trace (Sampler.bernoulli ~rate:0.3 ~seed:11) in
      let expected = run_unsharded id config trace in
      let first = Sharded.create ~engine:id config in
      for i = 0 to (n / 2) - 1 do
        Sharded.handle first i (Trace.get trace i)
      done;
      let checker = Sharded.shard_snapshot first in
      let router = Sharded.router_snapshot first in
      Sharded.stop first;
      let resumed = Sharded.restore ~engine:id config ~router checker in
      Fault.arm_exact ~lane:0 ~point:"shard.step" ~hit:1 Fault.Exn;
      (match feed resumed with
      | _ -> Alcotest.failf "%s: a failed checker must fail the resumed detector" name
      | exception Sharded.Shard_failed _ -> ());
      Fault.disarm ();
      (match Sharded.stop resumed with
      | () -> Alcotest.failf "%s: stop must re-raise the failure after joining" name
      | exception Sharded.Shard_failed _ -> ());
      let again = Sharded.restore ~engine:id config ~router checker in
      Alcotest.(check int) (name ^ ": resumes at the checkpoint") (n / 2) (Sharded.events again);
      let got = feed again in
      Sharded.stop again;
      if not (same_result ~events:n expected got) then
        Alcotest.failf "%s: re-resumed detector reached a different state" name)
    [ Engine.So; Engine.Fasttrack ]

(* The checker fails at its first message.  The fault surfaces as
   [Shard_failed] naming the shard and the fault, every later operation
   raises it too, and [stop] returns — the checker's domain joined —
   before raising it once more. *)
let test_first_fault_fails_fast () =
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
  let sh = Sharded.create ~engine:Engine.So config in
  let outcome =
    try
      Trace.iteri (fun i e -> Sharded.handle sh i e) trace;
      Sharded.flush sh;
      None
    with Sharded.Shard_failed msg -> Some msg
  in
  let fired = Fault.fired () in
  Fault.disarm ();
  let stop_raised = try Sharded.stop sh; None with Sharded.Shard_failed msg -> Some msg in
  match outcome with
  | None -> Alcotest.fail "a failed checker must fail the detector"
  | Some msg ->
    Alcotest.(check bool)
      (Printf.sprintf "diagnostic names the shard and the fault: %s" msg)
      true
      (contains ~sub:"failed: " msg && contains ~sub:"point=shard.step" msg);
    Alcotest.(check int) "one fault: the checker leaves its loop" 1 fired;
    Alcotest.(check (option string)) "stop joins, then raises the same failure" (Some msg)
      stop_raised;
    Alcotest.(check (option string))
      "every later operation raises it" (Some msg)
      (try ignore (Sharded.result sh); None with Sharded.Shard_failed m -> Some m)

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

let server_config ?checkpoint_dir ?resume_dir ?metrics_json ?chaos ~engine ~sampler socket =
  {
    Serve.listen = Serve.Unix_path socket;
    engine;
    shards = 1;
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

(* [before] runs in the child, e.g. to arm a single-shot fault. *)
let start_server ?(delay_s = 0.0) ?(before = ignore) cfg =
  match Unix.fork () with
  | 0 ->
    (try
       if delay_s > 0.0 then Unix.sleepf delay_s;
       before ();
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

(* Send [batches] in order; the first refusal stops the stream (a daemon
   that failed fast answers [ERR] with its diagnostic, then closes). *)
let send_until_refused fd batches =
  let rec go i =
    if i = Array.length batches then None
    else
      let base, sub = batches.(i) in
      match Serve.send_batch fd ~base sub with Ok _ -> go (i + 1) | Error msg -> Some msg
  in
  go 0

(* A successor daemon resumed from [ckpt], fed a blind resend of every
   batch: the total its first resend answers (the resumed cut, when that
   batch lies inside it) and its REPORT. *)
let resume_and_report ~engine ~sampler ~ckpt socket batches =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let pid =
    start_server
      (server_config ~engine ~sampler ~checkpoint_dir:ckpt ~resume_dir:ckpt socket)
  in
  Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
  let fd = Serve.connect (Serve.Unix_path socket) in
  Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
  let totals = Array.map (fun (base, sub) -> get_ok "resend" (Serve.send_batch fd ~base sub)) batches in
  let report = get_ok "resumed report" (Serve.fetch_report fd) in
  get_ok "shutdown" (Serve.shutdown fd);
  reap pid;
  (totals.(0), report)

(* A daemon that failed fast must exit by itself, non-zero; waiting is
   bounded so a daemon that keeps running fails the test instead of
   hanging it. *)
let check_failed_exit what pid =
  let until = Unix.gettimeofday () +. 10.0 in
  let rec status () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () > until ->
      Alcotest.failf "%s: the failed daemon is still running" what
    | 0, _ ->
      Unix.sleepf 0.02;
      status ()
    | _, st -> st
  in
  match status () with
  | Unix.WEXITED 0 -> Alcotest.failf "%s: a failed daemon exited 0" what
  | Unix.WEXITED _ -> ()
  | _ -> Alcotest.failf "%s: the daemon did not exit normally" what

(* The backoff loop must tolerate a server that takes a while to bind, and
   report how hard it had to try. *)
let test_connect_backoff () =
  with_temp_dir @@ fun dir ->
  let socket = Filename.concat dir "serve.sock" in
  let cfg = server_config ~engine:Engine.So ~sampler:Sampler.all socket in
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
    server_config ~engine ~sampler ~checkpoint_dir:ckpt ~metrics_json socket
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
  (* successor: resume, blindly resend everything, expect the exact report *)
  let total, report = resume_and_report ~engine ~sampler ~ckpt socket batches in
  Alcotest.(check int) "resumed from the SIGTERM checkpoint" 750 total;
  Alcotest.(check string) "SIGTERM + resume ≡ analyze" expected report

(* A checker fault fails the daemon fast: the batch that meets it answers
   [ERR] with the diagnostic and the daemon exits non-zero, leaving its
   last good set on disk.  A successor resumed from that set, fed a blind
   resend of the whole trace, reports exactly what analyze does. *)
let test_shard_fault_fails_fast_then_resume () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.So and sampler = Sampler.bernoulli ~rate:0.3 ~seed:5 in
  let trace = sample_trace ~seed:41 ~length:1_500 in
  let n = Trace.length trace in
  let expected = expected_report ~engine ~sampler trace in
  let socket = Filename.concat dir "serve.sock" in
  let ckpt = Filename.concat dir "ckpt" in
  Unix.mkdir ckpt 0o700;
  Fun.protect ~finally:(fun () -> rm_rf ckpt) @@ fun () ->
  let batches = Array.of_list (slices trace ~batch:100) in
  let pid =
    start_server
      ~before:(fun () -> Fault.arm_exact ~lane:0 ~point:"shard.step" ~hit:80 Fault.Exn)
      (server_config ~engine ~sampler ~checkpoint_dir:ckpt socket)
  in
  (Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
   let fd = Serve.connect (Serve.Unix_path socket) in
   match
     Fun.protect ~finally:(fun () -> Serve.close fd) (fun () -> send_until_refused fd batches)
   with
   | None -> Alcotest.fail "the checker fault must fail the daemon"
   | Some msg ->
     Alcotest.(check bool)
       (Printf.sprintf "ERR names the shard and the fault: %s" msg)
       true
       (contains ~sub:"ERR shard 0 failed: " msg && contains ~sub:"point=shard.step" msg);
     check_failed_exit "shard fault" pid);
  let cut, report = resume_and_report ~engine ~sampler ~ckpt socket batches in
  Alcotest.(check bool)
    (Printf.sprintf "resumed inside the stream (cut %d of %d)" cut n)
    true
    (cut > 100 && cut < n);
  Alcotest.(check string) "fail fast + resume ≡ analyze" expected report

(* A BATCH ack means the batch is durable: a torn write of the N-th set —
   the one that would cover batch N — answers [ERR] for batch N, fails the
   daemon fast and keeps the previous set.  A successor resumed from that
   set, fed a blind resend of the whole trace, reports exactly what
   analyze does. *)
let test_checkpoint_fault_fails_fast_then_resume () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.So and sampler = Sampler.bernoulli ~rate:0.3 ~seed:5 in
  let trace = sample_trace ~seed:43 ~length:1_500 in
  let expected = expected_report ~engine ~sampler trace in
  let socket = Filename.concat dir "serve.sock" in
  let ckpt = Filename.concat dir "ckpt" in
  Unix.mkdir ckpt 0o700;
  Fun.protect ~finally:(fun () -> rm_rf ckpt) @@ fun () ->
  let batches = Array.of_list (slices trace ~batch:100) in
  let hit = 6 in
  let pid =
    start_server
      ~before:(fun () -> Fault.arm_exact ~point:"checkpoint.write" ~hit Fault.Torn_write)
      (server_config ~engine ~sampler ~checkpoint_dir:ckpt socket)
  in
  (Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
   let fd = Serve.connect (Serve.Unix_path socket) in
   let rec send i =
     if i = Array.length batches then None
     else
       let base, sub = batches.(i) in
       match Serve.send_batch fd ~base sub with
       | Ok _ -> send (i + 1)
       | Error msg -> Some (i, msg)
   in
   match Fun.protect ~finally:(fun () -> Serve.close fd) (fun () -> send 0) with
   | None -> Alcotest.fail "the torn checkpoint write must fail the daemon"
   | Some (i, msg) ->
     Alcotest.(check int) "the batch whose set tore is refused" (hit - 1) i;
     Alcotest.(check bool)
       (Printf.sprintf "ERR names the failed write: %s" msg)
       true
       (contains ~sub:"ERR checkpoint write failed: " msg
       && contains ~sub:"point=checkpoint.write" msg);
     check_failed_exit "torn checkpoint write" pid);
  let cut, report = resume_and_report ~engine ~sampler ~ckpt socket batches in
  Alcotest.(check int) "resumed from the set before the torn one" ((hit - 1) * 100) cut;
  Alcotest.(check string) "torn write + resume ≡ analyze" expected report

(* A chaos-armed daemon — checker faults, ring delays, recv hiccups, torn
   checkpoint writes — still ends with the exact report: directly when no
   fault failed it (the checker or a set write), else through a successor
   resumed from the last good set. *)
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
        "11:p=0.004,points=shard.step+spsc.push+serve.recv+checkpoint.write,kinds=exn+delay+torn_write,delay=0.0002,max=8"
    with
    | Ok c -> c
    | Error msg -> Alcotest.failf "chaos spec rejected: %s" msg
  in
  let batches = Array.of_list (slices trace ~batch:200) in
  let pid =
    start_server (server_config ~engine ~sampler ~checkpoint_dir:ckpt ~chaos socket)
  in
  let outcome =
    Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
    let fd = Serve.connect (Serve.Unix_path socket) in
    let outcome =
      Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
      match send_until_refused fd batches with
      | Some msg -> Error msg
      | None -> (
        match Serve.fetch_report fd with
        | Ok report ->
          get_ok "shutdown" (Serve.shutdown fd);
          Ok report
        | Error msg -> Error msg)
    in
    (match outcome with
    | Ok _ -> reap pid
    | Error msg ->
      Alcotest.(check bool) ("refusal names a failed shard: " ^ msg) true
        (contains ~sub:"failed: " msg);
      check_failed_exit "chaos" pid);
    outcome
  in
  let report =
    match outcome with
    | Ok report -> report
    | Error _ -> snd (resume_and_report ~engine ~sampler ~ckpt socket batches)
  in
  Alcotest.(check string) "chaos serve ≡ analyze" expected report

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
         oracle group, whose pipelined runs spawn checker domains in-process *)
      ( "serve",
        [
          Alcotest.test_case "connect backs off against a slow server" `Quick
            test_connect_backoff;
          Alcotest.test_case "SIGTERM: graceful shutdown then exact resume" `Quick
            test_sigterm_graceful_then_resume;
          Alcotest.test_case "shard fault fails fast, then an exact resume" `Quick
            test_shard_fault_fails_fast_then_resume;
          Alcotest.test_case "chaos-armed daemon still reports exactly" `Quick
            test_serve_with_chaos;
          Alcotest.test_case "torn checkpoint write: ERR, fail fast, exact resume" `Quick
            test_checkpoint_fault_fails_fast_then_resume;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "chaos grid: schedules × engines × samplers" `Quick
            test_chaos_grid;
          QCheck_alcotest.to_alcotest kill_one_shard_test;
          Alcotest.test_case
            "resumed detector fails at its first message and re-resumes to the same result"
            `Quick test_resumed_fails_then_re_resumes;
          Alcotest.test_case
            "the first injected fault raises Shard_failed and stop joins the domain" `Quick
            test_first_fault_fails_fast;
        ] );
      ( "durability",
        [
          Alcotest.test_case "torn write keeps the previous checkpoint" `Quick
            test_torn_write_keeps_previous;
        ] );
    ]
