(* The §2 validator ({!Ft_trace.Validator}), the one implementation of the
   trace semantics that every event stream meets:

   - its rejections, case by case, with the exact message;
   - a live monitor built from it and an engine (as
     examples/online_monitor.ml builds one) finds the offline races;
   - QCheck: on random traces with mutated sync events it rejects at the
     same index with the same message as the reference whole-trace check
     it replaced (Ref_engines.Well_formed), also when its state is saved
     and loaded at a random cut, and [Trace.well_formed] agrees;
   - the saved state is range-checked on load. *)

module Event = Ft_trace.Event
module Trace = Ft_trace.Trace
module Trace_gen = Ft_trace.Trace_gen
module Validator = Ft_trace.Validator
module Prng = Ft_support.Prng
module Engine = Ft_core.Engine
module Detector = Ft_core.Detector
module Sampler = Ft_core.Sampler
module Race = Ft_core.Race

(* Step [(thread, op)] events through a fresh validator over 3 threads and
   2 locks: [None] if every one is accepted, else the first rejection. *)
let run events =
  let v = Validator.create ~nthreads:3 ~nlocks:2 in
  match List.iteri (fun i (t, op) -> Validator.step v i (Event.mk t op)) events with
  | () -> None
  | exception Validator.Ill_formed msg -> Some msg

let accepts what events = Alcotest.(check (option string)) what None (run events)
let rejects what msg events = Alcotest.(check (option string)) what (Some msg) (run events)

let test_lock_validation () =
  rejects "release unheld" "event 0: thread 0 releases lock 0 it does not hold"
    [ (0, Event.Release 0) ];
  rejects "double acquire" "event 1: thread 1 acquires lock 0 held by thread 0"
    [ (0, Event.Acquire 0); (1, Event.Acquire 0) ];
  rejects "re-entrant acquire" "event 1: thread 0 acquires lock 0 held by thread 0"
    [ (0, Event.Acquire 0); (0, Event.Acquire 0) ];
  rejects "release by non-holder" "event 1: thread 1 releases lock 0 it does not hold"
    [ (0, Event.Acquire 0); (1, Event.Release 0) ];
  accepts "hand-over" [ (0, Event.Acquire 0); (0, Event.Release 0); (1, Event.Acquire 0) ]

let test_fork_join_validation () =
  let forked = [ (0, Event.Fork 1); (1, Event.Write 0); (0, Event.Join 1) ] in
  accepts "fork, act, join" forked;
  rejects "fork twice" "event 1: thread 1 forked twice or already running"
    [ (0, Event.Fork 1); (0, Event.Fork 1) ];
  rejects "fork itself" "event 0: thread 0 forks itself" [ (0, Event.Fork 0) ];
  rejects "self join" "event 1: thread 1 joins itself" [ (0, Event.Fork 1); (1, Event.Join 1) ];
  rejects "act after join" "event 3: thread 1 acts after being joined"
    (forked @ [ (1, Event.Write 0) ]);
  rejects "join twice" "event 3: thread 1 joined twice" (forked @ [ (0, Event.Join 1) ])

let test_join_lifecycle () =
  (* thread 2 never forked and never acted: joining it is a lost wakeup *)
  rejects "join of a never-forked thread"
    "event 0: thread 2 joined before being forked or started" [ (0, Event.Join 2) ];
  (* thread 1 acts without a fork (an initial thread), so it may be joined *)
  accepts "join of an initial thread" [ (1, Event.Write 0); (0, Event.Join 1) ];
  (* thread 0 is running from the start *)
  accepts "join of thread 0" [ (2, Event.Join 0) ];
  rejects "fork of thread 0" "event 0: thread 0 forked twice or already running"
    [ (1, Event.Fork 0) ];
  rejects "fork of a running thread" "event 1: thread 1 forked twice or already running"
    [ (1, Event.Read 0); (0, Event.Fork 1) ]

let test_mixed_sync_styles () =
  rejects "mutex used atomically" "event 1: sync object 0 mixes mutex and atomic use"
    [ (0, Event.Acquire 0); (0, Event.Release_store 0) ];
  rejects "atomic used as a mutex" "event 1: sync object 1 mixes mutex and atomic use"
    [ (0, Event.Acquire_load 1); (1, Event.Release 1) ];
  rejects "a released mutex stays a mutex" "event 2: sync object 0 mixes mutex and atomic use"
    [ (0, Event.Acquire 0); (0, Event.Release 0); (1, Event.Release_store 0) ];
  accepts "atomics need no holder"
    [ (0, Event.Acquire_load 1); (1, Event.Release_store 1); (2, Event.Acquire_load 1) ]

(* A live monitor: every event meets the validator, then the engine. *)
let monitor engine trace =
  let (module D : Detector.S) = Engine.detector engine in
  let d =
    D.create
      {
        Detector.nthreads = trace.Trace.nthreads;
        nlocks = trace.Trace.nlocks;
        nlocs = trace.Trace.nlocs;
        clock_size = trace.Trace.nthreads;
        sampler = Sampler.all;
      }
  in
  let v = Validator.create ~nthreads:trace.Trace.nthreads ~nlocks:trace.Trace.nlocks in
  Trace.iteri
    (fun i e ->
      Validator.step v i e;
      D.handle d i e)
    trace;
  D.result d

let test_basic_detection () =
  let r =
    monitor Engine.So (Trace.of_events [| Event.mk 0 (Event.Write 0); Event.mk 1 (Event.Write 0) |])
  in
  Alcotest.(check (list int)) "race found" [ 0 ] (Detector.racy_locations r)

let test_matches_offline () =
  let prng = Prng.create ~seed:31 in
  for i = 0 to 20 do
    let params =
      { Trace_gen.default with Trace_gen.nthreads = 2 + (i mod 4); length = 80; forkjoin = true }
    in
    let trace = Trace_gen.random prng params in
    Alcotest.(check (list int))
      (Printf.sprintf "iteration %d" i)
      (Race.indices (Engine.run Engine.So trace).Detector.races)
      (Race.indices (monitor Engine.So trace).Detector.races)
  done

(* --- agreement with the reference ----------------------------------------- *)

type case = { seed : int; params : Trace_gen.params; mutations : int; cut_frac : float }

let case_gen =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let* nthreads = int_range 2 6 in
    let* nlocks = int_range 1 4 in
    let* nlocs = int_range 1 6 in
    let* length = int_range 10 120 in
    let* atomics = bool in
    let* forkjoin = bool in
    let* mutations = int_bound 3 in
    let* cut_frac = float_bound_inclusive 1.0 in
    return
      {
        seed;
        params = { Trace_gen.nthreads; nlocks; nlocs; length; atomics; forkjoin };
        mutations;
        cut_frac;
      })

let print_case c =
  Printf.sprintf "seed=%d threads=%d locks=%d len=%d atomics=%b fj=%b mutations=%d cut=%.2f"
    c.seed c.params.Trace_gen.nthreads c.params.Trace_gen.nlocks c.params.Trace_gen.length
    c.params.Trace_gen.atomics c.params.Trace_gen.forkjoin c.mutations c.cut_frac

(* A generated (well-formed) trace with [mutations] events overwritten by
   random sync events over the same universe. *)
let mutated c =
  let prng = Prng.create ~seed:c.seed in
  let t = Trace_gen.random prng c.params in
  let events = Array.copy t.Trace.events in
  let n = Array.length events in
  if n > 0 then
    for _ = 1 to c.mutations do
      let th () = Prng.int prng t.Trace.nthreads in
      let l () = Prng.int prng (Stdlib.max 1 t.Trace.nlocks) in
      let op =
        match Prng.int prng 6 with
        | 0 -> Event.Acquire (l ())
        | 1 -> Event.Release (l ())
        | 2 -> Event.Release_store (l ())
        | 3 -> Event.Acquire_load (l ())
        | 4 -> Event.Fork (th ())
        | _ -> Event.Join (th ())
      in
      events.(Prng.int prng n) <- Event.mk (th ()) op
    done;
  Trace.make ~nthreads:t.Trace.nthreads ~nlocks:(Stdlib.max 1 t.Trace.nlocks)
    ~nlocs:t.Trace.nlocs events

(* The validator over [trace], its state saved and loaded before event
   [cut]. *)
let stepped trace ~cut =
  let nthreads = trace.Trace.nthreads and nlocks = trace.Trace.nlocks in
  let v = ref (Validator.create ~nthreads ~nlocks) in
  match
    Trace.iteri
      (fun i e ->
        if i = cut then
          v :=
            (match Validator.of_ints ~nthreads ~nlocks (Validator.to_ints !v) with
            | Ok v -> v
            | Error msg -> failwith ("reload: " ^ msg));
        Validator.step !v i e)
      trace
  with
  | () -> Ok ()
  | exception Validator.Ill_formed msg -> Error msg

let agrees_with_reference =
  QCheck.Test.make ~name:"≡ reference on mutated traces, saved and loaded at a cut" ~count:400
    (QCheck.make ~print:print_case case_gen) (fun c ->
      let trace = mutated c in
      let cut = int_of_float (c.cut_frac *. float_of_int (Trace.length trace)) in
      let want = Ref_engines.Well_formed.check trace in
      let show = function Ok () -> "accepted" | Error msg -> msg in
      if stepped trace ~cut <> want then
        QCheck.Test.fail_reportf "validator: %s, reference: %s" (show (stepped trace ~cut))
          (show want);
      if Trace.well_formed trace <> want then
        QCheck.Test.fail_reportf "Trace.well_formed: %s, reference: %s"
          (show (Trace.well_formed trace)) (show want);
      true)

(* Enough mutated traces are ill-formed that the property checks
   rejections, not just acceptance. *)
let test_property_sees_rejections () =
  let prng = Prng.create ~seed:3 in
  let rejected = ref 0 in
  for seed = 1 to 200 do
    let c =
      {
        seed;
        params = { Trace_gen.default with Trace_gen.forkjoin = true; atomics = seed mod 2 = 0 };
        mutations = 1 + Prng.int prng 3;
        cut_frac = 0.5;
      }
    in
    if Ref_engines.Well_formed.check (mutated c) <> Ok () then incr rejected
  done;
  Alcotest.(check bool) (Printf.sprintf "%d of 200 rejected" !rejected) true (!rejected >= 50)

let test_state_range_checked () =
  let v = Validator.create ~nthreads:3 ~nlocks:2 in
  List.iteri (fun i (t, op) -> Validator.step v i (Event.mk t op))
    [ (0, Event.Fork 1); (1, Event.Acquire 1); (2, Event.Release_store 0) ];
  let ints = Validator.to_ints v in
  Alcotest.(check int) "one int per thread and lock" 5 (Array.length ints);
  (match Validator.of_ints ~nthreads:3 ~nlocks:2 ints with
  | Ok v' -> Alcotest.(check (array int)) "round trip" ints (Validator.to_ints v')
  | Error msg -> Alcotest.failf "rejected its own state: %s" msg);
  let refused what ~nthreads ~nlocks a =
    match Validator.of_ints ~nthreads ~nlocks a with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" what
  in
  refused "wrong size" ~nthreads:3 ~nlocks:3 ints;
  List.iter
    (fun (k, x) ->
      let a = Array.copy ints in
      a.(k) <- x;
      refused (Printf.sprintf "entry %d = %d" k x) ~nthreads:3 ~nlocks:2 a)
    [ (0, -1); (1, 4); (3, 3); (4, -4) ]

let () =
  Alcotest.run "validator"
    [
      ( "monitor",
        [
          Alcotest.test_case "basic detection" `Quick test_basic_detection;
          Alcotest.test_case "lock validation" `Quick test_lock_validation;
          Alcotest.test_case "fork/join validation" `Quick test_fork_join_validation;
          Alcotest.test_case "join lifecycle" `Quick test_join_lifecycle;
          Alcotest.test_case "mixed sync styles" `Quick test_mixed_sync_styles;
          Alcotest.test_case "matches offline runs" `Quick test_matches_offline;
        ] );
      ( "validator",
        [
          QCheck_alcotest.to_alcotest agrees_with_reference;
          Alcotest.test_case "mutations produce rejections" `Quick test_property_sees_rejections;
          Alcotest.test_case "saved state is range-checked" `Quick test_state_range_checked;
        ] );
    ]
