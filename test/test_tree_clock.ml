(* Tests for the tree-clock data structure: unit cases, structural
   invariants, and differential testing against vector clocks — a simulated
   DJIT+ run over random well-formed traces maintains thread and lock clocks
   with both structures and compares values after every event. *)

module Vc = Ft_core.Vector_clock
module Tc = Ft_core.Tree_clock
module Event = Ft_trace.Event
module Trace = Ft_trace.Trace
module Trace_gen = Ft_trace.Trace_gen
module Prng = Ft_support.Prng
module Engine = Ft_core.Engine
module Detector = Ft_core.Detector

let test_create () =
  let tc = Tc.create 4 ~owner:2 in
  Alcotest.(check int) "size" 4 (Tc.size tc);
  Alcotest.(check int) "root" 2 (Tc.root tc);
  for i = 0 to 3 do
    Alcotest.(check int) "bottom" 0 (Tc.get tc i)
  done;
  Alcotest.(check bool) "invariants" true (Tc.check_invariants tc)

let test_inc () =
  let tc = Tc.create 3 ~owner:0 in
  Tc.inc tc 1;
  Tc.inc tc 2;
  Alcotest.(check int) "root advanced" 3 (Tc.get tc 0);
  Alcotest.(check int) "others untouched" 0 (Tc.get tc 1)

let test_basic_join () =
  let a = Tc.create 3 ~owner:0 and b = Tc.create 3 ~owner:1 in
  Tc.inc a 1;
  Tc.inc b 5;
  Tc.join ~into:a b;
  Alcotest.(check int) "learned b" 5 (Tc.get a 1);
  Alcotest.(check int) "kept own" 1 (Tc.get a 0);
  Alcotest.(check bool) "a invariants" true (Tc.check_invariants a);
  (* joining again changes nothing *)
  Alcotest.(check int) "idempotent" 0 (Tc.join_count ~into:a b)

let test_transitive_join () =
  (* a learns b, b learns c, then a learns b again → a must know c *)
  let a = Tc.create 3 ~owner:0 and b = Tc.create 3 ~owner:1 and c = Tc.create 3 ~owner:2 in
  Tc.inc a 1;
  Tc.inc b 1;
  Tc.inc c 7;
  Tc.join ~into:b c;
  Tc.inc b 1 (* b's clock moves past the value a saw *);
  Tc.join ~into:a b;
  Alcotest.(check int) "a knows c through b" 7 (Tc.get a 2);
  Alcotest.(check int) "a knows b" 2 (Tc.get a 1);
  Alcotest.(check bool) "invariants" true (Tc.check_invariants a)

let test_monotone_copy () =
  let t1 = Tc.create 3 ~owner:1 in
  Tc.inc t1 4;
  let lock = Tc.create 3 ~owner:0 in
  Tc.monotone_copy ~into:lock t1;
  Alcotest.(check int) "root moved" 1 (Tc.root lock);
  Alcotest.(check int) "value copied" 4 (Tc.get lock 1);
  Alcotest.(check bool) "invariants" true (Tc.check_invariants lock);
  (* copy again with no change: early exit, still equal *)
  Tc.monotone_copy ~into:lock t1;
  Alcotest.(check int) "still equal" 4 (Tc.get lock 1)

let test_force_copy () =
  let t1 = Tc.create 3 ~owner:1 in
  Tc.inc t1 4;
  let sync = Tc.create 3 ~owner:2 in
  Tc.inc sync 9 (* sync carries unrelated (non-⊑) information *);
  Tc.force_copy ~into:sync t1;
  Alcotest.(check int) "overwritten" 0 (Tc.get sync 2);
  Alcotest.(check int) "copied" 4 (Tc.get sync 1);
  Alcotest.(check int) "root" 1 (Tc.root sync);
  Alcotest.(check bool) "invariants" true (Tc.check_invariants sync)

(* [raise_entry] after joins built a deep tree: values are the pointwise
   maximum, every invariant holds, a snapshot round-trips (decoding checks
   the invariants too), and joining from the raised clock still works. *)
let test_raise_entry () =
  let n = 5 in
  let tcs = Array.init n (fun i -> Tc.create n ~owner:i) in
  Array.iteri (fun i tc -> Tc.inc tc (i + 1)) tcs;
  Tc.join ~into:tcs.(1) tcs.(2);
  Tc.join ~into:tcs.(0) tcs.(1);
  Tc.join ~into:tcs.(0) tcs.(3);
  let tc = tcs.(0) in
  let expect = Array.init n (Tc.get tc) in
  List.iter
    (fun (v, w) ->
      Tc.raise_entry tc v w;
      expect.(v) <- Stdlib.max expect.(v) w;
      Alcotest.(check (array int))
        (Printf.sprintf "raise %d to %d" v w)
        expect
        (Array.init n (Tc.get tc));
      Alcotest.(check bool) "invariants" true (Tc.check_invariants tc))
    [ (2, 10); (1, 1); (4, 7); (0, 9); (2, 11); (3, 0) ];
  let enc = Ft_core.Snap.Enc.create () in
  Tc.encode enc tc;
  let tc' = Tc.decode (Ft_core.Snap.Dec.of_snap (Ft_core.Snap.Enc.to_snap enc)) ~size:n in
  Alcotest.(check (array int)) "snapshot" expect (Array.init n (Tc.get tc'));
  (* a join never teaches a thread its own entry: [other]'s owner is ahead *)
  let other = Tc.create n ~owner:3 in
  Tc.inc other 20;
  Tc.join ~into:other tc;
  Alcotest.(check (array int))
    "join from the raised clock"
    (Array.mapi (fun i v -> if i = 3 then 20 else v) expect)
    (Array.init n (Tc.get other));
  Alcotest.(check bool) "joined invariants" true (Tc.check_invariants other)

let test_leq_and_to_vc () =
  let a = Tc.create 2 ~owner:0 and b = Tc.create 2 ~owner:1 in
  Tc.inc a 1;
  Tc.inc b 2;
  Tc.join ~into:b a;
  Alcotest.(check bool) "a ⊑ b" true (Tc.leq a b);
  Alcotest.(check bool) "b ⋢ a" false (Tc.leq b a);
  Alcotest.(check (array int)) "snapshot" [| 1; 2 |] (Vc.to_array (Tc.to_vc b))

(* --- differential simulation -------------------------------------------- *)

(* Run DJIT+'s clock discipline over a trace twice — once with vector
   clocks, once with tree clocks — and compare all clock values after every
   event, checking tree invariants as we go. *)
let simulate trace =
  let n = trace.Trace.nthreads in
  let nlocks = Stdlib.max 1 trace.Trace.nlocks in
  let vcs = Array.init n (fun i -> let c = Vc.create n in Vc.set c i 1; c) in
  let tcs = Array.init n (fun i -> let c = Tc.create n ~owner:i in Tc.inc c 1; c) in
  let lock_vc = Array.init nlocks (fun _ -> Vc.create n) in
  let lock_tc = Array.init nlocks (fun i -> ignore i; Tc.create n ~owner:0) in
  let lock_used = Array.make nlocks false in
  let agree msg tc vc =
    for i = 0 to n - 1 do
      if Tc.get tc i <> Vc.get vc i then
        Alcotest.failf "%s: entry %d differs (tc=%d vc=%d)" msg i (Tc.get tc i) (Vc.get vc i)
    done;
    if not (Tc.check_invariants tc) then Alcotest.failf "%s: invariants broken" msg
  in
  Trace.iteri
    (fun idx (e : Event.t) ->
      let t = e.Event.thread in
      (match e.Event.op with
      | Event.Read _ | Event.Write _ -> ()
      | Event.Acquire l | Event.Acquire_load l ->
        if lock_used.(l) then begin
          Vc.join ~into:vcs.(t) lock_vc.(l);
          Tc.join ~into:tcs.(t) lock_tc.(l)
        end
      | Event.Release l ->
        lock_used.(l) <- true;
        Vc.copy_into ~into:lock_vc.(l) vcs.(t);
        if Tc.get lock_tc.(l) t < Tc.get tcs.(t) t then
          Tc.monotone_copy ~into:lock_tc.(l) tcs.(t);
        Vc.inc vcs.(t) t;
        Tc.inc tcs.(t) 1
      | Event.Release_store l ->
        lock_used.(l) <- true;
        Vc.copy_into ~into:lock_vc.(l) vcs.(t);
        Tc.force_copy ~into:lock_tc.(l) tcs.(t);
        Vc.inc vcs.(t) t;
        Tc.inc tcs.(t) 1
      | Event.Fork u ->
        Vc.join ~into:vcs.(u) vcs.(t);
        Tc.join ~into:tcs.(u) tcs.(t);
        Vc.inc vcs.(t) t;
        Tc.inc tcs.(t) 1
      | Event.Join u ->
        Vc.join ~into:vcs.(t) vcs.(u);
        Tc.join ~into:tcs.(t) tcs.(u));
      agree (Printf.sprintf "event %d (thread %d)" idx t) tcs.(t) vcs.(t);
      match e.Event.op with
      | Event.Release l | Event.Release_store l ->
        agree (Printf.sprintf "event %d (lock %d)" idx l) lock_tc.(l) lock_vc.(l)
      | Event.Read _ | Event.Write _ | Event.Acquire _ | Event.Acquire_load _ | Event.Fork _
      | Event.Join _ -> ())
    trace

let test_differential_random () =
  let prng = Prng.create ~seed:99 in
  for i = 0 to 40 do
    let params =
      {
        Trace_gen.nthreads = 2 + (i mod 5);
        nlocks = 1 + (i mod 4);
        nlocs = 2;
        length = 150;
        atomics = i mod 2 = 0;
        forkjoin = i mod 3 = 0;
      }
    in
    simulate (Trace_gen.random prng params)
  done

let qcheck_differential =
  QCheck.Test.make ~name:"tree clocks agree with vector clocks" ~count:150
    QCheck.(pair small_nat small_nat)
    (fun (seed, shape) ->
      let prng = Prng.create ~seed:(seed + 1) in
      let params =
        {
          Trace_gen.nthreads = 2 + (shape mod 6);
          nlocks = 1 + (shape mod 5);
          nlocs = 2;
          length = 100;
          atomics = shape mod 2 = 0;
          forkjoin = shape mod 3 = 0;
        }
      in
      simulate (Trace_gen.random prng params);
      true)

(* --- the detector built on tree clocks ---------------------------------- *)

let test_fasttrack_tc_matches_fasttrack () =
  let prng = Prng.create ~seed:123 in
  for i = 0 to 30 do
    let params =
      {
        Trace_gen.nthreads = 2 + (i mod 5);
        nlocks = i mod 4;
        nlocs = 1 + (i mod 4);
        length = 120;
        atomics = i mod 2 = 0;
        forkjoin = i mod 3 = 0;
      }
    in
    let trace = Trace_gen.random prng params in
    let expected = Detector.racy_locations (Engine.run Engine.Fasttrack trace) in
    let got = Detector.racy_locations (Engine.run Engine.Fasttrack_tc trace) in
    Alcotest.(check (list int)) (Printf.sprintf "iteration %d" i) expected got
  done

let () =
  Alcotest.run "tree_clock"
    [
      ( "unit",
        [
          Alcotest.test_case "create" `Quick test_create;
          Alcotest.test_case "inc" `Quick test_inc;
          Alcotest.test_case "basic join" `Quick test_basic_join;
          Alcotest.test_case "transitive join" `Quick test_transitive_join;
          Alcotest.test_case "monotone copy" `Quick test_monotone_copy;
          Alcotest.test_case "force copy" `Quick test_force_copy;
          Alcotest.test_case "leq / to_vc" `Quick test_leq_and_to_vc;
          Alcotest.test_case "raise entry" `Quick test_raise_entry;
        ] );
      ( "differential",
        [
          Alcotest.test_case "deterministic sweep" `Quick test_differential_random;
          QCheck_alcotest.to_alcotest qcheck_differential;
        ] );
      ( "detector",
        [
          Alcotest.test_case "fasttrack-tc = fasttrack" `Quick
            test_fasttrack_tc_matches_fasttrack;
        ] );
    ]
