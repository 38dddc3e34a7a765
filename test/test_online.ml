(* Tests for the online monitor (incremental validation + live race
   callbacks) and the binary trace format. *)

module Event = Ft_trace.Event
module Trace = Ft_trace.Trace
module Trace_gen = Ft_trace.Trace_gen
module Trace_binary = Ft_trace.Trace_binary
module Prng = Ft_support.Prng
module Online = Ft_core.Online
module Engine = Ft_core.Engine
module Detector = Ft_core.Detector
module Race = Ft_core.Race

let ok = function
  | Ok () -> ()
  | Error { Online.reason; _ } -> Alcotest.failf "unexpected rejection: %s" reason

let rejected msg = function
  | Ok () -> Alcotest.failf "expected rejection: %s" msg
  | Error (_ : Online.rejection) -> ()

let monitor ?on_race () = Online.create ?on_race ~nthreads:3 ~nlocks:2 ~nlocs:2 ()

let test_basic_detection () =
  let m = monitor () in
  ok (Online.write m 0 0);
  ok (Online.write m 1 0);
  Alcotest.(check int) "events" 2 (Online.events_seen m);
  Alcotest.(check (list int)) "race found" [ 0 ] (Online.racy_locations m)

let test_on_race_callback () =
  let fired = ref [] in
  let m = monitor ~on_race:(fun r -> fired := r.Race.index :: !fired) () in
  ok (Online.write m 0 0);
  Alcotest.(check (list int)) "quiet so far" [] !fired;
  ok (Online.write m 1 0);
  Alcotest.(check (list int)) "fires at the racing write" [ 1 ] !fired;
  ok (Online.write m 2 0);
  Alcotest.(check (list int)) "fires once per declaration" [ 2; 1 ] !fired

let test_lock_validation () =
  let m = monitor () in
  rejected "release unheld" (Online.release m 0 0);
  ok (Online.acquire m 0 0);
  rejected "double acquire" (Online.acquire m 1 0);
  rejected "release by non-holder" (Online.release m 1 0);
  ok (Online.release m 0 0);
  ok (Online.acquire m 1 0)

let test_fork_join_validation () =
  let m = monitor () in
  ok (Online.fork m ~parent:0 ~child:1);
  rejected "fork twice" (Online.fork m ~parent:0 ~child:1);
  rejected "self join" (Online.join m ~parent:1 ~child:1);
  ok (Online.write m 1 0);
  ok (Online.join m ~parent:0 ~child:1);
  rejected "act after join" (Online.write m 1 0);
  rejected "join twice" (Online.join m ~parent:0 ~child:1)

let test_join_lifecycle () =
  let m = monitor () in
  (* thread 2 never forked and never acted: joining it is a lost wakeup *)
  rejected "join of never-forked thread" (Online.join m ~parent:0 ~child:2);
  (* thread 1 acts without a fork (initial thread), so it counts as started
     and may be joined — mirrors Trace.well_formed *)
  ok (Online.write m 1 0);
  ok (Online.join m ~parent:0 ~child:1);
  (* thread 0 is pre-started, so another thread may join it *)
  let m2 = monitor () in
  ok (Online.join m2 ~parent:2 ~child:0)

let test_many_races_feed () =
  (* every write to location 0 after the first races with all predecessors:
     n writes race ⇒ n−1 callback firings, one per declaration, streamed as
     they happen (this is the path that used to rescan the whole race list
     on every event) *)
  let n = 400 in
  let fired = ref 0 in
  let m =
    Online.create ~on_race:(fun _ -> incr fired) ~nthreads:2 ~nlocks:1 ~nlocs:1 ()
  in
  for i = 0 to n - 1 do
    ok (Online.write m (i mod 2) 0)
  done;
  Alcotest.(check int) "one callback per declaration" (n - 1) !fired;
  Alcotest.(check int) "callbacks match stored races" (List.length (Online.races m)) !fired

let test_range_validation () =
  let m = monitor () in
  rejected "thread range" (Online.write m 9 0);
  rejected "loc range" (Online.write m 0 9);
  rejected "lock range" (Online.acquire m 0 9)

let test_mixed_sync_styles () =
  let m = monitor () in
  ok (Online.acquire m 0 0);
  rejected "mutex used atomically" (Online.feed m (Event.mk 0 (Event.Release_store 0)))

let test_rejection_leaves_state () =
  let m = monitor () in
  ok (Online.acquire m 0 0);
  rejected "bad" (Online.acquire m 1 0);
  Alcotest.(check int) "rejected event not counted" 1 (Online.events_seen m);
  (* holder is still thread 0 *)
  ok (Online.release m 0 0)

let test_matches_offline () =
  let prng = Prng.create ~seed:31 in
  for i = 0 to 20 do
    let params =
      { Trace_gen.default with Trace_gen.nthreads = 2 + (i mod 4); length = 80 }
    in
    let trace = Trace_gen.random prng params in
    let m =
      Online.create ~engine:Engine.So ~nthreads:trace.Trace.nthreads
        ~nlocks:(Stdlib.max 1 trace.Trace.nlocks) ~nlocs:(Stdlib.max 1 trace.Trace.nlocs) ()
    in
    Trace.iteri (fun _ e -> ok (Online.feed m e)) trace;
    let offline = Engine.run Engine.So trace in
    Alcotest.(check (list int))
      (Printf.sprintf "iteration %d" i)
      (Race.indices offline.Detector.races)
      (Race.indices (Online.races m))
  done

(* --- binary format ------------------------------------------------------ *)

let test_binary_roundtrip () =
  let prng = Prng.create ~seed:7 in
  for i = 0 to 20 do
    let params = { Trace_gen.default with Trace_gen.atomics = i mod 2 = 0; length = 100 } in
    let trace = Trace_gen.random prng params in
    match Trace_binary.of_bytes (Trace_binary.to_bytes trace) with
    | Error msg -> Alcotest.failf "roundtrip failed: %s" msg
    | Ok trace' ->
      Alcotest.(check int) "length" (Trace.length trace) (Trace.length trace');
      Alcotest.(check int) "threads" trace.Trace.nthreads trace'.Trace.nthreads;
      Trace.iteri
        (fun j e ->
          if not (Event.equal e (Trace.get trace' j)) then Alcotest.failf "event %d differs" j)
        trace
  done

let test_binary_file_roundtrip () =
  let prng = Prng.create ~seed:8 in
  let trace = Trace_gen.random prng Trace_gen.default in
  let path = Filename.temp_file "fttrace" ".ftb" in
  Trace_binary.to_file path trace;
  (match Trace_binary.of_file path with
  | Error msg -> Alcotest.fail msg
  | Ok trace' -> Alcotest.(check int) "length" (Trace.length trace) (Trace.length trace'));
  Sys.remove path

let test_binary_compact () =
  let prng = Prng.create ~seed:9 in
  let trace = Trace_gen.random prng { Trace_gen.default with Trace_gen.length = 1000 } in
  let binary = Bytes.length (Trace_binary.to_bytes trace) in
  let text = String.length (Ft_trace.Trace_format.to_string trace) in
  Alcotest.(check bool)
    (Printf.sprintf "binary (%d) ≤ half of text (%d)" binary text)
    true
    (2 * binary <= text)

let test_binary_bad_inputs () =
  let check_err msg data =
    match Trace_binary.of_bytes data with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail msg
  in
  check_err "empty" (Bytes.create 0);
  check_err "bad magic" (Bytes.of_string "NOPE\x01\x01\x00\x00\x00");
  check_err "bad version" (Bytes.of_string "FTRB\x63\x01\x00\x00\x00");
  (* truncated: header promises one event, none present *)
  check_err "truncated" (Bytes.of_string "FTRB\x01\x02\x00\x01\x01")

(* The daemons decode every client batch through [of_bytes]: a small
   payload must cost a small allocation, not a full-width decode batch. *)
let test_binary_small_decode_allocates_little () =
  let trace =
    Trace.make ~nthreads:2 ~nlocks:1 ~nlocs:4
      (Array.init 10 (fun i ->
           Event.mk (i mod 2) (if i mod 3 = 0 then Event.Write (i mod 4) else Event.Read (i mod 4))))
  in
  let data = Trace_binary.to_bytes trace in
  (* a collection inside the window would credit it with counters the
     runtime flushes late *)
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let decoded = Trace_binary.of_bytes data in
  let bytes = Gc.allocated_bytes () -. before in
  (match decoded with
  | Ok t -> Alcotest.(check int) "decoded length" 10 (Trace.length t)
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check bool)
    (Printf.sprintf "decoding 10 events allocated %.0f B < 8 KB" bytes)
    true (bytes < 8192.)

let qcheck_binary_fuzz =
  QCheck.Test.make ~name:"binary decoder total on random bytes" ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_bound 64))
    (fun s ->
      match Trace_binary.of_bytes (Bytes.of_string s) with Ok _ | Error _ -> true)

let () =
  Alcotest.run "online"
    [
      ( "monitor",
        [
          Alcotest.test_case "basic detection" `Quick test_basic_detection;
          Alcotest.test_case "race callback" `Quick test_on_race_callback;
          Alcotest.test_case "lock validation" `Quick test_lock_validation;
          Alcotest.test_case "fork/join validation" `Quick test_fork_join_validation;
          Alcotest.test_case "join lifecycle" `Quick test_join_lifecycle;
          Alcotest.test_case "many races feed" `Quick test_many_races_feed;
          Alcotest.test_case "range validation" `Quick test_range_validation;
          Alcotest.test_case "mixed sync styles" `Quick test_mixed_sync_styles;
          Alcotest.test_case "rejection leaves state" `Quick test_rejection_leaves_state;
          Alcotest.test_case "matches offline runs" `Quick test_matches_offline;
        ] );
      ( "binary",
        [
          Alcotest.test_case "roundtrip" `Quick test_binary_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_binary_file_roundtrip;
          Alcotest.test_case "compactness" `Quick test_binary_compact;
          Alcotest.test_case "bad inputs" `Quick test_binary_bad_inputs;
          Alcotest.test_case "small decode allocates little" `Quick
            test_binary_small_decode_allocates_little;
          QCheck_alcotest.to_alcotest qcheck_binary_fuzz;
        ] );
    ]
