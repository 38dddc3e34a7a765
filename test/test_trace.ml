(* Tests for ft_trace: events, trace building/validation, the textual and
   binary formats, the litmus executions and the random generator. *)

module Event = Ft_trace.Event
module Trace = Ft_trace.Trace
module Trace_format = Ft_trace.Trace_format
module Trace_binary = Ft_trace.Trace_binary
module Trace_gen = Ft_trace.Trace_gen
module Litmus = Ft_trace.Litmus
module Prng = Ft_support.Prng

let ev = Event.mk

let test_event_classify () =
  Alcotest.(check bool) "read is access" true (Event.is_access (ev 0 (Event.Read 1)));
  Alcotest.(check bool) "write is access" true (Event.is_access (ev 0 (Event.Write 1)));
  Alcotest.(check bool) "acq is sync" true (Event.is_sync (ev 0 (Event.Acquire 1)));
  Alcotest.(check bool) "fork is sync" true (Event.is_sync (ev 0 (Event.Fork 1)));
  Alcotest.(check bool) "relst is sync" true (Event.is_sync (ev 0 (Event.Release_store 1)))

let test_event_conflicting () =
  let w0 = ev 0 (Event.Write 5) and w1 = ev 1 (Event.Write 5) in
  let r1 = ev 1 (Event.Read 5) and r0 = ev 0 (Event.Read 5) in
  Alcotest.(check bool) "w-w conflict" true (Event.conflicting w0 w1);
  Alcotest.(check bool) "w-r conflict" true (Event.conflicting w0 r1);
  Alcotest.(check bool) "r-w conflict" true (Event.conflicting r0 w1);
  Alcotest.(check bool) "r-r no conflict" false (Event.conflicting r0 r1);
  Alcotest.(check bool) "same thread no conflict" false (Event.conflicting w0 r0);
  Alcotest.(check bool) "different locs no conflict" false
    (Event.conflicting w0 (ev 1 (Event.Write 6)))

let test_event_loc () =
  Alcotest.(check (option int)) "read loc" (Some 3) (Event.accessed_loc (ev 0 (Event.Read 3)));
  Alcotest.(check (option int)) "acq loc" None (Event.accessed_loc (ev 0 (Event.Acquire 3)))

let test_event_pp () =
  Alcotest.(check string) "write" "w(x3)@t1" (Event.to_string (ev 1 (Event.Write 3)));
  Alcotest.(check string) "acq" "acq(L0)@t2" (Event.to_string (ev 2 (Event.Acquire 0)))

let test_trace_dims () =
  let t = Trace.of_events [| ev 0 (Event.Write 4); ev 2 (Event.Acquire 1) |] in
  Alcotest.(check int) "threads" 3 t.Trace.nthreads;
  Alcotest.(check int) "locks" 2 t.Trace.nlocks;
  Alcotest.(check int) "locs" 5 t.Trace.nlocs

let test_trace_dims_fork () =
  let t = Trace.of_events [| ev 0 (Event.Fork 5) |] in
  Alcotest.(check int) "fork target counted" 6 t.Trace.nthreads

let test_make_range_check () =
  Alcotest.check_raises "thread out of range"
    (Invalid_argument "Trace.make: thread id out of range") (fun () ->
      ignore (Trace.make ~nthreads:1 ~nlocks:0 ~nlocs:1 [| ev 3 (Event.Read 0) |]))

let wf events = Trace.well_formed (Trace.of_events (Array.of_list events))

let check_wf msg events = Alcotest.(check bool) msg true (wf events = Ok ())

let check_ill msg events =
  Alcotest.(check bool) msg true (match wf events with Error _ -> true | Ok () -> false)

let test_wf_ok () =
  check_wf "lock discipline"
    [ ev 0 (Event.Acquire 0); ev 0 (Event.Release 0); ev 1 (Event.Acquire 0) ];
  check_wf "held at end is fine" [ ev 0 (Event.Acquire 0) ];
  check_wf "initial threads need no fork" [ ev 2 (Event.Write 0) ]

let test_wf_double_acquire () =
  check_ill "double acquire"
    [ ev 0 (Event.Acquire 0); ev 1 (Event.Acquire 0) ];
  check_ill "re-entrant acquire" [ ev 0 (Event.Acquire 0); ev 0 (Event.Acquire 0) ]

let test_wf_bad_release () =
  check_ill "release unheld" [ ev 0 (Event.Release 0) ];
  check_ill "release by non-holder" [ ev 0 (Event.Acquire 0); ev 1 (Event.Release 0) ]

let test_wf_fork_join () =
  check_wf "fork then act" [ ev 0 (Event.Fork 1); ev 1 (Event.Write 0) ];
  check_ill "act then forked" [ ev 1 (Event.Write 0); ev 0 (Event.Fork 1) ];
  check_ill "fork twice" [ ev 0 (Event.Fork 1); ev 0 (Event.Fork 1) ];
  check_ill "act after join"
    [ ev 0 (Event.Fork 1); ev 1 (Event.Write 0); ev 0 (Event.Join 1); ev 1 (Event.Write 0) ];
  check_ill "join twice"
    [ ev 0 (Event.Fork 1); ev 0 (Event.Join 1); ev 0 (Event.Join 1) ];
  check_ill "self fork" [ ev 0 (Event.Fork 0) ];
  check_ill "join of never-forked, never-started thread" [ ev 0 (Event.Join 1) ];
  check_wf "join of initial thread that acted"
    [ ev 1 (Event.Write 0); ev 0 (Event.Join 1) ];
  check_wf "join of thread 0" [ ev 1 (Event.Join 0) ]

let test_wf_mixed_sync_styles () =
  check_ill "mutex then atomic"
    [ ev 0 (Event.Acquire 0); ev 0 (Event.Release 0); ev 0 (Event.Release_store 0) ];
  check_wf "atomic only" [ ev 0 (Event.Release_store 0); ev 1 (Event.Acquire_load 0) ]

let test_stats () =
  let t =
    Trace.of_events
      [|
        ev 0 (Event.Write 0); ev 0 (Event.Read 1); ev 0 (Event.Acquire 0);
        ev 0 (Event.Release 0); ev 0 (Event.Fork 1); ev 1 (Event.Read 0);
        ev 0 (Event.Join 1);
      |]
  in
  let s = Trace.stats t in
  Alcotest.(check int) "events" 7 s.Trace.n_events;
  Alcotest.(check int) "reads" 2 s.Trace.n_reads;
  Alcotest.(check int) "writes" 1 s.Trace.n_writes;
  Alcotest.(check int) "accesses" 3 s.Trace.n_accesses;
  Alcotest.(check int) "syncs" 4 s.Trace.n_syncs;
  Alcotest.(check int) "locs" 2 s.Trace.locs_touched;
  Alcotest.(check int) "locks" 1 s.Trace.locks_touched

let test_builder_fresh_ids () =
  let b = Trace.Builder.create () in
  Alcotest.(check int) "t0" 0 (Trace.Builder.fresh_thread b);
  Alcotest.(check int) "t1" 1 (Trace.Builder.fresh_thread b);
  Alcotest.(check int) "l0" 0 (Trace.Builder.fresh_lock b);
  Alcotest.(check int) "x0" 0 (Trace.Builder.fresh_loc b)

let test_builder_growth () =
  let b = Trace.Builder.create () in
  for _ = 1 to 1000 do
    Trace.Builder.write b 0 0
  done;
  let t = Trace.Builder.build b in
  Alcotest.(check int) "all events kept" 1000 (Trace.length t)

let test_format_roundtrip () =
  let original =
    Trace.of_events
      [|
        ev 0 (Event.Fork 1); ev 1 (Event.Acquire 0); ev 1 (Event.Write 2);
        ev 1 (Event.Release 0); ev 1 (Event.Release_store 1); ev 0 (Event.Acquire_load 1);
        ev 0 (Event.Read 2); ev 0 (Event.Join 1);
      |]
  in
  let text = Trace_format.to_string original in
  match Trace_format.parse_string text with
  | Error msg -> Alcotest.fail msg
  | Ok reparsed ->
    Alcotest.(check int) "length" (Trace.length original) (Trace.length reparsed);
    Trace.iteri
      (fun i e ->
        Alcotest.(check bool)
          (Printf.sprintf "event %d" i)
          true
          (Event.equal e (Trace.get reparsed i)))
      original

let test_format_names () =
  let input = "main|fork(worker)\nworker|acq(guard)\nworker|w(counter)\nworker|rel(guard)\n" in
  match Trace_format.parse_string input with
  | Error msg -> Alcotest.fail msg
  | Ok t ->
    Alcotest.(check int) "threads" 2 t.Trace.nthreads;
    Alcotest.(check int) "locks" 1 t.Trace.nlocks;
    Alcotest.(check int) "locs" 1 t.Trace.nlocs;
    Alcotest.(check bool) "well formed" true (Trace.well_formed t = Ok ())

let test_format_canonical_ids () =
  let input = "t3|w(x7)\nt0|r(x7)\n" in
  match Trace_format.parse_string input with
  | Error msg -> Alcotest.fail msg
  | Ok t ->
    Alcotest.(check int) "threads" 4 t.Trace.nthreads;
    Alcotest.(check int) "locs" 8 t.Trace.nlocs;
    let e = Trace.get t 0 in
    Alcotest.(check int) "thread id preserved" 3 e.Event.thread

let test_format_comments_and_aux () =
  let input = "# a comment\n\nt0|w(x0)|1234\n" in
  match Trace_format.parse_string input with
  | Error msg -> Alcotest.fail msg
  | Ok t -> Alcotest.(check int) "one event" 1 (Trace.length t)

let test_rapid_std_export () =
  let t =
    Trace.of_events
      [|
        ev 0 (Event.Fork 1); ev 1 (Event.Acquire 0); ev 1 (Event.Write 2);
        ev 1 (Event.Release 0); ev 1 (Event.Release_store 1); ev 0 (Event.Acquire_load 1);
        ev 0 (Event.Join 1);
      |]
  in
  let expected =
    "T0|fork(T1)|0\nT1|acq(L0)|1\nT1|w(V2)|2\nT1|rel(L0)|3\nT1|rel(A1)|4\nT0|acq(A1)|5\n\
     T0|join(T1)|6\n"
  in
  Alcotest.(check string) "rapid std syntax" expected (Trace_format.to_rapid_std t)

let test_format_errors () =
  (match Trace_format.parse_string "t0 w(x)" with
  | Error msg -> Alcotest.(check bool) "line number" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected parse error");
  match Trace_format.parse_string "t0|boom(x)" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected unknown op error"

let test_litmus_all_well_formed () =
  List.iter
    (fun (l : Litmus.t) ->
      Alcotest.(check bool) l.Litmus.name true (Trace.well_formed l.Litmus.trace = Ok ());
      Alcotest.(check int)
        (l.Litmus.name ^ " mask length")
        (Trace.length l.Litmus.trace)
        (Array.length l.Litmus.sampled))
    Litmus.all

let test_litmus_fig1_shape () =
  let l = Litmus.fig1 in
  Alcotest.(check int) "18 events" 18 (Trace.length l.Litmus.trace);
  Alcotest.(check int) "2 threads" 2 l.Litmus.trace.Trace.nthreads;
  Alcotest.(check int) "4 locks" 4 l.Litmus.trace.Trace.nlocks;
  Alcotest.(check int) "|S| = 3" 3
    (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 l.Litmus.sampled)

let test_gen_well_formed () =
  let prng = Prng.create ~seed:123 in
  for i = 0 to 30 do
    let params =
      {
        Trace_gen.nthreads = 1 + (i mod 6);
        nlocks = i mod 4;
        nlocs = 1 + (i mod 5);
        length = 40 + (5 * i);
        atomics = i mod 2 = 0;
        forkjoin = i mod 3 = 0;
      }
    in
    let t = Trace_gen.random prng params in
    Alcotest.(check bool)
      (Printf.sprintf "iteration %d well-formed" i)
      true
      (Trace.well_formed t = Ok ())
  done

let test_gen_sampled_mask () =
  let prng = Prng.create ~seed:5 in
  let t, sampled = Trace_gen.random_sampled prng Trace_gen.default ~rate:0.5 in
  Alcotest.(check int) "mask length" (Trace.length t) (Array.length sampled);
  Trace.iteri
    (fun i e ->
      if sampled.(i) then
        Alcotest.(check bool) "sampled events are accesses" true (Event.is_access e))
    t

(* The parser must reject or accept — never raise — whatever bytes arrive. *)
let qcheck_parser_total =
  QCheck.Test.make ~name:"parser never raises" ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_bound 200))
    (fun s ->
      match Trace_format.parse_string s with Ok _ | Error _ -> true)

let qcheck_parser_structured =
  (* random pipe/parenthesis soup, closer to the grammar than raw bytes *)
  let fragment =
    QCheck.Gen.oneofl [ "t0"; "t1"; "|"; "r"; "w"; "acq"; "rel"; "("; ")"; "x1"; "L2"; "\n"; "#"; " " ]
  in
  QCheck.Test.make ~name:"parser total on grammar soup" ~count:500
    (QCheck.make QCheck.Gen.(map (String.concat "") (list_size (int_bound 30) fragment)))
    (fun s ->
      match Trace_format.parse_string s with Ok _ | Error _ -> true)

let qcheck_roundtrip =
  QCheck.Test.make ~name:"to_string/parse round-trip" ~count:200
    QCheck.(small_nat)
    (fun seed ->
      let prng = Prng.create ~seed:(seed + 1) in
      let t = Trace_gen.random prng { Trace_gen.default with Trace_gen.atomics = true } in
      match Trace_format.parse_string (Trace_format.to_string t) with
      | Error _ -> false
      | Ok t' ->
        Trace.length t = Trace.length t'
        && (let ok = ref true in
            Trace.iteri (fun i e -> if not (Event.equal e (Trace.get t' i)) then ok := false) t;
            !ok))

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
  Alcotest.run "trace"
    [
      ( "event",
        [
          Alcotest.test_case "classify" `Quick test_event_classify;
          Alcotest.test_case "conflicting" `Quick test_event_conflicting;
          Alcotest.test_case "accessed_loc" `Quick test_event_loc;
          Alcotest.test_case "pretty printing" `Quick test_event_pp;
        ] );
      ( "trace",
        [
          Alcotest.test_case "inferred dims" `Quick test_trace_dims;
          Alcotest.test_case "fork target dims" `Quick test_trace_dims_fork;
          Alcotest.test_case "make range check" `Quick test_make_range_check;
          Alcotest.test_case "stats" `Quick test_stats;
        ] );
      ( "well_formed",
        [
          Alcotest.test_case "valid traces" `Quick test_wf_ok;
          Alcotest.test_case "double acquire" `Quick test_wf_double_acquire;
          Alcotest.test_case "bad release" `Quick test_wf_bad_release;
          Alcotest.test_case "fork/join discipline" `Quick test_wf_fork_join;
          Alcotest.test_case "mixed sync styles" `Quick test_wf_mixed_sync_styles;
        ] );
      ( "builder",
        [
          Alcotest.test_case "fresh ids" `Quick test_builder_fresh_ids;
          Alcotest.test_case "growth" `Quick test_builder_growth;
        ] );
      ( "format",
        [
          Alcotest.test_case "roundtrip" `Quick test_format_roundtrip;
          Alcotest.test_case "symbolic names" `Quick test_format_names;
          Alcotest.test_case "canonical ids" `Quick test_format_canonical_ids;
          Alcotest.test_case "comments and aux columns" `Quick test_format_comments_and_aux;
          Alcotest.test_case "errors" `Quick test_format_errors;
          Alcotest.test_case "rapid std export" `Quick test_rapid_std_export;
        ] );
      ( "litmus",
        [
          Alcotest.test_case "all well-formed" `Quick test_litmus_all_well_formed;
          Alcotest.test_case "fig1 shape" `Quick test_litmus_fig1_shape;
        ] );
      ( "generator",
        [
          Alcotest.test_case "well-formed output" `Quick test_gen_well_formed;
          Alcotest.test_case "sampled mask" `Quick test_gen_sampled_mask;
        ] );
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_parser_total; qcheck_parser_structured; qcheck_roundtrip ] );
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
