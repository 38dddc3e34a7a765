(* The hot-path overhaul's safety net:

   - Read_pool: shared-read churn across chunk boundaries in fasttrack, o1
     and o1-u — reports equal the seed engines', restore is
     snapshot-stable, slots stay within the peak number of shared
     locations rounded up to a chunk — and no minor allocation per access;
   - Netbuf: semantics under chunked feeds, and the amortization contract —
     total bytes blitted stays linear in bytes fed, whatever the chunk size
     (the O(n²) concat bug this replaced fails the same assertion by orders
     of magnitude);
   - Metrics arity: same_epoch_hits (and any future counter) must appear in
     field_names, survive the Snap codec, and be summed by Metrics.add —
     each checked with distinct per-field values so a missed field cannot
     cancel out;
   - the SoA batch decoder: equality with the per-event reader, exact
     per-event byte offsets (the --resume seek contract), hostile input;
   - the byte-identity grid: the rebuilt engines vs the seed engines
     vendored in Ref_engines, across engines × samplers × the pipeline and
     K Chash-routed checkers (Routed), and
     padded clocks for the five history engines — races, reports, and every
     counter except the purely additive same_epoch_hits must match exactly;
     SO's list pool keeps exact reference counts within its bound;
   - History width: at a 256-entry clock, a history written and read by
     four threads keeps a few words per array, not 256, and decode refuses
     a read cache that its trimmed read history cannot hold. *)

module Trace = Ft_trace.Trace
module Event = Ft_trace.Event
module Tb = Ft_trace.Trace_binary
module Trace_gen = Ft_trace.Trace_gen
module Prng = Ft_support.Prng
module Engine = Ft_core.Engine
module Detector = Ft_core.Detector
module Sampler = Ft_core.Sampler
module Metrics = Ft_core.Metrics
module Race = Ft_core.Race
module Snap = Ft_core.Snap
module Read_pool = Ft_core.Read_pool
module Netbuf = Ft_shard.Netbuf
module Serve = Ft_shard.Serve

(* --- Netbuf ---------------------------------------------------------------- *)

let test_netbuf_semantics () =
  let b = Netbuf.create ~capacity:16 () in
  Alcotest.(check int) "empty" 0 (Netbuf.length b);
  Alcotest.(check bool) "no newline" true (Netbuf.index_newline b = None);
  let put s = Netbuf.append b (Bytes.of_string s) ~off:0 ~len:(String.length s) in
  put "BATCH 0 5\nhel";
  Alcotest.(check bool) "newline found" true (Netbuf.index_newline b = Some 9);
  Alcotest.(check string) "take line" "BATCH 0 5" (Netbuf.take b 9);
  Netbuf.drop b 1;
  put "lo";
  Alcotest.(check string) "blob across appends" "hello" (Netbuf.take b 5);
  Alcotest.(check int) "drained" 0 (Netbuf.length b);
  (match Netbuf.take b 1 with
  | _ -> Alcotest.fail "take beyond buffered data accepted"
  | exception Invalid_argument _ -> ());
  (* growth far past the initial capacity preserves content *)
  let big = String.init 100_000 (fun i -> Char.chr (i land 0xff)) in
  String.iter (fun c -> put (String.make 1 c)) big;
  Alcotest.(check string) "byte-at-a-time feed reassembles" big
    (Netbuf.take b (String.length big))

(* the quadratic-recv regression test: total bytes moved is linear in bytes
   fed regardless of chunk size.  The seed's [data <- data ^ chunk] moved
   ~N²/(2·chunk) ≈ 190 GB here; the bound allows ~6N = 12 MB. *)
let test_netbuf_amortized_linear () =
  let n = 2 * 1024 * 1024 and chunk = 11 in
  (* blob pattern: accumulate everything, then one take *)
  let b = Netbuf.create ~capacity:1024 () in
  let piece = Bytes.make chunk 'x' in
  let fed = ref 0 in
  while !fed < n do
    let len = Stdlib.min chunk (n - !fed) in
    Netbuf.append b piece ~off:0 ~len;
    fed := !fed + len
  done;
  ignore (Netbuf.take b n);
  Alcotest.(check bool)
    (Printf.sprintf "accumulate-then-take is linear (moved %d for %d fed)"
       (Netbuf.copied b) n)
    true
    (Netbuf.copied b <= (4 * n) + 65536);
  (* interleaved pattern: lines consumed while more data streams in *)
  let b = Netbuf.create ~capacity:64 () in
  let fed = ref 0 and consumed = ref 0 in
  while !fed < n do
    let len = Stdlib.min chunk (n - !fed) in
    Netbuf.append b piece ~off:0 ~len;
    fed := !fed + len;
    if !fed - !consumed > 96 then begin
      Netbuf.drop b 64;
      consumed := !consumed + 64
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "interleaved consume stays linear (moved %d for %d fed)"
       (Netbuf.copied b) n)
    true
    (Netbuf.copied b <= (8 * n) + 65536)

(* --- Metrics arity: same_epoch_hits through every surface ------------------ *)

let distinct_metrics offset =
  let m = Metrics.create () in
  let r = Obj.repr m in
  for i = 0 to Metrics.field_count - 1 do
    Obj.set_field r i (Obj.repr (offset + i))
  done;
  m

let test_metrics_field_names () =
  Alcotest.(check int) "field_names covers every field" Metrics.field_count
    (Array.length Metrics.field_names);
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun n ->
      Alcotest.(check bool) (Printf.sprintf "field name %s unique" n) false
        (Hashtbl.mem tbl n);
      Hashtbl.add tbl n ())
    Metrics.field_names;
  Alcotest.(check bool) "same_epoch_hits is exported" true
    (Hashtbl.mem tbl "same_epoch_hits")

let test_metrics_snap_roundtrip () =
  let m = distinct_metrics 101 in
  let enc = Snap.Enc.create () in
  Metrics.encode enc m;
  let dec = Snap.Dec.of_snap (Snap.Enc.to_snap enc) in
  let m' = Metrics.decode dec in
  Snap.Dec.finish dec;
  (* distinct values per field: a codec that drops or reorders any single
     field — same_epoch_hits included — cannot pass *)
  Alcotest.(check (array int)) "snap codec preserves every field" (Metrics.to_array m)
    (Metrics.to_array m')

let test_metrics_add_covers_all_fields () =
  let merged = distinct_metrics 100 in
  Metrics.add ~into:merged (distinct_metrics 1000);
  Metrics.add ~into:merged (distinct_metrics 10000);
  let expected =
    Array.init Metrics.field_count (fun i -> (100 + i) + (1000 + i) + (10000 + i))
  in
  Alcotest.(check (array int)) "front + checkers + tally, every field" expected
    (Metrics.to_array merged)

(* --- SoA batch decoder ------------------------------------------------------ *)

let gen_trace ~seed ~length =
  let prng = Prng.create ~seed in
  Trace_gen.random prng
    {
      Trace_gen.nthreads = 4;
      nlocks = 3;
      nlocs = 12;
      length;
      atomics = true;
      forkjoin = true;
    }

let decode_all_batched ?(capacity = 7) data =
  match Tb.open_bytes data with
  | Error msg -> Alcotest.failf "open_bytes: %s" msg
  | Ok r ->
    let b = Tb.create_batch ~capacity () in
    let events = ref [] and ends = ref [] in
    let rec loop () =
      match Tb.read_batch r b with
      | Error msg -> Alcotest.failf "read_batch: %s" msg
      | Ok 0 -> ()
      | Ok n ->
        Alcotest.(check int) "batch_length agrees" n (Tb.batch_length b);
        for j = 0 to n - 1 do
          events := Tb.batch_event b j :: !events;
          ends := Tb.batch_end b j :: !ends
        done;
        loop ()
    in
    loop ();
    (List.rev !events, List.rev !ends)

let test_batch_equals_next () =
  let trace = gen_trace ~seed:5 ~length:2_000 in
  let data = Tb.to_bytes trace in
  let batched, ends = decode_all_batched data in
  (* against the per-event reader *)
  let r = Option.get (Result.to_option (Tb.open_bytes data)) in
  let rec pull acc =
    match Tb.next r with
    | Error msg -> Alcotest.failf "next: %s" msg
    | Ok None -> List.rev acc
    | Ok (Some e) -> pull (e :: acc)
  in
  let streamed = pull [] in
  Alcotest.(check int) "event count" (Trace.length trace) (List.length batched);
  List.iteri
    (fun i (a, b) ->
      if not (Event.equal a b) then Alcotest.failf "event %d: batch ≠ next" i)
    (List.combine batched streamed);
  (* and against the source trace *)
  List.iteri
    (fun i e ->
      if not (Event.equal e (Trace.get trace i)) then
        Alcotest.failf "event %d: batch ≠ trace" i)
    batched;
  (* offsets: strictly increasing, ending exactly at the payload's end *)
  let rec mono = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "ends strictly increase" true (a < b);
      mono rest
    | _ -> ()
  in
  mono ends;
  Alcotest.(check int) "last end is the payload end" (Bytes.length data)
    (List.nth ends (List.length ends - 1))

let test_batch_seek_resume () =
  let trace = gen_trace ~seed:6 ~length:1_500 in
  let data = Tb.to_bytes trace in
  let _, ends = decode_all_batched data in
  let ends = Array.of_list ends in
  (* resume from every 97th event boundary: the checkpoint seek contract *)
  let k = ref 97 in
  while !k < Trace.length trace do
    let r = Option.get (Result.to_option (Tb.open_bytes data)) in
    (match Tb.seek r ~byte_offset:ends.(!k - 1) ~next_index:!k with
    | Error msg -> Alcotest.failf "seek to %d: %s" !k msg
    | Ok () -> ());
    let b = Tb.create_batch () in
    let i = ref !k in
    let rec loop () =
      match Tb.read_batch r b with
      | Error msg -> Alcotest.failf "post-seek read_batch: %s" msg
      | Ok 0 -> ()
      | Ok n ->
        for j = 0 to n - 1 do
          if not (Event.equal (Tb.batch_event b j) (Trace.get trace !i)) then
            Alcotest.failf "post-seek event %d differs (resumed at %d)" !i !k;
          incr i
        done;
        loop ()
    in
    loop ();
    Alcotest.(check int) "suffix complete" (Trace.length trace) !i;
    k := !k + 97
  done

let test_batch_channel_refill () =
  let trace = gen_trace ~seed:7 ~length:3_000 in
  let path = Filename.temp_file "fastpath" ".ftb" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Tb.to_file path trace;
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  (* a tiny chunk forces refills inside varints and across batch cuts *)
  match Tb.open_channel ~chunk_size:64 ic with
  | Error msg -> Alcotest.failf "open_channel: %s" msg
  | Ok r ->
    let b = Tb.create_batch ~capacity:33 () in
    let i = ref 0 in
    let rec loop () =
      match Tb.read_batch r b with
      | Error msg -> Alcotest.failf "read_batch: %s" msg
      | Ok 0 -> ()
      | Ok n ->
        for j = 0 to n - 1 do
          if not (Event.equal (Tb.batch_event b j) (Trace.get trace !i)) then
            Alcotest.failf "channel event %d differs" !i;
          incr i
        done;
        loop ()
    in
    loop ();
    Alcotest.(check int) "all events" (Trace.length trace) !i

(* hand-rolled payloads (LEB128 varints, two bytes max needed here) *)
let craft ~nthreads ~nlocks ~nlocs events =
  let b = Buffer.create 64 in
  Buffer.add_string b "FTRB";
  List.iter
    (fun v ->
      if v < 128 then Buffer.add_char b (Char.chr v)
      else begin
        Buffer.add_char b (Char.chr (128 lor (v land 0x7f)));
        Buffer.add_char b (Char.chr (v lsr 7))
      end)
    ([ 1; nthreads; nlocks; nlocs; List.length events ]
    @ List.concat_map (fun (head, payload) -> [ head; payload ]) events);
  Buffer.to_bytes b

let expect_error what expected data =
  match Tb.of_bytes data with
  | Ok _ -> Alcotest.failf "%s: hostile input accepted" what
  | Error msg -> Alcotest.(check string) what expected msg

let test_batch_hostile_input () =
  (* tag 0 = read; head = tag lor thread lsl 3 *)
  expect_error "thread out of range" "thread id out of range"
    (craft ~nthreads:2 ~nlocks:1 ~nlocs:1 [ (0 lor (5 lsl 3), 0) ]);
  expect_error "location out of range" "location id out of range"
    (craft ~nthreads:2 ~nlocks:1 ~nlocs:1 [ (0, 3) ]);
  expect_error "lock out of range" "lock id out of range"
    (craft ~nthreads:2 ~nlocks:1 ~nlocs:1 [ (2, 7) ]);
  expect_error "thread operand out of range" "thread operand out of range"
    (craft ~nthreads:2 ~nlocks:1 ~nlocs:1 [ (6, 3) ]);
  (* two-byte payload (loc 200): cutting the last byte passes the header's
     2-bytes-per-event budget but truncates the decode *)
  let data = craft ~nthreads:2 ~nlocks:1 ~nlocs:256 [ (0, 200) ] in
  expect_error "truncated event" "truncated input"
    (Bytes.sub data 0 (Bytes.length data - 1))

(* --- byte-identity grid: flat engines vs vendored seed engines ------------- *)

let zero_same_epoch arr =
  let arr = Array.copy arr in
  Array.iteri
    (fun i n -> if n = "same_epoch_hits" then arr.(i) <- 0)
    Metrics.field_names;
  arr

let same_verdict ~events ~what (flat : Detector.result) (reference : Detector.result) =
  if flat.Detector.races <> reference.Detector.races then
    Alcotest.failf "%s: race lists diverge" what;
  let fa = zero_same_epoch (Metrics.to_array flat.Detector.metrics)
  and ra = zero_same_epoch (Metrics.to_array reference.Detector.metrics) in
  Alcotest.(check (array int)) (what ^ ": all counters modulo same_epoch_hits") ra fa;
  Alcotest.(check string)
    (what ^ ": rendered report")
    (Serve.report_text ~events reference)
    (Serve.report_text ~events flat)

let grid_engines = Engine.[ Djit; Fasttrack; St; Su; So; Sl; Sn; O1; O1u ]

let grid_samplers () =
  [
    ("all", Sampler.all);
    ("bernoulli", Sampler.bernoulli ~rate:0.3 ~seed:11);
    ("adaptive", Sampler.adaptive ~base_rate:4);
  ]

(* The history engines also run at padded clocks (64 and TSan's 256 entries
   for 4 threads).  There SO's lazy copies recycle lists and write only
   their reordered prefix, and every history is only as wide as the threads
   that ran: the untouched padding must behave exactly like the seed
   engines' full-width copies and histories. *)
let grid_clock_sizes id ~nthreads =
  match id with
  | Engine.Djit | Engine.St | Engine.Su | Engine.So | Engine.Sl -> [ nthreads; 64; 256 ]
  | _ -> [ nthreads ]

let test_byte_identity_grid () =
  let hits = ref 0 in
  List.iter
    (fun seed ->
      (* the same chaos workload seed test_fault anchors on, plus a second *)
      let trace = gen_trace ~seed ~length:800 in
      let events = Trace.length trace in
      List.iter
        (fun id ->
          List.iter
            (fun (sname, sampler) ->
              List.iter
                (fun clock_size ->
                  let reference = Ref_engines.run id ~sampler ~clock_size trace in
                  let what shape =
                    Printf.sprintf "%s × %s × T=%d × %s (seed %d)" (Engine.name id) sname
                      clock_size shape seed
                  in
                  let flat = Engine.run id ~sampler ~clock_size trace in
                  same_verdict ~events ~what:(what "flat") flat reference;
                  hits := !hits + flat.Detector.metrics.Metrics.same_epoch_hits;
                  let config =
                    {
                      Detector.nthreads = trace.Trace.nthreads;
                      nlocks = trace.Trace.nlocks;
                      nlocs = trace.Trace.nlocs;
                      clock_size;
                      sampler;
                    }
                  in
                  same_verdict ~events ~what:(what "pipeline")
                    (Routed.run_pipeline id config trace)
                    reference;
                  List.iter
                    (fun k ->
                      same_verdict ~events
                        ~what:(what (Printf.sprintf "K=%d" k))
                        (Routed.run id ~k config trace)
                        reference)
                    [ 2; 4 ])
                (grid_clock_sizes id ~nthreads:trace.Trace.nthreads))
            (grid_samplers ()))
        grid_engines)
    [ 77; 1234 ];
  Alcotest.(check bool) "the fast path actually fired across the grid" true (!hits > 0)

(* --- History width ---------------------------------------------------------- *)

(* At TSan's 256-entry clocks, four threads read and write 1,000 locations
   through both record paths.  Every write, read and read-index array must
   stay a few words wide: a full-width one is 257 words with its header.
   The per-location tables and the version counters are fixed costs of
   [create]'s universe, counted exactly and set aside. *)
let test_history_width_bound () =
  let module H = Ft_core.History in
  let module Vc = Ft_core.Vector_clock in
  let module Ol = Ft_core.Ordered_list in
  let nlocs = 1_000 and clock_size = 256 and threads = 4 in
  let h = H.create ~nlocs ~clock_size in
  let clock = Vc.create clock_size and olist = Ol.create clock_size in
  let index = ref 0 in
  for x = 0 to nlocs - 1 do
    for tid = 0 to threads - 1 do
      let epoch = x + tid + 1 in
      Vc.set clock tid epoch;
      Ol.set olist tid epoch;
      incr index;
      H.record_read h x ~tid ~epoch ~index:!index ~clean:true;
      incr index;
      if x mod 2 = 0 then H.record_write_vc h x clock ~tid ~epoch ~index:!index ~clean:true
      else H.record_write_ol h x olist ~tid ~epoch ~index:!index ~clean:true
    done
  done;
  let arrays = 3 * nlocs in
  let tables = (8 * (nlocs + 1)) + (clock_size + 1) + (Obj.size (Obj.repr h) + 1) in
  let per_array = (Obj.reachable_words (Obj.repr h) - tables) / arrays in
  if per_array >= 16 then
    Alcotest.failf "%d words per history array at clock_size %d, %d threads" per_array
      clock_size threads;
  let last = nlocs - 1 in
  Alcotest.(check bool) "the narrow write history is above ⊥" true
    (H.stale_write h last (Vc.create clock_size) ~tid:0 ~epoch:0 >= 0);
  Alcotest.(check (pair int int)) "and ordered before the clock that wrote it" (-1, -1)
    (H.stale_both h last clock ~tid:(threads - 1) ~epoch:(last + threads))

(* Decoding trims each history to the threads that ran, so a read cache
   naming a thread past the trimmed read history would send a later hit
   out of bounds.  Decode refuses it; the same bytes naming thread 0 load. *)
let test_history_decode_checks_read_cache () =
  let module H = Ft_core.History in
  let clock_size = 4 in
  let snapshot ~cached_tid =
    let enc = Snap.Enc.create () in
    let per_loc v = Snap.Enc.int_array enc [| v |] in
    Snap.Enc.int enc 1;
    (* location 0: no write, a read by thread 0 at epoch 7, event 5 *)
    Snap.Enc.int enc 0;
    Snap.Enc.int enc (-1);
    Snap.Enc.int enc 1;
    Snap.Enc.int_array enc [| 7; 0; 0; 0 |];
    Snap.Enc.int_array enc [| 5; -1; -1; -1 |];
    Snap.Enc.int_array enc (Array.make clock_size 1);
    per_loc ((7 lsl 16) lor cached_tid);
    per_loc 1;
    per_loc 0;
    per_loc 0;
    Snap.Dec.of_snap (Snap.Enc.to_snap enc)
  in
  ignore (H.decode (snapshot ~cached_tid:0) ~nlocs:1 ~clock_size);
  match H.decode (snapshot ~cached_tid:3) ~nlocs:1 ~clock_size with
  | _ -> Alcotest.fail "a read cache past the recorded reads was accepted"
  | exception Snap.Corrupt msg ->
    Alcotest.(check string) "refused" "read cache names an unrecorded read" msg

(* SO's list recycling keeps exact reference counts and a bounded pool:
   after every event of small random traces, where few locks make the
   [clock_size + nlocks] bound tight, and on a sync-heavy server trace at
   TSan's 256-entry clocks. *)
let test_so_pool_bounded () =
  let module So = Ft_core.Sampling_ordered_list in
  List.iter
    (fun seed ->
      let trace = gen_trace ~seed ~length:800 in
      List.iter
        (fun (sname, sampler) ->
          let d =
            So.create
              {
                Detector.nthreads = trace.Trace.nthreads;
                nlocks = trace.Trace.nlocks;
                nlocs = trace.Trace.nlocs;
                clock_size = 8;
                sampler;
              }
          in
          Trace.iteri
            (fun i e ->
              So.handle d i e;
              if not (So.check_pool d) then
                Alcotest.failf "pool invariants broken at event %d (seed %d, %s)" i seed sname)
            trace)
        (grid_samplers ()))
    [ 77; 1234; 5; 6 ];
  (* the tight case: the only lock holds a list no thread holds (t1 copied
     away from it at the join, the fourth list of a bound of four), the
     pool is empty, and t0's list is still flagged shared though no lock
     refers to it any more — t0 must keep it, not allocate a fifth *)
  let e t op = Event.mk t op in
  let d =
    So.create { Detector.nthreads = 3; nlocks = 1; nlocs = 1; clock_size = 3; sampler = Sampler.all }
  in
  List.iteri
    (fun i ev ->
      So.handle d i ev;
      if not (So.check_pool d) then Alcotest.failf "pool invariants broken at crafted event %d" i)
    Event.
      [
        e 0 (Write 0); e 0 (Release 0); e 1 (Acquire 0); e 1 (Write 0); e 1 (Release 0);
        e 2 (Write 0); e 1 (Join 2); e 0 (Acquire 0);
      ];
  Alcotest.(check int) "both lazy copies counted" 2
    (So.result d).Detector.metrics.Metrics.deep_copies;
  let trace =
    Ft_workloads.Db_sim.generate
      (Option.get (Ft_workloads.Db_sim.profile "tpcc"))
      ~seed:3 ~target_events:200_000
  in
  let config =
    {
      Detector.nthreads = trace.Trace.nthreads;
      nlocks = trace.Trace.nlocks;
      nlocs = trace.Trace.nlocs;
      clock_size = 256;
      sampler = Sampler.bernoulli ~rate:0.03 ~seed:7;
    }
  in
  let d = So.create config in
  Trace.iteri
    (fun i e ->
      So.handle d i e;
      if i mod 10_000 = 0 && not (So.check_pool d) then
        Alcotest.failf "pool invariants broken after event %d" i)
    trace;
  Alcotest.(check bool) "pool invariants at the end" true (So.check_pool d);
  let m = (So.result d).Detector.metrics in
  Alcotest.(check bool) "lazy copies happened" true (m.Metrics.deep_copies > 1_000);
  Alcotest.(check bool) "pool invariants after restore" true
    (So.check_pool (So.restore config (So.snapshot d)))

(* --- Read_pool: shared-read churn ------------------------------------------ *)

(* Round after round, every location is read by two to four threads at
   once (inflating it to a shared read clock), a barrier orders all of that
   before a write to most locations (deflating each back to an epoch and
   freeing its slot), and a second barrier orders the writes before the next
   round's reads.  Locations the write phase skips stay shared into the next
   round.  With [nlocs] > 2 chunks, each round recycles slots across chunk
   boundaries in a new order.  Every access is ordered after every
   conflicting one, so the trace is race-free. *)
let churn_trace ~seed ~nlocs ~rounds =
  let prng = Prng.create ~seed in
  let nthreads = 4 in
  let evs = ref [] in
  let add t op = evs := Event.mk t op :: !evs in
  for u = 1 to nthreads - 1 do
    add 0 (Event.Fork u)
  done;
  let barrier () =
    for t = 0 to nthreads - 1 do
      add t (Event.Acquire t);
      add t (Event.Release t)
    done;
    for t = 0 to nthreads - 1 do
      for l = 0 to nthreads - 1 do
        add t (Event.Acquire l);
        add t (Event.Release l)
      done
    done
  in
  let order = Array.init nlocs Fun.id in
  for _ = 1 to rounds do
    Prng.shuffle prng order;
    Array.iter
      (fun x ->
        let first = Prng.int prng nthreads in
        add first (Event.Read x);
        for _ = 1 to 1 + Prng.int prng 3 do
          add ((first + 1 + Prng.int prng (nthreads - 1)) mod nthreads) (Event.Read x)
        done)
      order;
    barrier ();
    Prng.shuffle prng order;
    Array.iter
      (fun x -> if Prng.int prng 5 > 0 then add (Prng.int prng nthreads) (Event.Write x))
      order;
    barrier ()
  done;
  Trace.validate
    (Trace.make ~nthreads ~nlocks:nthreads ~nlocs (Array.of_list (List.rev !evs)))

let churn_engines = Engine.[ Fasttrack; O1; O1u ]

let churn_config ?(sampler = Sampler.all) trace =
  {
    Detector.nthreads = trace.Trace.nthreads;
    nlocks = trace.Trace.nlocks;
    nlocs = trace.Trace.nlocs;
    clock_size = trace.Trace.nthreads;
    sampler;
  }

(* the same engines, with their pool hooks *)
let pooled : (Engine.id * (module Ft_core.Sampling_o1.S)) list =
  [
    (Engine.Fasttrack, (module Ft_core.Fasttrack));
    (Engine.O1, (module Ft_core.Sampling_o1));
    (Engine.O1u, (module Ft_core.Sampling_o1_uclock));
  ]

let test_pool_churn_identity () =
  List.iter
    (fun seed ->
      let trace = churn_trace ~seed ~nlocs:200 ~rounds:5 in
      let events = Trace.length trace in
      List.iter
        (fun id ->
          List.iter
            (fun (sname, sampler) ->
              let what = Printf.sprintf "%s × %s (seed %d)" (Engine.name id) sname seed in
              let reference = Ref_engines.run id ~sampler trace in
              same_verdict ~events ~what (Engine.run id ~sampler trace) reference;
              same_verdict ~events ~what:(what ^ ", pipeline")
                (Routed.run_pipeline id (churn_config ~sampler trace) trace)
                reference)
            [ ("all", Sampler.all); ("bernoulli", Sampler.bernoulli ~rate:0.5 ~seed:3) ])
        churn_engines)
    [ 41; 42 ]

(* Snapshot at several cuts: restoring and snapshotting again gives the
   same bytes, and the restored detector finishes the trace exactly as the
   straight run does. *)
let test_pool_churn_restore () =
  let trace = churn_trace ~seed:43 ~nlocs:200 ~rounds:4 in
  let config = churn_config trace in
  let n = Trace.length trace in
  List.iter
    (fun (id, (module D : Ft_core.Sampling_o1.S)) ->
      let straight = D.create config in
      Trace.iteri (fun i e -> D.handle straight i e) trace;
      List.iter
        (fun cut ->
          let d = D.create config in
          for i = 0 to cut - 1 do
            D.handle d i (Trace.get trace i)
          done;
          let snap = D.snapshot d in
          let d' = D.restore config snap in
          if not (String.equal (D.snapshot d') snap) then
            Alcotest.failf "%s: restore is not snapshot-stable at cut %d" (Engine.name id) cut;
          for i = cut to n - 1 do
            D.handle d' i (Trace.get trace i)
          done;
          if not (D.check_pool d') then
            Alcotest.failf "%s: pool invariants broken after restore at cut %d"
              (Engine.name id) cut;
          same_verdict ~events:n
            ~what:(Printf.sprintf "%s resumed at %d" (Engine.name id) cut)
            (D.result d') (D.result straight))
        [ 1; n / 7; n / 3; n / 2; 2 * n / 3; n - 1 ])
    pooled

(* Slots are recycled, never leaked: after every event the pool invariants
   hold, and the pool has never grown past the peak number of locations
   shared at once, rounded up to a chunk. *)
let test_pool_churn_bounded () =
  let trace = churn_trace ~seed:44 ~nlocs:300 ~rounds:6 in
  let config = churn_config trace in
  let chunk = Read_pool.chunk_slots in
  List.iter
    (fun (id, (module D : Ft_core.Sampling_o1.S)) ->
      let d = D.create config in
      let peak = ref 0 in
      Trace.iteri
        (fun i e ->
          D.handle d i e;
          let p = D.read_pool d in
          peak := Stdlib.max !peak (Read_pool.live p);
          if not (D.check_pool d) then
            Alcotest.failf "%s: pool invariants broken at event %d" (Engine.name id) i;
          if Read_pool.capacity p > (!peak + chunk - 1) / chunk * chunk then
            Alcotest.failf "%s: %d slots for a peak of %d shared at event %d" (Engine.name id)
              (Read_pool.capacity p) !peak i)
        trace;
      Alcotest.(check bool)
        (Engine.name id ^ ": more than two chunks shared at once")
        true
        (!peak > 2 * chunk);
      Alcotest.(check int) (Engine.name id ^ ": the trace is race-free") 0
        (List.length (D.result d).Detector.races))
    pooled

(* The access path allocates nothing: on a trace that is mostly shared
   reads, once a first pass has created the lock clocks and the pool's
   chunks, replaying further rounds costs no minor words.  A declared race
   would allocate its report; the trace has none. *)
let test_pool_no_allocation () =
  let rounds = 12 in
  let trace = churn_trace ~seed:45 ~nlocs:300 ~rounds in
  let config = churn_config trace in
  let n = Trace.length trace in
  let warm = n / rounds in
  let accesses = ref 0 in
  Trace.iteri
    (fun i (e : Event.t) ->
      match e.Event.op with
      | (Event.Read _ | Event.Write _) when i >= warm -> incr accesses
      | _ -> ())
    trace;
  List.iter
    (fun (id, (module D : Ft_core.Sampling_o1.S)) ->
      let d = D.create config in
      for i = 0 to warm - 1 do
        D.handle d i (Trace.get trace i)
      done;
      let before = Gc.minor_words () in
      for i = warm to n - 1 do
        D.handle d i (Trace.get trace i)
      done;
      let words = Gc.minor_words () -. before in
      Alcotest.(check int) (Engine.name id ^ ": race-free") 0
        (List.length (D.result d).Detector.races);
      if words > 64. then
        Alcotest.failf "%s: %.0f minor words over %d accesses" (Engine.name id) words
          !accesses)
    pooled

let () =
  Alcotest.run "fastpath"
    [
      ( "read_pool",
        [
          Alcotest.test_case "churn across chunks ≡ seed engines" `Quick
            test_pool_churn_identity;
          Alcotest.test_case "churn: restore is snapshot-stable at cuts" `Quick
            test_pool_churn_restore;
          Alcotest.test_case "slots ≤ peak shared, rounded to a chunk" `Quick
            test_pool_churn_bounded;
          Alcotest.test_case "no minor words per access" `Quick test_pool_no_allocation;
        ] );
      ( "netbuf",
        [
          Alcotest.test_case "chunked feed semantics" `Quick test_netbuf_semantics;
          Alcotest.test_case "bytes moved stay linear (quadratic-recv regression)" `Quick
            test_netbuf_amortized_linear;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "field_names complete, unique, exports same_epoch_hits"
            `Quick test_metrics_field_names;
          Alcotest.test_case "snap codec roundtrips distinct values" `Quick
            test_metrics_snap_roundtrip;
          Alcotest.test_case "add covers every field" `Quick
            test_metrics_add_covers_all_fields;
        ] );
      ( "batch_decode",
        [
          Alcotest.test_case "batch ≡ next ≡ source trace, exact offsets" `Quick
            test_batch_equals_next;
          Alcotest.test_case "seek to any event boundary resumes exactly" `Quick
            test_batch_seek_resume;
          Alcotest.test_case "tiny channel chunks refill correctly" `Quick
            test_batch_channel_refill;
          Alcotest.test_case "hostile input rejected with exact errors" `Quick
            test_batch_hostile_input;
        ] );
      ( "byte_identity",
        [
          Alcotest.test_case "flat vs seed engines × samplers × K" `Slow
            test_byte_identity_grid;
          Alcotest.test_case "so list pool: exact counts, bounded, T=256 tpcc" `Slow
            test_so_pool_bounded;
        ] );
      ( "history_width",
        [
          Alcotest.test_case "T=256, four threads: a few words per array" `Quick
            test_history_width_bound;
          Alcotest.test_case "decode refuses a read cache past the reads" `Quick
            test_history_decode_checks_read_cache;
        ] );
    ]
