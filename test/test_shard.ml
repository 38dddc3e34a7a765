(* Sharded(E, K) ≡ E — the tentpole invariant of the location-sharded
   parallel detector, a front running the sync engine and K checkers fed
   sampled accesses plus view changes:

   - deterministic grid: every engine × every sampling strategy × K ∈
     {1,2,4,8} on a mixed trace — race list, merged metrics, and the
     rendered report must be byte-identical to the unsharded engine;
   - QCheck properties over random traces/universes/engines/K, one of
     them on lock-heavy traces where sync handlers often move a view
     version without changing the view;
   - a litmus trace whose same-epoch hit depends on a view change with no
     entries, and a tpcc bound: checkers get sampled accesses and view
     changes only;
   - litmus traces that force router edge cases: the HB edge (lock,
     fork/join) is on the front while the racy accesses live on specific
     shards, and pending bits are set by accesses on other shards;
   - sharded snapshot/restore mid-trace reproduces the uninterrupted run;
   - a long supervised run keeps its byte backlog within its restore point
     plus one ring of messages;
   - the backlog and cluster batch decoders survive truncation and bit
     flips at every byte;
   - Metrics.merge_shards (the cluster router's merge): the
     Σ−(K−1)·baseline contract holds pointwise over the full field array,
     and K=1 is the identity;
   - the SPSC ring delivers in order under backpressure. *)

module Event = Ft_trace.Event
module Trace = Ft_trace.Trace
module Trace_gen = Ft_trace.Trace_gen
module Prng = Ft_support.Prng
module Engine = Ft_core.Engine
module Detector = Ft_core.Detector
module Sampler = Ft_core.Sampler
module Metrics = Ft_core.Metrics
module Spsc = Ft_shard.Spsc
module Sharded = Ft_shard.Sharded
module Serve = Ft_shard.Serve

let engines = Engine.all @ [ Engine.Eraser ]
let shard_counts = [ 1; 2; 4; 8 ]

(* every sampling strategy the library offers, stateful ones included *)
let sampler_specs ~trace_len =
  [
    ("all", Sampler.all);
    ("none", Sampler.none);
    ("bernoulli", Sampler.bernoulli ~rate:0.3 ~seed:11);
    ("every_nth", Sampler.every_nth 3);
    ("windowed", Sampler.windowed ~period:16 ~duty:0.5);
    ("by_location", Sampler.by_location (fun x -> x mod 2 = 0) ~name:"even-locs");
    ("fixed", Sampler.fixed (Array.init trace_len (fun i -> i mod 5 <> 0)));
    ("fixed_count", Sampler.fixed_count ~k:(trace_len / 4) ~length:trace_len ~seed:7);
    ("cold_region", Sampler.cold_region ~threshold:3);
    ("adaptive", Sampler.adaptive ~base_rate:4);
  ]

let config_for trace ?(pad = 0) sampler =
  {
    Detector.nthreads = trace.Trace.nthreads;
    nlocks = trace.Trace.nlocks;
    nlocs = trace.Trace.nlocs;
    clock_size = trace.Trace.nthreads + pad;
    sampler;
  }

let run_unsharded id config trace =
  let (module D : Detector.S) = Engine.detector id in
  let d = D.create config in
  Trace.iteri (fun i e -> D.handle d i e) trace;
  D.result d

let run_sharded id ~shards config trace =
  let sh = Sharded.create ~engine:id ~shards config in
  Fun.protect ~finally:(fun () -> Sharded.stop sh) @@ fun () ->
  Trace.iteri (fun i e -> Sharded.handle sh i e) trace;
  Sharded.result sh

let same_result ~events a b =
  a.Detector.races = b.Detector.races
  && Metrics.to_array a.Detector.metrics = Metrics.to_array b.Detector.metrics
  && String.equal (Serve.report_text ~events a) (Serve.report_text ~events b)

let check_equiv name id config trace ~shards =
  let full = run_unsharded id config trace in
  let sharded = run_sharded id ~shards config trace in
  if not (same_result ~events:(Trace.length trace) full sharded) then
    Alcotest.failf "%s: Sharded(%s, K=%d) diverges (races %b, metrics %b)" name
      (Engine.name id) shards
      (full.Detector.races = sharded.Detector.races)
      (Metrics.to_array full.Detector.metrics = Metrics.to_array sharded.Detector.metrics)

(* --- deterministic grid ---------------------------------------------------- *)

let grid_trace =
  lazy
    (let prng = Prng.create ~seed:42 in
     Trace_gen.random prng
       {
         Trace_gen.nthreads = 5;
         nlocks = 3;
         nlocs = 12;
         length = 900;
         atomics = true;
         forkjoin = true;
       })

let test_grid () =
  let trace = Lazy.force grid_trace in
  let specs = sampler_specs ~trace_len:(Trace.length trace) in
  List.iter
    (fun id ->
      List.iter
        (fun (sname, sampler) ->
          List.iter
            (fun k ->
              check_equiv (Printf.sprintf "grid/%s" sname) id (config_for trace sampler)
                trace ~shards:k)
            shard_counts)
        specs)
    engines

(* --- random property -------------------------------------------------------- *)

type scenario = {
  seed : int;
  params : Trace_gen.params;
  k : int;
  pad : int;
  engine_ix : int;
  sampler_ix : int;
}

let n_prop_samplers = List.length (sampler_specs ~trace_len:1)

let scenario_gen =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let* nthreads = int_range 2 6 in
    let* nlocks = int_range 0 4 in
    let* nlocs = int_range 1 10 in
    let* length = int_range 20 250 in
    let* atomics = bool in
    let* forkjoin = bool in
    let* k = int_range 1 8 in
    let* pad = int_bound 4 in
    let* engine_ix = int_bound (List.length engines - 1) in
    let* sampler_ix = int_bound (n_prop_samplers - 1) in
    return
      {
        seed;
        params = { Trace_gen.nthreads; nlocks; nlocs; length; atomics; forkjoin };
        k;
        pad;
        engine_ix;
        sampler_ix;
      })

let print_scenario s =
  Printf.sprintf "seed=%d threads=%d locks=%d locs=%d len=%d atomics=%b fj=%b K=%d pad=%d engine=%s sampler#%d"
    s.seed s.params.Trace_gen.nthreads s.params.Trace_gen.nlocks s.params.Trace_gen.nlocs
    s.params.Trace_gen.length s.params.Trace_gen.atomics s.params.Trace_gen.forkjoin s.k
    s.pad
    (Engine.name (List.nth engines s.engine_ix))
    s.sampler_ix

let prop_shard_equivalence s =
  let prng = Prng.create ~seed:s.seed in
  let trace = Trace_gen.random prng s.params in
  let id = List.nth engines s.engine_ix in
  let _, sampler = List.nth (sampler_specs ~trace_len:(Trace.length trace)) s.sampler_ix in
  let config = config_for trace ~pad:s.pad sampler in
  let full = run_unsharded id config trace in
  let sharded = run_sharded id ~shards:s.k config trace in
  if not (same_result ~events:(Trace.length trace) full sharded) then
    QCheck.Test.fail_reportf "Sharded(%s, K=%d) diverges on %s" (Engine.name id) s.k
      (print_scenario s)
  else true

let shard_equivalence_test =
  QCheck.Test.make ~name:"Sharded(E, K) ≡ E (random traces)" ~count:30
    (QCheck.make ~print:print_scenario scenario_gen)
    prop_shard_equivalence

(* --- litmus: cross-shard sync edges ----------------------------------------- *)

(* smallest location ≥ [from] owned by shard [s] under K=4 *)
let loc_on_shard s ~from =
  let rec go x = if Sharded.owner_of ~shards:4 x = s then x else go (x + 1) in
  go from

let litmus_check ?(engines = engines) events ~nthreads ~nlocks ~nlocs ~expect_racy =
  let trace = Trace.validate (Trace.make ~nthreads ~nlocks ~nlocs (Array.of_list events)) in
  List.iter
    (fun id ->
      let config = config_for trace Sampler.all in
      List.iter (fun k -> check_equiv "litmus" id config trace ~shards:k) shard_counts;
      (* ground truth, from the HB-exact full-detection engine *)
      if id = Engine.Djit then
        Alcotest.(check (list int))
          "djit racy locations"
          expect_racy
          (Detector.racy_locations (run_unsharded id config trace)))
    engines

let ev t op = Event.mk t op

(* The HB edge (release→acquire on lock 0) is the front's; the accesses it
   orders live on two different shards of K=4, which learn it as views. *)
let test_litmus_lock_edge () =
  let a = loc_on_shard 1 ~from:0 and b = loc_on_shard 2 ~from:0 in
  let nlocs = Stdlib.max a b + 1 in
  (* ordered: no race on either location *)
  litmus_check ~nthreads:2 ~nlocks:1 ~nlocs ~expect_racy:[]
    [
      ev 0 (Event.Acquire 0);
      ev 0 (Event.Write a);
      ev 0 (Event.Write b);
      ev 0 (Event.Release 0);
      ev 1 (Event.Acquire 0);
      ev 1 (Event.Write a);
      ev 1 (Event.Write b);
      ev 1 (Event.Release 0);
    ];
  (* unordered: both locations race *)
  litmus_check ~nthreads:2 ~nlocks:0 ~nlocs
    ~expect_racy:(List.sort_uniq compare [ a; b ])
    [ ev 0 (Event.Write a); ev 0 (Event.Write b); ev 1 (Event.Write a); ev 1 (Event.Write b) ]

let test_litmus_fork_join_edge () =
  let a = loc_on_shard 0 ~from:0 and b = loc_on_shard 3 ~from:0 in
  let nlocs = Stdlib.max a b + 1 in
  litmus_check ~nthreads:2 ~nlocks:0 ~nlocs ~expect_racy:[]
    [
      ev 0 (Event.Write a);
      ev 0 (Event.Fork 1);
      ev 1 (Event.Write a);
      ev 1 (Event.Write b);
      ev 0 (Event.Join 1);
      ev 0 (Event.Write b);
    ]

(* A sampled access on shard-1's location sets thread 0's pending bit; the
   flush happens at a release only the front sees, and the verdict that
   depends on the flushed clock concerns shard-2's location.  With atomics,
   the same through Release_store/Acquire_load. *)
let test_litmus_pending_mark_crosses_shards () =
  let a = loc_on_shard 1 ~from:0 and b = loc_on_shard 2 ~from:0 in
  let nlocs = Stdlib.max a b + 1 in
  litmus_check ~nthreads:2 ~nlocks:1 ~nlocs
    ~expect_racy:[ b ]
    [
      ev 0 (Event.Acquire 0);
      ev 0 (Event.Read a);
      ev 0 (Event.Release 0);
      ev 1 (Event.Acquire 0);
      ev 1 (Event.Write b);
      ev 1 (Event.Release 0);
      ev 0 (Event.Write b);
    ];
  litmus_check ~nthreads:2 ~nlocks:1 ~nlocs
    ~expect_racy:[ b ]
    [
      ev 0 (Event.Read a);
      ev 0 (Event.Release_store 0);
      ev 1 (Event.Acquire_load 0);
      ev 1 (Event.Write b);
      ev 0 (Event.Write b);
    ]

(* The O(1)-samples engines keep no per-location clocks: the front learns
   of a thread's sampled activity only through [note_sampled].  This trace
   makes it the only driver of the epoch flushes — the accesses live on
   shard 1 (K=4), while the flush decisions they feed (the o1-u
   release-side skip at e4, the re-publish at e6, the re-acquire skip at
   e3) are the front's and must match the unsharded run's, or the merged
   skip/publish counters and the final read-write race on [a] diverge. *)
let test_litmus_note_sampled_replication () =
  let a = loc_on_shard 1 ~from:0 in
  let nlocs = a + 1 in
  litmus_check
    ~engines:[ Engine.Djit; Engine.O1; Engine.O1u; Engine.Su; Engine.So ]
    ~nthreads:2 ~nlocks:1 ~nlocs ~expect_racy:[ a ]
    [
      ev 0 (Event.Acquire 0);
      ev 0 (Event.Read a);     (* the front notes the sample *)
      ev 0 (Event.Release 0);  (* flush: first publish *)
      ev 0 (Event.Acquire 0);  (* nothing fresh: acquire-side skip *)
      ev 0 (Event.Release 0);  (* no sample since flush: release-side skip *)
      ev 0 (Event.Acquire 0);
      ev 0 (Event.Read a);     (* second sample, same location *)
      ev 0 (Event.Release 0);  (* flush again: must re-publish *)
      ev 1 (Event.Write a);    (* races with both sampled reads *)
    ]

(* --- front + checkers ≡ engine ---------------------------------------------- *)

(* Lock-heavy traces over few locations: threads keep re-acquiring locks
   whose releasers they already heard from, so sync handlers often move a
   thread's view version without changing a single view entry, while the
   same (thread, epoch) keeps revisiting a location — the two things the
   checkers must reproduce exactly for same_epoch_hits to match. *)
let front_gen =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let* nthreads = int_range 2 4 in
    let* nlocks = int_range 1 2 in
    let* nlocs = int_range 1 4 in
    let* length = int_range 100 400 in
    let* atomics = bool in
    let* forkjoin = bool in
    let* k = oneofl [ 1; 2; 4 ] in
    let* pad = int_bound 2 in
    let* engine_ix = int_bound (List.length engines - 1) in
    let* sampler_ix = int_bound (n_prop_samplers - 1) in
    return
      {
        seed;
        params = { Trace_gen.nthreads; nlocks; nlocs; length; atomics; forkjoin };
        k;
        pad;
        engine_ix;
        sampler_ix;
      })

let front_checkers_test =
  QCheck.Test.make ~name:"front + checkers ≡ engine (lock-heavy traces)" ~count:60
    (QCheck.make ~print:print_scenario front_gen)
    prop_shard_equivalence

(* Thread 0 re-acquires a lock last released by thread 1, which knows
   nothing thread 0 does not: every engine with a same-epoch cache
   invalidates thread 0's entries (a new view version) although no view
   entry changes, so the second write of [x] at the same epoch is not a
   hit.  The checker owning [x] learns that only from a View with no
   entries; without the re-acquire the write is a hit. *)
let test_unchanged_bump_keeps_hits_exact () =
  let x = 0 and y = 1 in
  let trace ~reacquire =
    Trace.validate
      (Trace.make ~nthreads:2 ~nlocks:1 ~nlocs:2
         (Array.of_list
            ([
               ev 0 (Event.Acquire 0);
               ev 0 (Event.Write y);
               ev 0 (Event.Release 0);
               ev 1 (Event.Acquire 0);
               ev 1 (Event.Release 0);
               ev 0 (Event.Write x);
             ]
            @ (if reacquire then [ ev 0 (Event.Acquire 0) ] else [])
            @ [ ev 0 (Event.Write x) ]
            @ if reacquire then [ ev 0 (Event.Release 0) ] else [])))
  in
  let hits tr =
    (run_unsharded Engine.So (config_for tr Sampler.all) tr).Detector.metrics
      .Metrics.same_epoch_hits
  in
  Alcotest.(check int) "without the re-acquire: one hit" 1 (hits (trace ~reacquire:false));
  Alcotest.(check int) "the re-acquire invalidates it" 0 (hits (trace ~reacquire:true));
  List.iter
    (fun reacquire ->
      let tr = trace ~reacquire in
      List.iter
        (fun id ->
          List.iter
            (fun k ->
              check_equiv "unchanged bump" id (config_for tr Sampler.all) tr ~shards:k)
            [ 1; 2; 4 ])
        engines)
    [ false; true ]

(* The checkers receive sampled accesses and view changes only — never a
   sync event: every message is a sampled access or the view change right
   before one. *)
let test_messages_bounded_by_samples () =
  let trace =
    Ft_workloads.Db_sim.generate
      (Option.get (Ft_workloads.Db_sim.profile "tpcc"))
      ~seed:7 ~target_events:30_000
  in
  let n = Trace.length trace in
  let config = config_for trace (Sampler.bernoulli ~rate:0.1 ~seed:3) in
  let sh = Sharded.create ~engine:Engine.So ~shards:2 config in
  Fun.protect ~finally:(fun () -> Sharded.stop sh) @@ fun () ->
  Trace.iteri (fun i e -> Sharded.handle sh i e) trace;
  let sampled = (Sharded.result sh).Detector.metrics.Metrics.sampled_accesses in
  let messages = Array.fold_left ( + ) 0 (Sharded.shard_event_counts sh) in
  Alcotest.(check bool)
    (Printf.sprintf "sampled %d ≤ messages %d ≤ 2 × sampled" sampled messages)
    true
    (sampled <= messages && messages <= 2 * sampled);
  Alcotest.(check bool)
    (Printf.sprintf "messages %d ≤ 0.2 × events %d" messages n)
    true
    (5 * messages <= n)

(* --- sharded snapshot / restore --------------------------------------------- *)

let test_sharded_snapshot_restore () =
  let prng = Prng.create ~seed:7 in
  let trace =
    Trace_gen.random prng
      {
        Trace_gen.default with
        Trace_gen.nthreads = 4;
        nlocks = 2;
        nlocs = 10;
        length = 600;
        forkjoin = true;
      }
  in
  let n = Trace.length trace in
  List.iter
    (fun (id, sampler) ->
      let config = config_for trace sampler in
      let full = run_unsharded id config trace in
      let k = 4 in
      let sh = Sharded.create ~engine:id ~shards:k config in
      for i = 0 to (n / 2) - 1 do
        Sharded.handle sh i (Trace.get trace i)
      done;
      let shards_snap = Sharded.shard_snapshots sh in
      let router_snap = Sharded.router_snapshot sh in
      Sharded.stop sh;
      let sh' = Sharded.restore ~engine:id ~shards:k config ~router:router_snap shards_snap in
      Fun.protect ~finally:(fun () -> Sharded.stop sh') @@ fun () ->
      Alcotest.(check int) "event count restored" (n / 2) (Sharded.events sh');
      for i = n / 2 to n - 1 do
        Sharded.handle sh' i (Trace.get trace i)
      done;
      let resumed = Sharded.result sh' in
      if not (same_result ~events:n full resumed) then
        Alcotest.failf "%s: sharded restore diverges" (Engine.name id))
    [
      (Engine.So, Sampler.cold_region ~threshold:2);
      (Engine.Su, Sampler.adaptive ~base_rate:3);
      (Engine.St, Sampler.bernoulli ~rate:0.4 ~seed:5);
      (Engine.Fasttrack, Sampler.all);
    ]

let test_restore_rejects_wrong_k () =
  let prng = Prng.create ~seed:8 in
  let trace = Trace_gen.random prng { Trace_gen.default with Trace_gen.length = 100 } in
  let config = config_for trace Sampler.all in
  let sh = Sharded.create ~engine:Engine.So ~shards:2 config in
  Trace.iteri (fun i e -> Sharded.handle sh i e) trace;
  let snaps = Sharded.shard_snapshots sh in
  let router = Sharded.router_snapshot sh in
  Sharded.stop sh;
  (match Sharded.restore ~engine:Engine.So ~shards:4 config ~router snaps with
  | exception Ft_core.Snap.Corrupt _ -> ()
  | sh' ->
    Sharded.stop sh';
    Alcotest.fail "restore accepted a mismatched shard count")

(* A router snapshot in the layout written before the front/checker split
   (shard count first, then the event count, the pending mirror, the
   sampler and a baseline snapshot) must not decode: a daemon resuming from
   such a set falls back to its logged fresh start. *)
let test_restore_rejects_old_router_layout () =
  let prng = Prng.create ~seed:8 in
  let trace = Trace_gen.random prng { Trace_gen.default with Trace_gen.length = 100 } in
  let config = config_for trace Sampler.all in
  let sh = Sharded.create ~engine:Engine.So ~shards:1 config in
  Trace.iteri (fun i e -> Sharded.handle sh i e) trace;
  let snaps = Sharded.shard_snapshots sh in
  Sharded.stop sh;
  let (module D : Detector.S) = Engine.detector Engine.So in
  let enc = Ft_core.Snap.Enc.create () in
  Ft_core.Snap.Enc.int enc 1;
  Ft_core.Snap.Enc.int enc (Trace.length trace);
  Ft_core.Snap.Enc.bool_array enc (Array.make trace.Trace.nthreads false);
  (Ft_core.Sampler.fresh Sampler.all).Ft_core.Sampler.save enc;
  Ft_core.Snap.Enc.string enc (D.snapshot (D.create config));
  let router = Ft_core.Snap.Enc.to_snap enc in
  match Sharded.restore ~engine:Engine.So ~shards:1 config ~router snaps with
  | exception Ft_core.Snap.Corrupt _ -> ()
  | sh' ->
    Sharded.stop sh';
    Alcotest.fail "restore accepted a router snapshot from before the split"

(* --- supervisor restore points ------------------------------------------------ *)

(* A long supervised run: restore points are requested as the byte backlog
   grows, the backlog never holds more than its restore point plus one ring
   of messages, and the report is byte-identical to the plain engine's.
   Sampling every access ships every access to the checker, which grows the
   backlog fastest. *)
let test_supervised_backlog_bound () =
  let trace =
    Ft_workloads.Db_sim.generate
      (Option.get (Ft_workloads.Db_sim.profile "tpcc"))
      ~seed:5 ~target_events:100_000
  in
  let n = Trace.length trace in
  let sampler = Sampler.all in
  let expected = Engine.run Engine.So ~sampler trace in
  let config = config_for trace sampler in
  let sh = Sharded.create ~engine:Engine.So ~shards:1 ~supervise:true config in
  Fun.protect ~finally:(fun () -> Sharded.stop sh) @@ fun () ->
  Trace.iteri (fun i e -> Sharded.handle sh i e) trace;
  Sharded.flush sh;
  let s = (Sharded.supervision sh).(0) in
  (* the widest message this trace can encode to — an access, or a view
     changing every entry to a value no timestamp of [n] events exceeds —
     times the ring's slots *)
  let widest = ref 0 in
  let measure f =
    let enc = Ft_core.Snap.Enc.create () in
    f enc;
    widest := Stdlib.max !widest (Ft_core.Snap.Enc.length enc)
  in
  Trace.iteri (fun i e -> measure (fun enc -> Ft_shard.Cmsg.encode_ev enc i e)) trace;
  let vsize = config.Detector.clock_size in
  measure (fun enc ->
      Ft_shard.Cmsg.encode_view enc (trace.Trace.nthreads - 1) (Array.init vsize Fun.id)
        (Array.make vsize n));
  Alcotest.(check bool) "≥100k events" true (n >= 100_000);
  Alcotest.(check bool) "restore points were taken" true (s.Sharded.restore_points > 1);
  Alcotest.(check bool)
    (Printf.sprintf "backlog %d B ≤ restore point %d B + one ring (%d × %d B)"
       s.Sharded.backlog_bytes s.Sharded.restore_bytes Sharded.ring_capacity !widest)
    true
    (s.Sharded.backlog_bytes <= s.Sharded.restore_bytes + (Sharded.ring_capacity * !widest));
  Alcotest.(check string) "report ≡ Engine.run"
    (Serve.report_text ~events:n expected)
    (Serve.report_text ~events:n (Sharded.result sh))

(* --- metrics merge contract -------------------------------------------------- *)

let metrics_of_array a = Option.get (Metrics.of_array a)

let test_merge_shards_formula () =
  let fc = Metrics.field_count in
  let shard k = Array.init fc (fun i -> ((k + 2) * 37) + (i * 3)) in
  let baseline = Array.init fc (fun i -> i + 1) in
  List.iter
    (fun k ->
      let shards = Array.init k (fun s -> metrics_of_array (shard s)) in
      let merged =
        Metrics.merge_shards ~sync_baseline:(metrics_of_array baseline) shards
      in
      let expected =
        Array.init fc (fun i ->
            Array.fold_left (fun acc m -> acc + (Metrics.to_array m).(i)) 0 shards
            - ((k - 1) * baseline.(i)))
      in
      Alcotest.(check (array int))
        (Printf.sprintf "Σ−(K−1)·baseline pointwise, K=%d" k)
        expected (Metrics.to_array merged))
    [ 1; 2; 4; 8 ];
  (* K=1: the baseline cancels entirely, whatever it claims *)
  let solo = metrics_of_array (shard 0) in
  Alcotest.(check (array int)) "K=1 is the identity"
    (Metrics.to_array solo)
    (Metrics.to_array
       (Metrics.merge_shards ~sync_baseline:(metrics_of_array baseline) [| solo |]))

let test_merge_shards_rejects_empty () =
  match Metrics.merge_shards ~sync_baseline:(Metrics.create ()) [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty shard array accepted"

(* --- decoder fuzzing ------------------------------------------------------------ *)

module Cmsg = Ft_shard.Cmsg
module Snap = Ft_core.Snap

(* Decode a backlog message by message, as a heal does; [Snap.Corrupt] ends
   it.  Any other exception escapes and fails the test. *)
let decode_backlog bytes =
  let dec = Snap.Dec.of_snap bytes in
  let rec go acc =
    if Snap.Dec.remaining dec = 0 then (List.rev acc, true)
    else match Cmsg.decode_check dec with
      | m -> go (m :: acc)
      | exception Snap.Corrupt _ -> (List.rev acc, false)
  in
  go []

(* Allocation of [f ()], in bytes.  The minor collection first keeps one
   from landing inside the window, where it would credit the window with
   counters the runtime flushes late. *)
let allocated f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (f ()));
  Gc.allocated_bytes () -. before

(* Every single-bit flip of [bytes], handed to [f] with the byte's offset. *)
let each_bit_flip bytes f =
  let b = Bytes.of_string bytes in
  for i = 0 to Bytes.length b - 1 do
    let orig = Bytes.get b i in
    for bit = 0 to 7 do
      Bytes.set b i (Char.chr (Char.code orig lxor (1 lsl bit)));
      f i (Bytes.to_string b)
    done;
    Bytes.set b i orig
  done

(* A supervisor backlog — accesses, each fourth behind a view change, every
   eighth of those empty and every eighth wide — attacked at every byte: truncation leaves
   exactly the messages that fit, a flipped bit never loses a message
   before it, and no input costs more than a few dozen bytes of allocation
   per byte, whatever counts it claims. *)
let test_backlog_fuzz () =
  let prng = Prng.create ~seed:31 in
  let trace = Trace_gen.random prng { Trace_gen.default with Trace_gen.length = 60 } in
  let enc = Snap.Enc.create () in
  let msgs = ref [] and ends = ref [] in
  let note m =
    msgs := m :: !msgs;
    ends := Snap.Enc.length enc :: !ends
  in
  Trace.iteri
    (fun i e ->
      if i mod 4 = 0 then begin
        let idx, vals =
          if i mod 32 = 0 then ([||], [||])
          else if i mod 16 = 0 then (Array.init 80 (fun j -> 2 * j), Array.make 80 i)
          else ([| 0; 2; 5 |], [| i; 300 * i; 1 |])
        in
        Cmsg.encode_view enc e.Event.thread idx vals;
        note (Cmsg.View (e.Event.thread, idx, vals))
      end;
      Cmsg.encode_ev enc i e;
      note (Cmsg.Acc (i, e)))
    trace;
  let msgs = List.rev !msgs and ends = List.rev !ends in
  let bytes = Snap.Enc.to_snap enc in
  let len = String.length bytes in
  Alcotest.(check bool) "whole backlog decodes" true (decode_backlog bytes = (msgs, true));
  let fitting n = List.filteri (fun j _ -> List.nth ends j <= n) msgs in
  for n = 0 to len do
    let got, clean = decode_backlog (String.sub bytes 0 n) in
    if got <> fitting n then Alcotest.failf "truncate at %d: wrong message prefix" n;
    if clean <> (n = 0 || List.mem n ends) then
      Alcotest.failf "truncate at %d: clean end %b at a %s" n clean
        (if List.mem n ends then "boundary" else "cut message")
  done;
  each_bit_flip bytes (fun i flipped ->
      let got = ref [] in
      let bytes_alloc = allocated (fun () -> got := fst (decode_backlog flipped)) in
      let intact = fitting i in
      if List.filteri (fun j _ -> j < List.length intact) !got <> intact then
        Alcotest.failf "flip at byte %d: lost an intact leading message" i;
      if bytes_alloc > float_of_int ((64 * len) + 4096) then
        Alcotest.failf "flip at byte %d: %.0f B allocated for %d B of input" i bytes_alloc len)

(* The cluster batch codec: truncation anywhere short of the whole payload
   is an [Error], every flipped bit decodes to [Ok] or [Error] — never an
   exception — within the same allocation bound. *)
let test_cmsg_fuzz () =
  let prng = Prng.create ~seed:37 in
  let trace = Trace_gen.random prng { Trace_gen.default with Trace_gen.length = 60 } in
  let msgs =
    Array.of_list
      (List.concat
         (List.init (Trace.length trace) (fun i ->
              let e = Trace.get trace i in
              Cmsg.Ev (i, e) :: (if i mod 5 = 0 then [ Cmsg.Mark e.Event.thread ] else []))))
  in
  let payload =
    Cmsg.encode ~nthreads:trace.Trace.nthreads ~nlocks:trace.Trace.nlocks
      ~nlocs:trace.Trace.nlocs msgs ~off:0 ~len:(Array.length msgs)
  in
  let len = String.length payload in
  (match Cmsg.decode payload with
  | Ok (_, got) -> Alcotest.(check bool) "whole batch decodes" true (got = msgs)
  | Error msg -> Alcotest.fail msg);
  for n = 0 to len - 1 do
    match Cmsg.decode (String.sub payload 0 n) with
    | Ok _ -> Alcotest.failf "truncate at %d: accepted" n
    | Error _ -> ()
  done;
  each_bit_flip payload (fun i flipped ->
      let bytes_alloc =
        allocated (fun () -> match Cmsg.decode flipped with Ok _ | Error _ -> ())
      in
      if bytes_alloc > float_of_int ((64 * len) + 4096) then
        Alcotest.failf "flip at byte %d: %.0f B allocated for %d B of input" i bytes_alloc len)

(* --- SPSC ring ---------------------------------------------------------------- *)

let test_spsc_order_under_backpressure () =
  let n = 10_000 in
  let q = Spsc.create ~capacity:4 ~dummy:(-1) in
  let consumer =
    Domain.spawn (fun () ->
        let out = Array.make n 0 in
        let seen = ref 0 in
        while !seen < n do
          match Spsc.peek q with
          | None -> Domain.cpu_relax ()
          | Some v ->
            out.(!seen) <- v;
            Spsc.advance q;
            incr seen
        done;
        out)
  in
  for i = 0 to n - 1 do
    Spsc.push q i
  done;
  let got = Domain.join consumer in
  Alcotest.(check (array int)) "FIFO through a 4-slot ring" (Array.init n Fun.id) got

let test_owner_of_is_total_and_stable () =
  List.iter
    (fun k ->
      for x = 0 to 999 do
        let o = Sharded.owner_of ~shards:k x in
        Alcotest.(check bool) "in range" true (o >= 0 && o < k);
        Alcotest.(check int) "deterministic" o (Sharded.owner_of ~shards:k x)
      done)
    shard_counts

let () =
  Alcotest.run "shard"
    [
      ( "equivalence",
        [
          Alcotest.test_case "grid: engines × samplers × K" `Quick test_grid;
          QCheck_alcotest.to_alcotest shard_equivalence_test;
          QCheck_alcotest.to_alcotest front_checkers_test;
          Alcotest.test_case "a bump that changes no entry keeps hits exact" `Quick
            test_unchanged_bump_keeps_hits_exact;
          Alcotest.test_case "messages bounded by sampled accesses (tpcc)" `Quick
            test_messages_bounded_by_samples;
        ] );
      ( "litmus",
        [
          Alcotest.test_case "lock edge crosses shards" `Quick test_litmus_lock_edge;
          Alcotest.test_case "fork/join edge crosses shards" `Quick
            test_litmus_fork_join_edge;
          Alcotest.test_case "pending mark crosses shards" `Quick
            test_litmus_pending_mark_crosses_shards;
          Alcotest.test_case "note_sampled replication drives o1 flushes" `Quick
            test_litmus_note_sampled_replication;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "sharded restore ≡ uninterrupted" `Quick
            test_sharded_snapshot_restore;
          Alcotest.test_case "wrong K rejected" `Quick test_restore_rejects_wrong_k;
          Alcotest.test_case "router snapshot from before the split rejected" `Quick
            test_restore_rejects_old_router_layout;
          Alcotest.test_case "supervised backlog ≤ restore point + one ring" `Quick
            test_supervised_backlog_bound;
        ] );
      ( "decoders",
        [
          Alcotest.test_case "backlog truncation + bit-flip fuzz at every byte" `Quick
            test_backlog_fuzz;
          Alcotest.test_case "Cmsg.decode truncation + bit-flip fuzz at every byte" `Quick
            test_cmsg_fuzz;
        ] );
      ( "metrics merge",
        [
          Alcotest.test_case "Σ−(K−1)·baseline over all fields" `Quick
            test_merge_shards_formula;
          Alcotest.test_case "empty rejected" `Quick test_merge_shards_rejects_empty;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "spsc order under backpressure" `Quick
            test_spsc_order_under_backpressure;
          Alcotest.test_case "owner_of total and stable" `Quick
            test_owner_of_is_total_and_stable;
        ] );
    ]
