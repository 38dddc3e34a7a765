module Event = Ft_trace.Event
module Detector = Ft_core.Detector
module Engine = Ft_core.Engine
module Sampler = Ft_core.Sampler
module Metrics = Ft_core.Metrics
module Race = Ft_core.Race
module Snap = Ft_core.Snap
module Fault = Ft_fault.Fault

(* Ring messages.  [Acc] and [View] are the stream a checker applies (and
   the supervisor backlogs, in {!Cmsg.check}'s format); [Snapshot] and
   [Stop] are control. *)
type msg =
  | Acc of int * Event.t  (* a shipped access, original index *)
  | View of Event.tid * int array * int array  (* changed view entries *)
  | Snapshot  (* supervised only: publish (count, snapshot) at this cut *)
  | Stop

exception Shard_failed of string

(* One engine instance behind closures, so the front and the checkers can
   be held without knowing the engine's state type. *)
type inst = {
  i_handle : int -> Event.t -> unit;
  i_note : Event.tid -> unit;
  i_version : Event.tid -> int;
  i_export : Event.tid -> int array -> unit;
  i_import : Event.tid -> int array -> int array -> unit;
  i_result : unit -> Detector.result;
  i_snapshot : unit -> Snap.t;
}

let instance (module D : Detector.S) ?snap config =
  let d = match snap with None -> D.create config | Some s -> D.restore config s in
  {
    i_handle = D.handle d;
    i_note = D.note_sampled d;
    i_version = D.view_version d;
    i_export = D.export_view d;
    i_import = D.import_view d;
    i_result = (fun () -> D.result d);
    i_snapshot = (fun () -> D.snapshot d);
  }

(* Per-shard control block.  The router domain owns every mutable field
   except [fail] and [snap_slot], which the worker publishes through
   atomics: [fail] when it dies or its handler raises, [snap_slot] with the
   (message-count, snapshot) pair a [Snapshot] request asked for.

   The front keeps, per thread, the view version it last shipped to this
   shard and a [shadow] of the view the checker holds, so it ships only
   changed entries.

   Supervised, the router keeps a restore point — [restore_snap] (None: a
   fresh instance) covering the shard's first [restore_count] messages —
   and [backlog], every message since, in {!Cmsg}'s varint format.  Once
   the backlog is as large as the restore point, the router pushes one
   [Snapshot] request at the cut [requested = pushed] and, when the worker
   answers, trims the backlog's first [request_off] bytes. *)
type shard = {
  ring : msg Spsc.t;
  mutable inst : inst;
  shipped : int array;  (* per thread: view version last shipped *)
  shadow : int array array;  (* per thread: the view the checker holds *)
  mutable domain : unit Domain.t option;
  fail : (string * bool) option Atomic.t;  (* reason, domain exited abruptly *)
  snap_slot : (int * Snap.t) option Atomic.t;
  mutable pushed : int;  (* messages ever routed to this shard (next seq) *)
  backlog : Snap.Enc.t;  (* supervised only: messages [restore_count, pushed) *)
  mutable restore_count : int;  (* messages covered by [restore_snap] *)
  mutable restore_snap : Snap.t option;
  mutable requested : int;  (* cut of the outstanding Snapshot request, or -1 *)
  mutable request_off : int;  (* backlog bytes before that cut *)
  mutable restore_points : int;  (* restore points adopted *)
  mutable snapshot_heals : int;  (* heals that restored a snapshot *)
  mutable restarts : int;
  mutable dead : string option;  (* restart budget exhausted: fail-fast *)
}

type t = {
  packed : (module Detector.S);
  checker_config : Detector.config;  (* the config, sampling everything *)
  k : int;
  supervise : bool;
  max_restarts : int;
  shards : shard array;
  front : inst;  (* the engine, fed sync events plus note_sampled *)
  samples : bool;  (* the engine checks only sampled accesses *)
  sampler_inst : Sampler.instance;
  tally : Metrics.t;  (* accesses nobody checks: events, reads, writes *)
  view : int array;  (* export scratch *)
  delta_idx : int array;
  delta_val : int array;
  mutable nevents : int;
  mutable stopped : bool;
}

let ring_capacity = 1024
let default_max_restarts = 8

(* Deterministic location → shard map (splitmix-style finalizer): stable
   across runs and platforms, so per-shard checkpoints stay valid. *)
let owner_of ~shards x =
  if shards = 1 then 0
  else begin
    let h = x * 0x9E3779B1 in
    let h = (h lxor (h lsr 16)) * 0x85EBCA6B in
    ((h lxor (h lsr 13)) land max_int) mod shards
  end

(* Workers process their ring until [Stop].  A handler exception is recorded
   once (first failure wins) and the worker keeps draining without
   processing, so the router can never deadlock pushing into a dead shard —
   except for an injected [Crash_domain], which abandons the ring mid-message
   exactly like a genuinely dead domain would; the supervisor drains it after
   the join.  [start] is the global per-shard message count already applied to
   [inst] when this worker was spawned (0 for a fresh shard, the restore
   point after a recovery), so published snapshot counts stay globally
   consistent across restarts.  A [Snapshot] request is not a message of the
   stream: it neither counts nor passes the [shard.step] fault point, so
   chaos schedules fire at the same messages whatever the requests. *)
let worker sh inst ~start idx () =
  let ring = sh.ring in
  let failed = ref false in
  let crashed = ref false in
  let processed = ref start in
  let step () =
    Fault.point ~lane:idx ~supports:[ Fault.Exn; Fault.Crash_domain; Fault.Delay ] "shard.step"
  in
  let rec loop spins =
    if not !crashed then
      match Spsc.peek ring with
      | None ->
        Domain.cpu_relax ();
        (* an idle shard (e.g. a serve daemon between batches) must not pin a
           core: back off to short sleeps after a burst of empty polls *)
        if spins > 4096 then Unix.sleepf 0.0002;
        loop (if spins > 4096 then spins else spins + 1)
      | Some Stop -> Spsc.advance ring
      | Some msg ->
        if not !failed then begin
          try
            match msg with
            | Acc (i, e) ->
              step ();
              inst.i_handle i e;
              incr processed
            | View (th, idx, vals) ->
              step ();
              inst.i_import th idx vals;
              incr processed
            | Snapshot -> Atomic.set sh.snap_slot (Some (!processed, inst.i_snapshot ()))
            | Stop -> assert false
          with
          | Fault.Injected ({ Fault.kind = Fault.Crash_domain; _ } as inc) ->
            crashed := true;
            Atomic.set sh.fail (Some (Fault.describe inc, true))
          | exn ->
            failed := true;
            let bt = Printexc.get_backtrace () in
            Atomic.set sh.fail (Some (Printexc.to_string exn ^ "\n" ^ bt, false))
        end;
        if not !crashed then begin
          Spsc.advance ring;
          loop 0
        end
  in
  loop 0

let spawn_shard t s =
  let sh = t.shards.(s) in
  let inst = sh.inst in
  sh.domain <- Some (Domain.spawn (worker sh inst ~start:sh.restore_count s))

(* --- router-side restore points (supervised mode only) ------------------- *)

let backlog_push sh = function
  | Acc (i, e) -> Cmsg.encode_ev sh.backlog i e
  | View (th, idx, vals) -> Cmsg.encode_view sh.backlog th idx vals
  | Snapshot | Stop -> assert false

let restore_bytes sh = match sh.restore_snap with None -> 0 | Some s -> String.length s

(* [snap] covers the shard's first [count] messages, which are the backlog's
   first [off] bytes: make it the restore point and drop those bytes — the
   supervisor only ever replays from the newest restore point. *)
let set_restore_point sh ~count ~off snap =
  Snap.Enc.drop sh.backlog off;
  sh.restore_count <- count;
  sh.restore_snap <- Some snap;
  sh.requested <- -1;
  sh.restore_points <- sh.restore_points + 1

(* Adopt the worker's answer to the outstanding request, if it is in. *)
let adopt_snapshot sh =
  if sh.requested >= 0 then
    match Atomic.get sh.snap_slot with
    | Some (c, snap) when c = sh.requested ->
      set_restore_point sh ~count:c ~off:sh.request_off snap
    | _ -> ()

let first_line s = match String.index_opt s '\n' with
  | None -> s
  | Some i -> String.sub s 0 i

(* Join a failed worker and leave its ring empty.  An [Exn]-failed worker is
   still draining, so a [Stop] reaches it; a crashed one abandoned the ring
   and the router sweeps up after the join. *)
let reap t s =
  let sh = t.shards.(s) in
  (match sh.domain with
  | None -> ()
  | Some d ->
    let exited = match Atomic.get sh.fail with Some (_, e) -> e | None -> false in
    if not exited then Spsc.push sh.ring Stop;
    Domain.join d;
    sh.domain <- None);
  while not (Spsc.is_empty sh.ring) do
    Spsc.advance sh.ring
  done

(* Self-healing: rebuild a failed shard from its last adopted snapshot and
   replay the backlog suffix.  Restores are exact — the replayed engine
   reaches precisely the state an unfaulted run would have — so verdicts
   are unaffected (the REPORT oracle of the chaos suite).  Bounded by
   [max_restarts] strikes per shard, after which the shard is marked dead
   and every subsequent operation fails fast with the diagnostic. *)
let rec heal t s =
  let sh = t.shards.(s) in
  match Atomic.get sh.fail with
  | None -> ()
  | Some (reason, _) ->
    if not t.supervise then begin
      reap t s;
      failwith (Printf.sprintf "Sharded: shard %d failed: %s" s reason)
    end;
    sh.restarts <- sh.restarts + 1;
    reap t s;
    Atomic.set sh.fail None;
    if sh.restarts > t.max_restarts then begin
      let diag =
        Printf.sprintf
          "shard %d exceeded its restart budget (%d strikes): last failure: %s" s
          t.max_restarts (first_line reason)
      in
      sh.dead <- Some diag;
      raise (Shard_failed diag)
    end;
    (* a request the dead worker did not answer died with its ring *)
    adopt_snapshot sh;
    sh.requested <- -1;
    sh.inst <- instance t.packed ?snap:sh.restore_snap t.checker_config;
    if sh.restore_snap <> None then sh.snapshot_heals <- sh.snapshot_heals + 1;
    Printf.eprintf
      "[supervisor] shard %d failed (%s); restart %d/%d, restored at message %d, \
       replaying %d\n%!"
      s (first_line reason) sh.restarts t.max_restarts sh.restore_count
      (sh.pushed - sh.restore_count);
    spawn_shard t s;
    let dec = Snap.Dec.of_snap (Snap.Enc.to_snap sh.backlog) in
    let next () =
      match Cmsg.decode_check dec with
      | Cmsg.Acc (i, e) -> Acc (i, e)
      | Cmsg.View (th, idx, vals) -> View (th, idx, vals)
    in
    let rec replay m =
      if Spsc.try_push sh.ring m then begin
        if Snap.Dec.remaining dec > 0 then replay (next ())
      end
      else if Atomic.get sh.fail = None then begin
        Domain.cpu_relax ();
        replay m
      end
    in
    if Snap.Dec.remaining dec > 0 then replay (next ());
    if Atomic.get sh.fail <> None then heal t s

let check_dead sh =
  match sh.dead with Some diag -> raise (Shard_failed diag) | None -> ()

(* Put [m] into shard [s]'s ring, or heal the shard if it fails meanwhile
   (the healed replay delivers whatever the backlog holds). *)
let rec deliver t s m =
  let sh = t.shards.(s) in
  if not (Spsc.try_push sh.ring m) then begin
    if Atomic.get sh.fail <> None then heal t s
    else begin
      Domain.cpu_relax ();
      deliver t s m
    end
  end

(* Route one message to shard [s].  Failure-aware: a supervised push heals
   a failed shard first (the healed replay delivers [m], which is already
   in the backlog); an unsupervised push surfaces the failure only when the
   ring is full (a draining worker keeps it empty), preserving the old
   fail-at-flush behavior.  A supervised push whose backlog has grown as
   large as the restore point then requests the next one: the [Snapshot]
   lands right behind message [pushed - 1], and the ring is FIFO, so the
   worker answers with its state after exactly [pushed] messages. *)
let push_msg t s m =
  let sh = t.shards.(s) in
  check_dead sh;
  if t.supervise then begin
    adopt_snapshot sh;
    backlog_push sh m
  end;
  sh.pushed <- sh.pushed + 1;
  Fault.point ~lane:s ~supports:[ Fault.Delay ] "spsc.push";
  if t.supervise && Atomic.get sh.fail <> None then heal t s else deliver t s m;
  if t.supervise && sh.requested < 0 && Snap.Enc.length sh.backlog >= restore_bytes sh
  then begin
    sh.requested <- sh.pushed;
    sh.request_off <- Snap.Enc.length sh.backlog;
    deliver t s Snapshot
  end

(* [shard_snaps.(s)] is checker [s]'s starting state (None: fresh), and
   also its first restore point under supervision; [shadows.(s)] the views
   and versions the front last shipped it (None: a fresh checker's). *)
let build ~engine ~shards:k ?(supervise = false) ?(max_restarts = default_max_restarts)
    (config : Detector.config) ~shard_snaps ~shadows ~front ~sampler_inst ~tally ~nevents =
  let packed = Engine.detector engine in
  let (module D : Detector.S) = packed in
  let vsize = D.view_size config in
  let nthreads = config.Detector.nthreads in
  let checker_config = { config with Detector.sampler = Sampler.all } in
  let t =
    {
      packed;
      checker_config;
      k;
      supervise;
      max_restarts;
      shards =
        Array.map
          (fun snap ->
            {
              ring = Spsc.create ~capacity:ring_capacity ~dummy:Stop;
              inst = instance packed ?snap checker_config;
              shipped = Array.make nthreads 0;
              shadow = Array.init nthreads (fun _ -> Array.make vsize 0);
              domain = None;
              fail = Atomic.make None;
              snap_slot = Atomic.make None;
              pushed = 0;
              backlog = Snap.Enc.create ();
              restore_count = 0;
              restore_snap = (if supervise then snap else None);
              requested = -1;
              request_off = 0;
              restore_points = 0;
              snapshot_heals = 0;
              restarts = 0;
              dead = None;
            })
          shard_snaps;
      front;
      samples = Engine.honours_sampler engine;
      sampler_inst;
      tally;
      view = Array.make vsize 0;
      delta_idx = Array.make vsize 0;
      delta_val = Array.make vsize 0;
      nevents;
      stopped = false;
    }
  in
  Array.iteri
    (fun s sh ->
      for th = 0 to nthreads - 1 do
        match shadows with
        | Some shadows ->
          let ver, view = shadows.(s).(th) in
          sh.shipped.(th) <- ver;
          Array.blit view 0 sh.shadow.(th) 0 vsize
        | None ->
          (* a fresh checker holds the fresh views, which the front (fresh
             too) still has *)
          sh.shipped.(th) <- front.i_version th;
          front.i_export th sh.shadow.(th)
      done)
    t.shards;
  for s = 0 to k - 1 do
    spawn_shard t s
  done;
  t

let create ~engine ~shards:k ?supervise ?max_restarts (config : Detector.config) =
  if k < 1 then invalid_arg "Sharded.create: shards must be positive";
  build ~engine ~shards:k ?supervise ?max_restarts config
    ~shard_snaps:(Array.make k None) ~shadows:None
    ~front:(instance (Engine.detector engine) config)
    ~sampler_inst:(Sampler.fresh config.Detector.sampler)
    ~tally:(Metrics.create ()) ~nevents:0

(* Bring checker [s]'s copy of thread [th]'s view up to date.  A version
   change ships a [View] even when no entry changed: the checker's import
   invalidates the thread's same-epoch cache entries just as the sync
   handler that moved the version did, so cache hits stay exact. *)
let ship_view t s th =
  let sh = t.shards.(s) in
  let v = t.front.i_version th in
  if v <> sh.shipped.(th) then begin
    sh.shipped.(th) <- v;
    t.front.i_export th t.view;
    let view = t.view and shadow = sh.shadow.(th) in
    let n = ref 0 in
    for j = 0 to Array.length view - 1 do
      let x = Array.unsafe_get view j in
      if x <> Array.unsafe_get shadow j then begin
        Array.unsafe_set shadow j x;
        t.delta_idx.(!n) <- j;
        t.delta_val.(!n) <- x;
        incr n
      end
    done;
    push_msg t s (View (th, Array.sub t.delta_idx 0 !n, Array.sub t.delta_val 0 !n))
  end

(* The front runs the sampler and the one sync engine; a checker sees only
   the accesses it must check, each behind the view changes it needs.
   Everything an access handler reads — the location's state, C_t[t ↦ e_t]
   and the same-epoch invalidations — is then exactly what the unsharded
   engine reads (DESIGN.md §6a). *)
let handle t i (e : Event.t) =
  if t.stopped then failwith "Sharded.handle: detector is stopped";
  (match e.Event.op with
  | Event.Read x | Event.Write x ->
    (* the sampler instance sees every access, exactly once, in trace order *)
    if (not t.samples) || Sampler.query t.sampler_inst i e then begin
      let th = e.Event.thread in
      t.front.i_note th;
      let s = owner_of ~shards:t.k x in
      ship_view t s th;
      push_msg t s (Acc (i, e))
    end
    else begin
      let m = t.tally in
      m.Metrics.events <- m.Metrics.events + 1;
      match e.Event.op with
      | Event.Read _ -> m.Metrics.reads <- m.Metrics.reads + 1
      | _ -> m.Metrics.writes <- m.Metrics.writes + 1
    end
  | Event.Acquire _ | Event.Acquire_load _ | Event.Release _ | Event.Release_store _
  | Event.Fork _ | Event.Join _ ->
    t.front.i_handle i e);
  t.nevents <- t.nevents + 1

(* A sampled access owned by another detector — a cluster worker applying
   a [Mark] from its router ({!Cmsg}): only the front's pending bit moves.
   Not an event: [nevents] and the message counts stay put. *)
let note_sampled t th =
  if t.stopped then failwith "Sharded.note_sampled: detector is stopped";
  if th < 0 || th >= Array.length t.shards.(0).shipped then
    failwith (Printf.sprintf "Sharded.note_sampled: thread %d out of range" th);
  t.front.i_note th

let events t = t.nevents

let shard_event_counts t = Array.map (fun sh -> sh.pushed) t.shards

let ring_occupancy t = Array.map (fun sh -> Spsc.length sh.ring) t.shards

let restart_counts t = Array.map (fun sh -> sh.restarts) t.shards

type supervision = {
  restore_points : int;
  restore_bytes : int;
  backlog_bytes : int;
  snapshot_heals : int;
}

let supervision t =
  Array.map
    (fun (sh : shard) ->
      {
        restore_points = sh.restore_points;
        restore_bytes = restore_bytes sh;
        backlog_bytes = Snap.Enc.length sh.backlog;
        snapshot_heals = sh.snapshot_heals;
      })
    t.shards

let restarts_total t = Array.fold_left (fun acc sh -> acc + sh.restarts) 0 t.shards

(* Wait until every shard has fully processed everything routed so far,
   healing failures as they surface (a heal replays, so the wait starts
   over). *)
let flush t =
  if not t.stopped then begin
    let again = ref true in
    while !again do
      again := false;
      Array.iteri
        (fun s sh ->
          check_dead sh;
          while (not (Spsc.is_empty sh.ring)) && Atomic.get sh.fail = None do
            Domain.cpu_relax ()
          done;
          if Atomic.get sh.fail <> None then begin
            heal t s;
            again := true
          end)
        t.shards
    done;
    (* drained rings have answered every request *)
    Array.iter adopt_snapshot t.shards
  end
  else Array.iter check_dead t.shards

(* The front did the sync work, the checkers the checks and the tally the
   rest, so the counters simply add up. *)
let result t =
  flush t;
  let rs = Array.map (fun sh -> sh.inst.i_result ()) t.shards in
  let front = t.front.i_result () in
  let races =
    List.sort
      (fun (a : Race.t) (b : Race.t) -> Stdlib.compare a.Race.index b.Race.index)
      (List.concat_map (fun (r : Detector.result) -> r.Detector.races) (Array.to_list rs))
  in
  let metrics = Metrics.create () in
  Metrics.add ~into:metrics front.Detector.metrics;
  Array.iter (fun (r : Detector.result) -> Metrics.add ~into:metrics r.Detector.metrics) rs;
  Metrics.add ~into:metrics t.tally;
  { Detector.engine = front.Detector.engine; races; metrics }

let stop t =
  if not t.stopped then begin
    (* Heal pending failures first so the joined state is the exact prefix
       state ({!result} and the snapshot accessors stay valid after stop).
       An exhausted restart budget is re-raised only after every domain has
       been joined — no leaks on the fail-fast path. *)
    let pending_exn = ref None in
    if t.supervise then
      Array.iteri
        (fun s sh ->
          if Atomic.get sh.fail <> None && sh.dead = None then
            try heal t s
            with e -> if !pending_exn = None then pending_exn := Some e)
        t.shards;
    Array.iteri
      (fun s _ ->
        let sh = t.shards.(s) in
        match sh.domain with
        | None -> ()
        | Some d ->
          let exited =
            match Atomic.get sh.fail with Some (_, e) -> e | None -> false
          in
          if not exited then Spsc.push sh.ring Stop;
          Domain.join d;
          sh.domain <- None;
          while not (Spsc.is_empty sh.ring) do
            Spsc.advance sh.ring
          done)
      t.shards;
    t.stopped <- true;
    (match !pending_exn with Some e -> raise e | None -> ());
    if not t.supervise then
      Array.iteri
        (fun s sh ->
          match Atomic.get sh.fail with
          | Some (reason, _) ->
            failwith (Printf.sprintf "Sharded: shard %d failed: %s" s reason)
          | None -> ())
        t.shards
  end

(* Under supervision each checkpoint snapshot doubles as the shard's restore
   point, so a checkpointing daemon never serializes the same state twice. *)
let shard_snapshots t =
  flush t;
  Array.map
    (fun sh ->
      let snap = sh.inst.i_snapshot () in
      if t.supervise then
        set_restore_point sh ~count:sh.pushed ~off:(Snap.Enc.length sh.backlog) snap;
      snap)
    t.shards

(* Router snapshots open with a format tag below any shard count, so one
   written before the front/checker split fails to decode — a logged fresh
   start — instead of misreading. *)
let router_format = -2

let router_snapshot t =
  flush t;
  let enc = Snap.Enc.create () in
  Snap.Enc.int enc router_format;
  Snap.Enc.int enc t.k;
  Snap.Enc.int enc t.nevents;
  t.sampler_inst.Sampler.save enc;
  Snap.Enc.string enc (t.front.i_snapshot ());
  Metrics.encode enc t.tally;
  Array.iter
    (fun sh ->
      Array.iteri
        (fun th ver ->
          Snap.Enc.int enc ver;
          Snap.Enc.int_array enc sh.shadow.(th))
        sh.shipped)
    t.shards;
  Snap.Enc.to_snap enc

let restore ~engine ~shards:k ?supervise ?max_restarts (config : Detector.config) ~router
    shard_snaps =
  if k < 1 then invalid_arg "Sharded.restore: shards must be positive";
  Snap.expect
    (Array.length shard_snaps = k)
    "Sharded.restore: shard snapshot count does not match shard count";
  let dec = Snap.Dec.of_snap router in
  Snap.expect
    (Snap.Dec.int dec = router_format)
    "Sharded.restore: router snapshot predates the front/checker split";
  let k' = Snap.Dec.int dec in
  Snap.expect (k' = k) "Sharded.restore: router snapshot was taken with a different K";
  let nevents = Snap.Dec.int dec in
  Snap.expect (nevents >= 0) "Sharded.restore: negative event count";
  let sampler_inst = Sampler.fresh config.Detector.sampler in
  sampler_inst.Sampler.load dec;
  let packed = Engine.detector engine in
  let front = instance packed ~snap:(Snap.Dec.string dec) config in
  let tally = Metrics.decode dec in
  let (module D : Detector.S) = packed in
  let vsize = D.view_size config in
  let shadows =
    Array.init k (fun _ ->
        Array.init config.Detector.nthreads (fun _ ->
            let ver = Snap.Dec.int dec in
            (ver, Snap.Dec.int_array_n dec vsize)))
  in
  Snap.Dec.finish dec;
  build ~engine ~shards:k ?supervise ?max_restarts config
    ~shard_snaps:(Array.map Option.some shard_snaps) ~shadows:(Some shadows) ~front
    ~sampler_inst ~tally ~nevents
