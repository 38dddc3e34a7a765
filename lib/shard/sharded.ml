module Event = Ft_trace.Event
module Detector = Ft_core.Detector
module Engine = Ft_core.Engine
module Sampler = Ft_core.Sampler
module Metrics = Ft_core.Metrics
module Race = Ft_core.Race
module Snap = Ft_core.Snap
module Fault = Ft_fault.Fault

type msg =
  | Ev of int * Event.t
  | Mark of Event.tid  (* replicate a pending-bit transition: note_sampled *)
  | Snapshot  (* supervised only: publish (count, snapshot) at this cut *)
  | Stop

exception Shard_failed of string

(* One engine instance behind closures, so the router can hold K of them
   without knowing the engine's state type. *)
type inst = {
  i_handle : int -> Event.t -> unit;
  i_note : Event.tid -> unit;
  i_result : unit -> Detector.result;
  i_snapshot : unit -> Snap.t;
}

let fresh_inst (module D : Detector.S) config =
  let d = D.create config in
  {
    i_handle = (fun i e -> D.handle d i e);
    i_note = (fun t -> D.note_sampled d t);
    i_result = (fun () -> D.result d);
    i_snapshot = (fun () -> D.snapshot d);
  }

let restored_inst (module D : Detector.S) config snap =
  let d = D.restore config snap in
  {
    i_handle = (fun i e -> D.handle d i e);
    i_note = (fun t -> D.note_sampled d t);
    i_result = (fun () -> D.result d);
    i_snapshot = (fun () -> D.snapshot d);
  }

(* Per-shard control block.  The router domain owns every mutable field
   except [fail] and [snap_slot], which the worker publishes through
   atomics: [fail] when it dies or its handler raises, [snap_slot] with the
   (message-count, snapshot) pair a [Snapshot] request asked for.

   Supervised, the router keeps a restore point — [restore_snap] (None: a
   fresh instance) covering the shard's first [restore_count] messages —
   and [backlog], every message since, in {!Cmsg}'s varint format.  Once
   the backlog is as large as the restore point, the router pushes one
   [Snapshot] request at the cut [requested = pushed] and, when the worker
   answers, trims the backlog's first [request_off] bytes. *)
type shard = {
  ring : msg Spsc.t;
  mutable inst : inst;
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
  engine : Engine.id;
  packed : (module Detector.S);
  config : Detector.config;
  k : int;
  supervise : bool;
  max_restarts : int;
  shards : shard array;
  baseline : inst;  (* same engine, fed only the broadcast sync stream *)
  sampler_inst : Sampler.instance;
  pending : bool array;  (* mirror of every instance's pending bit, per thread *)
  routed : int array;  (* events pushed per shard ring; router-domain only *)
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
            | Ev (i, e) ->
              step ();
              inst.i_handle i e;
              incr processed
            | Mark th ->
              step ();
              inst.i_note th;
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
  | Ev (i, e) -> Cmsg.encode_ev sh.backlog i e
  | Mark th -> Cmsg.encode_mark sh.backlog th
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
    (match sh.restore_snap with
    | Some snap ->
      sh.inst <- restored_inst t.packed t.config snap;
      sh.snapshot_heals <- sh.snapshot_heals + 1
    | None -> sh.inst <- fresh_inst t.packed t.config);
    Printf.eprintf
      "[supervisor] shard %d failed (%s); restart %d/%d, restored at message %d, \
       replaying %d\n%!"
      s (first_line reason) sh.restarts t.max_restarts sh.restore_count
      (sh.pushed - sh.restore_count);
    spawn_shard t s;
    let dec = Snap.Dec.of_snap (Snap.Enc.to_snap sh.backlog) in
    let next () =
      match Cmsg.decode_msg dec with Cmsg.Ev (i, e) -> Ev (i, e) | Cmsg.Mark th -> Mark th
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

(* [shard_snaps.(s)] is shard [s]'s starting state (None: fresh), and also
   its first restore point under supervision. *)
let build ~engine ~shards:k ?(supervise = false) ?(max_restarts = default_max_restarts)
    config ~shard_snaps ~baseline ~sampler_inst ~pending ~nevents =
  let packed = Engine.detector engine in
  let t =
    {
      engine;
      packed;
      config;
      k;
      supervise;
      max_restarts;
      shards =
        Array.map
          (fun snap ->
            {
              ring = Spsc.create ~capacity:ring_capacity ~dummy:Stop;
              inst =
                (match snap with
                | None -> fresh_inst packed config
                | Some s -> restored_inst packed config s);
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
      baseline;
      sampler_inst;
      pending;
      routed = Array.make k 0;
      nevents;
      stopped = false;
    }
  in
  for s = 0 to k - 1 do
    spawn_shard t s
  done;
  t

let create ~engine ~shards:k ?supervise ?max_restarts (config : Detector.config) =
  if k < 1 then invalid_arg "Sharded.create: shards must be positive";
  build ~engine ~shards:k ?supervise ?max_restarts config
    ~shard_snaps:(Array.make k None)
    ~baseline:(fresh_inst (Engine.detector engine) config)
    ~sampler_inst:(Sampler.fresh config.Detector.sampler)
    ~pending:(Array.make config.Detector.nthreads false)
    ~nevents:0

let broadcast t m =
  for s = 0 to t.k - 1 do
    push_msg t s m;
    t.routed.(s) <- t.routed.(s) + 1
  done

let handle t i (e : Event.t) =
  if t.stopped then failwith "Sharded.handle: detector is stopped";
  (match e.Event.op with
  | Event.Read x | Event.Write x ->
    let o = owner_of ~shards:t.k x in
    (* The router's sampler instance sees every access, exactly once, in
       trace order — the instance contract.  Query before the && so stateful
       strategies advance even while the bit is already set. *)
    let sampled = Sampler.query t.sampler_inst i e in
    if sampled && not t.pending.(e.Event.thread) then begin
      t.pending.(e.Event.thread) <- true;
      for s = 0 to t.k - 1 do
        (* the owner sets its own bit when it handles the event *)
        if s <> o then push_msg t s (Mark e.Event.thread)
      done;
      t.baseline.i_note e.Event.thread
    end;
    push_msg t o (Ev (i, e));
    t.routed.(o) <- t.routed.(o) + 1
  | Event.Acquire _ | Event.Acquire_load _ ->
    (* acquires never flush pending *)
    broadcast t (Ev (i, e));
    t.baseline.i_handle i e
  | Event.Release _ | Event.Release_store _ ->
    broadcast t (Ev (i, e));
    t.baseline.i_handle i e;
    t.pending.(e.Event.thread) <- false
  | Event.Fork _ ->
    (* fork flushes the forking thread *)
    broadcast t (Ev (i, e));
    t.baseline.i_handle i e;
    t.pending.(e.Event.thread) <- false
  | Event.Join u ->
    (* join flushes the joined child *)
    broadcast t (Ev (i, e));
    t.baseline.i_handle i e;
    t.pending.(u) <- false);
  t.nevents <- t.nevents + 1

(* A pending-bit transition whose triggering access is owned elsewhere — a
   cluster worker applying a [Mark] from its router (see {!Cmsg}).  From
   this detector's point of view no internal shard owns the access, so the
   mark goes to every shard, exactly as [handle] sends it to every
   non-owner; the baseline notes it too, keeping the internal baseline
   identical to the global run's.  Not an event: [nevents] and the routed
   counters stay put. *)
let note_sampled t th =
  if t.stopped then failwith "Sharded.note_sampled: detector is stopped";
  if th < 0 || th >= Array.length t.pending then
    failwith (Printf.sprintf "Sharded.note_sampled: thread %d out of range" th);
  if not t.pending.(th) then begin
    t.pending.(th) <- true;
    for s = 0 to t.k - 1 do
      push_msg t s (Mark th)
    done;
    t.baseline.i_note th
  end

let events t = t.nevents

let shard_event_counts t = Array.copy t.routed

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

let result t =
  flush t;
  let rs = Array.map (fun sh -> sh.inst.i_result ()) t.shards in
  let base = t.baseline.i_result () in
  let races =
    List.sort
      (fun (a : Race.t) (b : Race.t) -> Stdlib.compare a.Race.index b.Race.index)
      (List.concat_map (fun (r : Detector.result) -> r.Detector.races) (Array.to_list rs))
  in
  {
    Detector.engine = base.Detector.engine;
    races;
    metrics =
      Metrics.merge_shards ~sync_baseline:base.Detector.metrics
        (Array.map (fun (r : Detector.result) -> r.Detector.metrics) rs);
  }

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

let router_snapshot t =
  flush t;
  let enc = Snap.Enc.create () in
  Snap.Enc.int enc t.k;
  Snap.Enc.int enc t.nevents;
  Snap.Enc.bool_array enc t.pending;
  t.sampler_inst.Sampler.save enc;
  Snap.Enc.string enc (t.baseline.i_snapshot ());
  Snap.Enc.to_snap enc

let restore ~engine ~shards:k ?supervise ?max_restarts (config : Detector.config) ~router
    shard_snaps =
  if k < 1 then invalid_arg "Sharded.restore: shards must be positive";
  Snap.expect
    (Array.length shard_snaps = k)
    "Sharded.restore: shard snapshot count does not match shard count";
  let dec = Snap.Dec.of_snap router in
  let k' = Snap.Dec.int dec in
  Snap.expect (k' = k) "Sharded.restore: router snapshot was taken with a different K";
  let nevents = Snap.Dec.int dec in
  Snap.expect (nevents >= 0) "Sharded.restore: negative event count";
  let pending = Snap.Dec.bool_array_n dec config.Detector.nthreads in
  let sampler_inst = Sampler.fresh config.Detector.sampler in
  sampler_inst.Sampler.load dec;
  let base_snap = Snap.Dec.string dec in
  Snap.Dec.finish dec;
  build ~engine ~shards:k ?supervise ?max_restarts config
    ~shard_snaps:(Array.map Option.some shard_snaps)
    ~baseline:(restored_inst (Engine.detector engine) config base_snap)
    ~sampler_inst ~pending ~nevents
