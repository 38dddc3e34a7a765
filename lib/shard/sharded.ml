module Event = Ft_trace.Event
module Detector = Ft_core.Detector
module Engine = Ft_core.Engine
module Sampler = Ft_core.Sampler
module Snap = Ft_core.Snap
module Fault = Ft_fault.Fault

(* Ring messages: the stream a checker applies (and the supervisor
   backlogs, in {!Cmsg}'s format), and control. *)
type msg =
  | Check of Cmsg.check
  | Snapshot  (* supervised only: publish (count, snapshot) at this cut *)
  | Stop

exception Shard_failed of string

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
  mutable inst : Front.inst;
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
  front : Front.t;  (* idle in a cluster worker, which its router fronts *)
  ship : Front.ship;  (* per (shard, thread): what each checker last saw *)
  imp_ver : int array;  (* per thread: bumped by every imported [View] *)
  imp_view : int array array;  (* per thread: the view the router shipped *)
  imported : Front.source;  (* [imp_ver] and [imp_view] *)
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
            | Check c ->
              step ();
              (match c with
              | Cmsg.Acc (i, e) -> inst.Front.i_handle i e
              | Cmsg.View (th, idx, vals) -> inst.Front.i_import th idx vals);
              incr processed
            | Snapshot -> Atomic.set sh.snap_slot (Some (!processed, inst.Front.i_snapshot ()))
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
    sh.inst <- Front.instance t.packed ?snap:sh.restore_snap t.checker_config;
    if sh.restore_snap <> None then sh.snapshot_heals <- sh.snapshot_heals + 1;
    Printf.eprintf
      "[supervisor] shard %d failed (%s); restart %d/%d, restored at message %d, \
       replaying %d\n%!"
      s (first_line reason) sh.restarts t.max_restarts sh.restore_count
      (sh.pushed - sh.restore_count);
    spawn_shard t s;
    let dec = Snap.Dec.of_snap (Snap.Enc.to_snap sh.backlog) in
    let next () = Check (Cmsg.decode_check dec) in
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
   a failed shard first (the healed replay delivers [c], which is already
   in the backlog); an unsupervised push surfaces the failure only when the
   ring is full (a draining worker keeps it empty), preserving the old
   fail-at-flush behavior.  A supervised push whose backlog has grown as
   large as the restore point then requests the next one: the [Snapshot]
   lands right behind message [pushed - 1], and the ring is FIFO, so the
   worker answers with its state after exactly [pushed] messages. *)
let push_msg t s c =
  let sh = t.shards.(s) in
  check_dead sh;
  if t.supervise then begin
    adopt_snapshot sh;
    Cmsg.encode_check sh.backlog c
  end;
  sh.pushed <- sh.pushed + 1;
  Fault.point ~lane:s ~supports:[ Fault.Delay ] "spsc.push";
  if t.supervise && Atomic.get sh.fail <> None then heal t s else deliver t s (Check c);
  if t.supervise && sh.requested < 0 && Snap.Enc.length sh.backlog >= restore_bytes sh
  then begin
    sh.requested <- sh.pushed;
    sh.request_off <- Snap.Enc.length sh.backlog;
    deliver t s Snapshot
  end

(* [shard_snaps.(s)] is checker [s]'s starting state (None: fresh), and
   also its first restore point under supervision; [ship] what the
   checkers last saw (None: fresh views); [imported] the worker's imported
   view table (None: the front's fresh views). *)
let build ~engine ~shards:k ?(supervise = false) ?(max_restarts = default_max_restarts)
    (config : Detector.config) ~shard_snaps ~front ~ship ~imported ~nevents =
  let packed = Engine.detector engine in
  let nthreads = config.Detector.nthreads and vsize = Front.view_size front in
  let checker_config = { config with Detector.sampler = Sampler.all } in
  let src = Front.source front in
  let imp_ver, imp_view =
    match imported with
    | Some table -> table
    | None ->
      ( Array.init nthreads src.Front.version,
        Array.init nthreads (fun th ->
            let v = Array.make vsize 0 in
            src.Front.export th v;
            v) )
  in
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
              inst = Front.instance packed ?snap checker_config;
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
      ship =
        (match ship with
        | Some s -> s
        | None -> Front.ship_create src ~dests:k ~nthreads ~vsize);
      imp_ver;
      imp_view;
      imported =
        {
          Front.version = (fun th -> imp_ver.(th));
          export = (fun th buf -> Array.blit imp_view.(th) 0 buf 0 vsize);
        };
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
    ~shard_snaps:(Array.make k None) ~front:(Front.create ~engine config) ~ship:None
    ~imported:None ~nevents:0

(* Send an access to its owner behind the changes to its thread's view
   (from [src]) that the owner has not seen. *)
let route_access t src i (e : Event.t) x =
  let s = owner_of ~shards:t.k x in
  (match Front.ship t.ship src s e.Event.thread with
  | Some (idx, vals) -> push_msg t s (Cmsg.View (e.Event.thread, idx, vals))
  | None -> ());
  push_msg t s (Cmsg.Acc (i, e))

(* The front runs the sampler and the one sync engine; a checker sees only
   the accesses it must check, each behind the view changes it needs.
   Everything an access handler reads — the location's state, C_t[t ↦ e_t]
   and the same-epoch invalidations — is then exactly what the unsharded
   engine reads (DESIGN.md §6a). *)
let handle t i (e : Event.t) =
  if t.stopped then failwith "Sharded.handle: detector is stopped";
  if Front.admit t.front i e then begin
    match e.Event.op with
    | Event.Read x | Event.Write x -> route_access t (Front.source t.front) i e x
    | _ -> ()
  end;
  t.nevents <- t.nevents + 1

(* A cluster worker's stream, fronted by its router (DESIGN.md §6e).  A
   [View] lands in the imported table and always bumps the thread's
   version — an empty one too: the router's version moved, so the
   same-epoch invalidation must reach the checker.  An [Acc] then ships
   exactly as {!handle} ships one, with that table as the view source. *)
let check t (m : Cmsg.check) =
  if t.stopped then failwith "Sharded.check: detector is stopped";
  let nthreads = Array.length t.imp_ver in
  match m with
  | Cmsg.View (th, idx, vals) ->
    let n = Array.length idx in
    if th >= nthreads || (n > 0 && idx.(n - 1) >= Array.length t.imp_view.(th)) then
      failwith (Printf.sprintf "Sharded.check: view of thread %d out of range" th);
    Array.iteri (fun j x -> t.imp_view.(th).(x) <- vals.(j)) idx;
    t.imp_ver.(th) <- t.imp_ver.(th) + 1
  | Cmsg.Acc (i, e) -> (
    match e.Event.op with
    | (Event.Read x | Event.Write x) when e.Event.thread < nthreads ->
      route_access t t.imported i e x;
      t.nevents <- t.nevents + 1
    | _ -> failwith (Printf.sprintf "Sharded.check: event %d is not a checkable access" i))

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

let result t =
  flush t;
  Front.merge t.front (Array.map (fun sh -> sh.inst.Front.i_result ()) t.shards)

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
    Array.iteri (fun s _ -> reap t s) t.shards;
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
      let snap = sh.inst.Front.i_snapshot () in
      if t.supervise then
        set_restore_point sh ~count:sh.pushed ~off:(Snap.Enc.length sh.backlog) snap;
      snap)
    t.shards

(* Router snapshots open with a format tag below any shard count, so one
   written before the imported view table (−2) or before the front/checker
   split fails to decode — a logged fresh start — instead of misreading. *)
let router_format = -3

let router_snapshot t =
  flush t;
  let enc = Snap.Enc.create () in
  Snap.Enc.int enc router_format;
  Snap.Enc.int enc t.k;
  Snap.Enc.int enc t.nevents;
  Front.save enc t.front;
  Front.ship_save enc t.ship;
  Array.iteri
    (fun th ver ->
      Snap.Enc.int enc ver;
      Snap.Enc.int_array enc t.imp_view.(th))
    t.imp_ver;
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
    "Sharded.restore: router snapshot predates the imported view table";
  let k' = Snap.Dec.int dec in
  Snap.expect (k' = k) "Sharded.restore: router snapshot was taken with a different K";
  let nevents = Snap.Dec.int dec in
  Snap.expect (nevents >= 0) "Sharded.restore: negative event count";
  let front = Front.load dec ~engine config in
  let nthreads = config.Detector.nthreads and vsize = Front.view_size front in
  let ship = Front.ship_load dec ~dests:k ~nthreads ~vsize in
  let imp_ver = Array.make nthreads 0 in
  let imp_view =
    Array.init nthreads (fun th ->
        imp_ver.(th) <- Snap.Dec.int dec;
        Snap.Dec.int_array_n dec vsize)
  in
  Snap.Dec.finish dec;
  build ~engine ~shards:k ?supervise ?max_restarts config
    ~shard_snaps:(Array.map Option.some shard_snaps) ~front ~ship:(Some ship)
    ~imported:(Some (imp_ver, imp_view)) ~nevents
