module Event = Ft_trace.Event
module Detector = Ft_core.Detector
module Engine = Ft_core.Engine
module Sampler = Ft_core.Sampler
module Snap = Ft_core.Snap
module Fault = Ft_fault.Fault

(* Ring messages: the stream a checker applies, and its end. *)
type msg = Check of Cmsg.check | Stop

exception Shard_failed of string

type shard = {
  ring : msg Spsc.t;
  inst : Front.inst;
  domain : unit Domain.t;
  mutable pushed : int;  (* messages ever routed to this shard *)
}

type t = {
  k : int;
  shards : shard array;
  failure : string option Atomic.t;  (* the first worker failure, one line *)
  front : Front.t;  (* the sampler and the one sync engine *)
  ship : Front.ship;  (* per (shard, thread): what each checker last saw *)
  mutable nevents : int;
  mutable stopped : bool;
}

let ring_capacity = 1024

(* Deterministic location → shard map (splitmix-style finalizer): stable
   across runs and platforms, so per-shard checkpoints stay valid. *)
let owner_of ~shards x =
  if shards = 1 then 0
  else begin
    let h = x * 0x9E3779B1 in
    let h = (h lxor (h lsr 16)) * 0x85EBCA6B in
    ((h lxor (h lsr 13)) land max_int) mod shards
  end

(* A worker applies its ring until [Stop].  A handler that raises records
   the failure (the first one wins) and leaves the loop, so the ring is no
   longer drained; an idle worker leaves too once any shard has failed.
   Either way nothing waits on a dead detector: every later operation
   raises {!Shard_failed}. *)
let worker failure s ring (inst : Front.inst) () =
  let rec loop spins =
    match Spsc.peek ring with
    | None ->
      if Atomic.get failure = None then begin
        Domain.cpu_relax ();
        (* an idle shard (e.g. a serve daemon between batches) must not pin a
           core: back off to short sleeps after a burst of empty polls *)
        if spins > 4096 then Unix.sleepf 0.0002;
        loop (if spins > 4096 then spins else spins + 1)
      end
    | Some Stop -> Spsc.advance ring
    | Some (Check c) -> (
      match
        Fault.point ~lane:s "shard.step";
        (match c with
        | Cmsg.Acc (i, e) -> inst.i_handle i e
        | Cmsg.View (th, idx, vals) -> inst.i_import th idx vals)
      with
      | () ->
        Spsc.advance ring;
        loop 0
      | exception exn ->
        let diag = Printf.sprintf "shard %d failed: %s" s (Printexc.to_string exn) in
        ignore (Atomic.compare_and_set failure None (Some diag)))
  in
  loop 0

let check_failure t =
  match Atomic.get t.failure with Some diag -> raise (Shard_failed diag) | None -> ()

(* Put [m] into [sh]'s ring, waiting while it is full; a full ring whose
   worker has failed never drains, so a recorded failure ends the wait. *)
let rec deliver t sh m =
  if not (Spsc.try_push sh.ring m) then begin
    check_failure t;
    Domain.cpu_relax ();
    deliver t sh m
  end

let push_msg t s c =
  let sh = t.shards.(s) in
  sh.pushed <- sh.pushed + 1;
  Fault.point ~lane:s ~supports:[ Fault.Delay ] "spsc.push";
  deliver t sh (Check c)

(* [shard_snaps.(s)] is checker [s]'s starting state (None: fresh); [ship]
   what the checkers last saw (None: fresh views). *)
let build ~engine ~shards:k (config : Detector.config) ~shard_snaps ~front ~ship ~nevents =
  let packed = Engine.detector engine in
  let checker_config = { config with Detector.sampler = Sampler.all } in
  let failure = Atomic.make None in
  {
    k;
    shards =
      Array.mapi
        (fun s snap ->
          let ring = Spsc.create ~capacity:ring_capacity ~dummy:Stop in
          let inst = Front.instance packed ?snap checker_config in
          { ring; inst; domain = Domain.spawn (worker failure s ring inst); pushed = 0 })
        shard_snaps;
    failure;
    front;
    ship =
      (match ship with
      | Some s -> s
      | None -> Front.ship_create front ~dests:k ~nthreads:config.Detector.nthreads);
    nevents;
    stopped = false;
  }

let create ~engine ~shards:k (config : Detector.config) =
  if k < 1 then invalid_arg "Sharded.create: shards must be positive";
  build ~engine ~shards:k config ~shard_snaps:(Array.make k None)
    ~front:(Front.create ~engine config) ~ship:None ~nevents:0

(* The front runs the sampler and the one sync engine; a checker sees only
   the accesses it must check, each behind the view changes it needs.
   Everything an access handler reads — the location's state, C_t[t ↦ e_t]
   and the same-epoch invalidations — is then exactly what the unsharded
   engine reads (DESIGN.md §6a). *)
let handle t i (e : Event.t) =
  if t.stopped then failwith "Sharded.handle: detector is stopped";
  check_failure t;
  if Front.admit t.front i e then begin
    match e.Event.op with
    | Event.Read x | Event.Write x ->
      let s = owner_of ~shards:t.k x in
      (match Front.ship t.ship t.front s e.Event.thread with
      | Some (idx, vals) -> push_msg t s (Cmsg.View (e.Event.thread, idx, vals))
      | None -> ());
      push_msg t s (Cmsg.Acc (i, e))
    | _ -> ()
  end;
  t.nevents <- t.nevents + 1

let events t = t.nevents

let shard_event_counts t = Array.map (fun sh -> sh.pushed) t.shards

let ring_occupancy t = Array.map (fun sh -> Spsc.length sh.ring) t.shards

(* Wait until every shard has fully processed everything routed so far. *)
let flush t =
  Array.iter
    (fun sh ->
      while (not (Spsc.is_empty sh.ring)) && Atomic.get t.failure = None do
        Domain.cpu_relax ()
      done)
    t.shards;
  check_failure t

let result t =
  flush t;
  Front.merge t.front (Array.map (fun sh -> sh.inst.Front.i_result ()) t.shards)

(* Every domain is joined before a failure is raised, so the fail-fast
   path leaks nothing.  Once a shard has failed, a [Stop] that finds a ring
   full is dropped: a failed worker has left its loop, and a healthy one
   leaves once its ring is empty. *)
let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Array.iter (fun sh -> try deliver t sh Stop with Shard_failed _ -> ()) t.shards;
    Array.iter (fun sh -> Domain.join sh.domain) t.shards
  end;
  check_failure t

let shard_snapshots t =
  flush t;
  Array.map (fun sh -> sh.inst.Front.i_snapshot ()) t.shards

(* Router snapshots open with a format tag below any shard count, so one
   with an older layout — with the imported view table of cluster workers
   (−3), before it (−2), or before the front/checker split — fails to
   decode (a logged fresh start) instead of misreading. *)
let router_format = -4

let router_snapshot t =
  flush t;
  let enc = Snap.Enc.create () in
  Snap.Enc.int enc router_format;
  Snap.Enc.int enc t.k;
  Snap.Enc.int enc t.nevents;
  Front.save enc t.front;
  Front.ship_save enc t.ship;
  Snap.Enc.to_snap enc

let restore ~engine ~shards:k (config : Detector.config) ~router shard_snaps =
  if k < 1 then invalid_arg "Sharded.restore: shards must be positive";
  Snap.expect
    (Array.length shard_snaps = k)
    "Sharded.restore: shard snapshot count does not match shard count";
  let dec = Snap.Dec.of_snap router in
  Snap.expect
    (Snap.Dec.int dec = router_format)
    "Sharded.restore: router snapshot has an older layout";
  let k' = Snap.Dec.int dec in
  Snap.expect (k' = k) "Sharded.restore: router snapshot was taken with a different K";
  let nevents = Snap.Dec.int dec in
  Snap.expect (nevents >= 0) "Sharded.restore: negative event count";
  let front = Front.load dec ~engine config in
  let ship = Front.ship_load dec front ~dests:k ~nthreads:config.Detector.nthreads in
  Snap.Dec.finish dec;
  build ~engine ~shards:k config ~shard_snaps:(Array.map Option.some shard_snaps) ~front
    ~ship:(Some ship) ~nevents
