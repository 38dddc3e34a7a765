module Event = Ft_trace.Event
module Detector = Ft_core.Detector
module Engine = Ft_core.Engine
module Sampler = Ft_core.Sampler
module Snap = Ft_core.Snap
module Fault = Ft_fault.Fault

(* Ring messages: the stream the checker applies, and its end. *)
type msg = Check of Cmsg.check | Stop

exception Shard_failed of string

type t = {
  ring : msg Spsc.t;
  inst : Front.inst;  (* the checker *)
  domain : unit Domain.t;
  failure : string option Atomic.t;  (* the checker's failure, one line *)
  front : Front.t;  (* the sampler and the one sync engine *)
  ship : Front.ship;  (* per thread: what the checker last saw *)
  mutable pushed : int;  (* messages ever pushed to the ring *)
  mutable nevents : int;
  mutable stopped : bool;
}

let ring_capacity = 1024

(* The checker applies its ring until [Stop].  A handler that raises
   records the failure and leaves the loop, so the ring is no longer
   drained: every later operation raises {!Shard_failed}, and nothing
   waits on a dead checker.  Diagnostics and fault points keep the lane
   and the wording of the K-checker detector this replaced, so [--chaos]
   specs and log greps stay valid. *)
let worker failure ring (inst : Front.inst) () =
  let rec loop spins =
    match Spsc.peek ring with
    | None ->
      if Atomic.get failure = None then begin
        Domain.cpu_relax ();
        (* an idle checker (e.g. a serve daemon between batches) must not
           pin a core: back off to short sleeps after a burst of empty polls *)
        if spins > 4096 then Unix.sleepf 0.0002;
        loop (if spins > 4096 then spins else spins + 1)
      end
    | Some Stop -> Spsc.advance ring
    | Some (Check c) -> (
      match
        Fault.point ~lane:0 "shard.step";
        (match c with
        | Cmsg.Acc (i, e) -> inst.i_handle i e
        | Cmsg.View (th, idx, vals) -> inst.i_import th idx vals)
      with
      | () ->
        Spsc.advance ring;
        loop 0
      | exception exn ->
        let diag = Printf.sprintf "shard 0 failed: %s" (Printexc.to_string exn) in
        ignore (Atomic.compare_and_set failure None (Some diag)))
  in
  loop 0

let check_failure t =
  match Atomic.get t.failure with Some diag -> raise (Shard_failed diag) | None -> ()

(* Put [m] into the ring, waiting while it is full; a full ring whose
   checker has failed never drains, so a recorded failure ends the wait. *)
let rec deliver t m =
  if not (Spsc.try_push t.ring m) then begin
    check_failure t;
    Domain.cpu_relax ();
    deliver t m
  end

let push_msg t c =
  t.pushed <- t.pushed + 1;
  Fault.point ~lane:0 ~supports:[ Fault.Delay ] "spsc.push";
  deliver t (Check c)

(* [snap] is the checker's starting state (None: fresh); [ship] what it
   last saw (None: fresh views). *)
let build ~engine (config : Detector.config) ~snap ~front ~ship ~nevents =
  let failure = Atomic.make None in
  let ring = Spsc.create ~capacity:ring_capacity ~dummy:Stop in
  let inst =
    Front.instance (Engine.detector engine) ?snap { config with Detector.sampler = Sampler.all }
  in
  {
    ring;
    inst;
    domain = Domain.spawn (worker failure ring inst);
    failure;
    front;
    ship =
      (match ship with
      | Some s -> s
      | None -> Front.ship_create front ~dests:1 ~nthreads:config.Detector.nthreads);
    pushed = 0;
    nevents;
    stopped = false;
  }

let create ~engine (config : Detector.config) =
  build ~engine config ~snap:None ~front:(Front.create ~engine config) ~ship:None ~nevents:0

(* The front runs the sampler and the one sync engine; the checker sees
   only the accesses it must check, each behind the view changes it needs.
   Everything an access handler reads — the location's state, C_t[t ↦ e_t]
   and the same-epoch invalidations — is then exactly what the plain
   engine reads (DESIGN.md §6a). *)
let handle t i (e : Event.t) =
  if t.stopped then failwith "Sharded.handle: detector is stopped";
  check_failure t;
  if Front.admit t.front i e then begin
    (match Front.ship t.ship t.front 0 e.Event.thread with
    | Some (idx, vals) -> push_msg t (Cmsg.View (e.Event.thread, idx, vals))
    | None -> ());
    push_msg t (Cmsg.Acc (i, e))
  end;
  t.nevents <- t.nevents + 1

let events t = t.nevents

let shard_events t = t.pushed

let ring_occupancy t = Spsc.length t.ring

let flush t =
  while (not (Spsc.is_empty t.ring)) && Atomic.get t.failure = None do
    Domain.cpu_relax ()
  done;
  check_failure t

let result t =
  flush t;
  Front.merge t.front [| t.inst.Front.i_result () |]

(* The domain is joined before a failure is raised, so the fail-fast path
   leaks nothing.  Once the checker has failed, a [Stop] that finds the
   ring full is dropped: a failed checker has left its loop. *)
let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    (try deliver t Stop with Shard_failed _ -> ());
    Domain.join t.domain
  end;
  check_failure t

let shard_snapshot t =
  flush t;
  t.inst.Front.i_snapshot ()

(* Router snapshots open with a format tag below any checker count, so one
   with an older layout — with the imported view table of cluster workers
   (−3), before it (−2), or before the front/checker split — fails to
   decode (a logged fresh start) instead of misreading.  The checker count
   that follows is always 1. *)
let router_format = -4

let router_snapshot t =
  flush t;
  let enc = Snap.Enc.create () in
  Snap.Enc.int enc router_format;
  Snap.Enc.int enc 1;
  Snap.Enc.int enc t.nevents;
  Front.save enc t.front;
  Front.ship_save enc t.ship;
  Snap.Enc.to_snap enc

let restore ~engine (config : Detector.config) ~router snap =
  let dec = Snap.Dec.of_snap router in
  Snap.expect
    (Snap.Dec.int dec = router_format)
    "Sharded.restore: router snapshot has an older layout";
  Snap.expect (Snap.Dec.int dec = 1)
    "Sharded.restore: router snapshot was taken with more than one checker";
  let nevents = Snap.Dec.int dec in
  Snap.expect (nevents >= 0) "Sharded.restore: negative event count";
  let front = Front.load dec ~engine config in
  let ship = Front.ship_load dec front ~dests:1 ~nthreads:config.Detector.nthreads in
  Snap.Dec.finish dec;
  build ~engine config ~snap:(Some snap) ~front ~ship:(Some ship) ~nevents
