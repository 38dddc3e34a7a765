module E = Ft_trace.Event
module Vc = Vector_clock

(* The implementation is a functor over the release-side-skip policy so that
   the ablation engine ("su-noskip") shares every line except the one
   decision Lemma 7 attributes to the freshness timestamp at releases. *)
module Make (Policy : sig
  val name : string
  val release_skip : bool
end) =
struct
type t = {
  nthreads : int;
  sample : Sampler.instance;
  clocks : Vc.t array;           (* C_t *)
  uclocks : Vc.t array;          (* U_t *)
  epochs : int array;            (* e_t *)
  pending : bool array;
  lock_clocks : Vc.t option array;   (* C_ℓ *)
  lock_uclocks : Vc.t option array;  (* U_ℓ *)
  lock_lr : int array;               (* LR_ℓ, -1 = NIL *)
  history : History.t;
  metrics : Metrics.t;
  mutable races : Race.t list;
}

let name = Policy.name

let create (cfg : Detector.config) =
  let n = cfg.Detector.clock_size in
  let nlocks = Stdlib.max 1 cfg.Detector.nlocks in
  {
    nthreads = n;
    sample = Sampler.fresh cfg.Detector.sampler;
    clocks = Array.init n (fun _ -> Vc.create n);
    uclocks = Array.init n (fun _ -> Vc.create n);
    epochs = Array.make n 1;
    pending = Array.make n false;
    lock_clocks = Array.make nlocks None;
    lock_uclocks = Array.make nlocks None;
    lock_lr = Array.make nlocks (-1);
    history = History.create ~nlocs:cfg.Detector.nlocs ~clock_size:n;
    metrics = Metrics.create ();
    races = [];
  }

let declare d index tid x ~with_write ~with_read ~prior =
  d.metrics.Metrics.races <- d.metrics.Metrics.races + 1;
  let prior = if prior < 0 then None else Some prior in
  d.races <- Race.make ~index ~thread:tid ~loc:x ~with_write ~with_read ?prior () :: d.races

let flush_pending d t =
  if d.pending.(t) then begin
    Vc.set d.clocks.(t) t d.epochs.(t);
    Vc.inc d.uclocks.(t) t;
    d.epochs.(t) <- d.epochs.(t) + 1;
    d.pending.(t) <- false
  end

(* Copy the releasing thread's C and U clocks into the lock. *)
let publish d t l =
  let m = d.metrics in
  m.Metrics.releases_processed <- m.Metrics.releases_processed + 1;
  m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 2;
  (match d.lock_clocks.(l) with
  | Some cl -> Vc.copy_into ~into:cl d.clocks.(t)
  | None -> d.lock_clocks.(l) <- Some (Vc.copy d.clocks.(t)));
  match d.lock_uclocks.(l) with
  | Some ul -> Vc.copy_into ~into:ul d.uclocks.(t)
  | None -> d.lock_uclocks.(l) <- Some (Vc.copy d.uclocks.(t))

(* Join a source (C, U) pair into thread [t], counting C-entry changes into
   U_t(t) (Alg 3, lines 8–12).  The two joins are fused into one traversal:
   they range over the same indices and fusing halves the loop overhead of
   the handler's hot path. *)
let absorb d t ~src_c ~src_u =
  let m = d.metrics in
  m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 2;
  let ut = d.uclocks.(t) and ct = d.clocks.(t) in
  let changed = ref 0 in
  for i = 0 to Vc.size ct - 1 do
    let u = Vc.get src_u i in
    if u > Vc.get ut i then Vc.set ut i u;
    let c = Vc.get src_c i in
    if c > Vc.get ct i then begin
      Vc.set ct i c;
      incr changed
    end
  done;
  if !changed > 0 then Vc.set ut t (Vc.get ut t + !changed)

let handle d index (e : E.t) =
  let m = d.metrics in
  m.Metrics.events <- m.Metrics.events + 1;
  let t = e.E.thread in
  let ct = d.clocks.(t) in
  match e.E.op with
  | E.Read x ->
    m.Metrics.reads <- m.Metrics.reads + 1;
    if d.sample.Sampler.decide index e then begin
      m.Metrics.sampled_accesses <- m.Metrics.sampled_accesses + 1;
      m.Metrics.race_checks <- m.Metrics.race_checks + 1;
      let epoch = d.epochs.(t) in
      if History.read_hit d.history x ~tid:t ~epoch ~index then
        m.Metrics.same_epoch_hits <- m.Metrics.same_epoch_hits + 1
      else begin
        let pw = History.stale_write d.history x ct ~tid:t ~epoch in
        if pw >= 0 then declare d index t x ~with_write:true ~with_read:false ~prior:pw;
        History.record_read d.history x ~tid:t ~epoch ~index ~clean:(pw < 0)
      end;
      d.pending.(t) <- true
    end
  | E.Write x ->
    m.Metrics.writes <- m.Metrics.writes + 1;
    if d.sample.Sampler.decide index e then begin
      m.Metrics.sampled_accesses <- m.Metrics.sampled_accesses + 1;
      m.Metrics.race_checks <- m.Metrics.race_checks + 2;
      let epoch = d.epochs.(t) in
      if History.write_hit d.history x ~tid:t ~epoch ~index then
        m.Metrics.same_epoch_hits <- m.Metrics.same_epoch_hits + 1
      else begin
        let pr, pw = History.stale_both d.history x ct ~tid:t ~epoch in
        if pr >= 0 || pw >= 0 then
          declare d index t x ~with_write:(pw >= 0) ~with_read:(pr >= 0)
            ~prior:(if pw >= 0 then pw else pr);
        History.record_write_vc d.history x ct ~tid:t ~epoch ~index
          ~clean:(pr < 0 && pw < 0)
      end;
      d.pending.(t) <- true
    end
  | E.Acquire l | E.Acquire_load l -> (
    m.Metrics.acquires <- m.Metrics.acquires + 1;
    match d.lock_lr.(l) with
    | -1 -> m.Metrics.acquires_skipped <- m.Metrics.acquires_skipped + 1
    | lr ->
      let ul = Option.get d.lock_uclocks.(l) in
      if Vc.get ul lr <= Vc.get d.uclocks.(t) lr then
        m.Metrics.acquires_skipped <- m.Metrics.acquires_skipped + 1
      else begin
        History.bump d.history t;
        absorb d t ~src_c:(Option.get d.lock_clocks.(l)) ~src_u:ul
      end)
  | E.Release l ->
    m.Metrics.releases <- m.Metrics.releases + 1;
    d.lock_lr.(l) <- t;
    flush_pending d t;
    (match d.lock_uclocks.(l) with
    | Some ul when Policy.release_skip && Vc.get ul t = Vc.get d.uclocks.(t) t ->
      (* the lock already carries this thread's latest information *)
      ()
    | Some _ | None -> publish d t l)
  | E.Release_store l ->
    (* non-monotonic lock clock: the release-side skip is unsound here *)
    m.Metrics.releases <- m.Metrics.releases + 1;
    d.lock_lr.(l) <- t;
    flush_pending d t;
    publish d t l
  | E.Fork u ->
    m.Metrics.releases <- m.Metrics.releases + 1;
    m.Metrics.releases_processed <- m.Metrics.releases_processed + 1;
    flush_pending d t;
    m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 2;
    History.bump d.history u;
    Vc.join ~into:d.uclocks.(u) d.uclocks.(t);
    let changed = Vc.join_count ~into:d.clocks.(u) ct in
    if changed > 0 then Vc.set d.uclocks.(u) u (Vc.get d.uclocks.(u) u + changed)
  | E.Join u ->
    m.Metrics.acquires <- m.Metrics.acquires + 1;
    (* the child's end-of-thread acts as its final release: flush its pending
       sampled epoch so the parent inherits the child's latest accesses *)
    flush_pending d u;
    History.bump d.history t;
    absorb d t ~src_c:d.clocks.(u) ~src_u:d.uclocks.(u)

let result d =
  { Detector.engine = name; races = List.rev d.races; metrics = d.metrics }

let races_rev d = d.races

(* Sharding hook: the thread-local half of a sampled access.  Idempotent
   until the next flush, exactly like the bit it sets. *)
let note_sampled d t = d.pending.(t) <- true

(* The view is C_t[t ↦ e_t]; see {!Sampling_naive}.  U_t is sync-side
   state only: no access handler reads it. *)
let view_size (cfg : Detector.config) = cfg.Detector.clock_size
let view_version d t = History.version d.history t + d.epochs.(t)

let export_view d t buf =
  Vc.blit_into d.clocks.(t) buf;
  buf.(t) <- d.epochs.(t)

let import_view d t idx vals =
  Array.iteri
    (fun j i -> if i = t then d.epochs.(t) <- vals.(j) else Vc.set d.clocks.(t) i vals.(j))
    idx;
  History.bump d.history t

let snapshot d =
  let enc = Snap.Enc.create () in
  d.sample.Sampler.save enc;
  Array.iter (Vc.encode enc) d.clocks;
  Array.iter (Vc.encode enc) d.uclocks;
  Snap.Enc.int_array enc d.epochs;
  Snap.Enc.bool_array enc d.pending;
  Array.iter (fun c -> Snap.Enc.option enc (Vc.encode enc) c) d.lock_clocks;
  Array.iter (fun c -> Snap.Enc.option enc (Vc.encode enc) c) d.lock_uclocks;
  Snap.Enc.int_array enc d.lock_lr;
  History.encode enc d.history;
  Metrics.encode enc d.metrics;
  Race.encode_list enc d.races;
  Snap.Enc.to_snap enc

let restore (cfg : Detector.config) s =
  let d = create cfg in
  let dec = Snap.Dec.of_snap s in
  let n = d.nthreads in
  d.sample.Sampler.load dec;
  for t = 0 to Array.length d.clocks - 1 do
    d.clocks.(t) <- Vc.decode dec ~size:n
  done;
  for t = 0 to Array.length d.uclocks - 1 do
    d.uclocks.(t) <- Vc.decode dec ~size:n
  done;
  let epochs = Snap.Dec.int_array_n dec n in
  Array.blit epochs 0 d.epochs 0 n;
  let pending = Snap.Dec.bool_array_n dec n in
  Array.blit pending 0 d.pending 0 n;
  for l = 0 to Array.length d.lock_clocks - 1 do
    d.lock_clocks.(l) <- Snap.Dec.option dec (fun () -> Vc.decode dec ~size:n)
  done;
  for l = 0 to Array.length d.lock_uclocks - 1 do
    d.lock_uclocks.(l) <- Snap.Dec.option dec (fun () -> Vc.decode dec ~size:n)
  done;
  let lock_lr = Snap.Dec.int_array_n dec (Array.length d.lock_lr) in
  Array.iteri
    (fun l lr ->
      Snap.expect (lr >= -1 && lr < n) "lock releaser out of range";
      d.lock_lr.(l) <- lr)
    lock_lr;
  let history = History.decode dec ~nlocs:cfg.Detector.nlocs ~clock_size:n in
  let metrics = Metrics.decode dec in
  d.races <- Race.decode_list dec;
  Snap.Dec.finish dec;
  { d with history; metrics }

end

include Make (struct
  let name = "su"
  let release_skip = true
end)
