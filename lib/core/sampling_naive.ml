module E = Ft_trace.Event
module Vc = Vector_clock

type t = {
  nthreads : int;
  sample : Sampler.instance;
  clocks : Vc.t array;           (* C_t, initialized to ⊥ *)
  epochs : int array;            (* e_t, initialized to 1 *)
  pending : bool array;          (* sampled event since the last release? *)
  lock_clocks : Vc.t option array;
  history : History.t;
  metrics : Metrics.t;
  mutable races : Race.t list;
}

let name = "st"

let create (cfg : Detector.config) =
  {
    nthreads = cfg.Detector.clock_size;
    sample = Sampler.fresh cfg.Detector.sampler;
    clocks = Array.init cfg.Detector.clock_size (fun _ -> Vc.create cfg.Detector.clock_size);
    epochs = Array.make cfg.Detector.clock_size 1;
    pending = Array.make cfg.Detector.clock_size false;
    lock_clocks = Array.make (Stdlib.max 1 cfg.Detector.nlocks) None;
    history = History.create ~nlocs:cfg.Detector.nlocs ~clock_size:cfg.Detector.clock_size;
    metrics = Metrics.create ();
    races = [];
  }

let declare d index tid x ~with_write ~with_read ~prior =
  d.metrics.Metrics.races <- d.metrics.Metrics.races + 1;
  let prior = if prior < 0 then None else Some prior in
  d.races <- Race.make ~index ~thread:tid ~loc:x ~with_write ~with_read ?prior () :: d.races

let lock_clock d l =
  match d.lock_clocks.(l) with
  | Some c -> c
  | None ->
    let c = Vc.create d.nthreads in
    d.lock_clocks.(l) <- Some c;
    c

(* First release after a sampled event: flush the local epoch into the
   thread clock and advance it (Alg 2, release handler). *)
let flush_pending d t =
  if d.pending.(t) then begin
    Vc.set d.clocks.(t) t d.epochs.(t);
    d.epochs.(t) <- d.epochs.(t) + 1;
    d.pending.(t) <- false
  end

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
  | E.Acquire l | E.Acquire_load l ->
    m.Metrics.acquires <- m.Metrics.acquires + 1;
    (match d.lock_clocks.(l) with
    | None -> ()
    | Some cl ->
      m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
      History.bump d.history t;
      Vc.join ~into:ct cl)
  | E.Release l | E.Release_store l ->
    m.Metrics.releases <- m.Metrics.releases + 1;
    flush_pending d t;
    m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
    m.Metrics.releases_processed <- m.Metrics.releases_processed + 1;
    Vc.copy_into ~into:(lock_clock d l) ct
  | E.Fork u ->
    m.Metrics.releases <- m.Metrics.releases + 1;
    flush_pending d t;
    m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
    History.bump d.history u;
    Vc.join ~into:d.clocks.(u) ct
  | E.Join u ->
    m.Metrics.acquires <- m.Metrics.acquires + 1;
    m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
    (* the child's end-of-thread acts as its final release: flush its pending
       sampled epoch so the parent inherits the child's latest accesses *)
    flush_pending d u;
    History.bump d.history t;
    Vc.join ~into:ct d.clocks.(u)

let result d =
  { Detector.engine = name; races = List.rev d.races; metrics = d.metrics }

let races_rev d = d.races

(* Sharding hook: the thread-local half of a sampled access.  Idempotent
   until the next flush, exactly like the bit it sets. *)
let note_sampled d t = d.pending.(t) <- true

(* The view is C_t[t ↦ e_t].  Sync handlers bump the history version
   whenever they move C_t; the epoch moves on its own at a flush, so the
   version adds it (both only grow, so the sum changes iff either does). *)
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
  Snap.Enc.int_array enc d.epochs;
  Snap.Enc.bool_array enc d.pending;
  Array.iter (fun c -> Snap.Enc.option enc (Vc.encode enc) c) d.lock_clocks;
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
  let epochs = Snap.Dec.int_array_n dec n in
  Array.blit epochs 0 d.epochs 0 n;
  let pending = Snap.Dec.bool_array_n dec n in
  Array.blit pending 0 d.pending 0 n;
  for l = 0 to Array.length d.lock_clocks - 1 do
    d.lock_clocks.(l) <- Snap.Dec.option dec (fun () -> Vc.decode dec ~size:n)
  done;
  let history = History.decode dec ~nlocs:cfg.Detector.nlocs ~clock_size:n in
  let metrics = Metrics.decode dec in
  d.races <- Race.decode_list dec;
  Snap.Dec.finish dec;
  { d with history; metrics }
