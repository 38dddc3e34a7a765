module E = Ft_trace.Event
module Vc = Vector_clock

type t = {
  csize : int;
  sample : Sampler.instance;
  mutable clocks : Vc.t array;   (* C_t; own component externalized in [own] *)
  own : int array;
  uclocks : Vc.t array;          (* U_t *)
  epochs : int array;            (* e_t *)
  pending : bool array;
  shared : bool array;
  lock_vc : Vc.t option array;   (* shared reference *)
  lock_own : int array;
  lock_lr : int array;
  lock_u : int array;
  history : History.t;
  metrics : Metrics.t;
  mutable races : Race.t list;
}

let name = "sl"

let create (cfg : Detector.config) =
  let n = cfg.Detector.clock_size in
  let nlocks = Stdlib.max 1 cfg.Detector.nlocks in
  {
    csize = n;
    sample = Sampler.fresh cfg.Detector.sampler;
    clocks = Array.init n (fun _ -> Vc.create n);
    own = Array.make n 0;
    uclocks = Array.init n (fun _ -> Vc.create n);
    epochs = Array.make n 1;
    pending = Array.make n false;
    shared = Array.make n false;
    lock_vc = Array.make nlocks None;
    lock_own = Array.make nlocks 0;
    lock_lr = Array.make nlocks (-1);
    lock_u = Array.make nlocks 0;
    history = History.create ~nlocs:cfg.Detector.nlocs ~clock_size:n;
    metrics = Metrics.create ();
    races = [];
  }

let declare d index tid x ~with_write ~with_read ~prior =
  d.metrics.Metrics.races <- d.metrics.Metrics.races + 1;
  let prior = if prior < 0 then None else Some prior in
  d.races <- Race.make ~index ~thread:tid ~loc:x ~with_write ~with_read ?prior () :: d.races

let touch_clock d t =
  if d.shared.(t) then begin
    d.clocks.(t) <- Vc.copy d.clocks.(t);
    d.shared.(t) <- false;
    d.metrics.Metrics.deep_copies <- d.metrics.Metrics.deep_copies + 1;
    d.metrics.Metrics.vc_full_ops <- d.metrics.Metrics.vc_full_ops + 1
  end

let flush_pending d t =
  if d.pending.(t) then begin
    d.own.(t) <- d.epochs.(t);
    Vc.inc d.uclocks.(t) t;
    d.epochs.(t) <- d.epochs.(t) + 1;
    d.pending.(t) <- false
  end

let absorb_entry d t t' v =
  if v > Vc.get d.clocks.(t) t' then begin
    touch_clock d t;
    Vc.set d.clocks.(t) t' v;
    Vc.inc d.uclocks.(t) t
  end

let handle d index (e : E.t) =
  let m = d.metrics in
  m.Metrics.events <- m.Metrics.events + 1;
  let t = e.E.thread in
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
        let pw = History.stale_write d.history x d.clocks.(t) ~tid:t ~epoch in
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
        let ct = d.clocks.(t) in
        let pr, pw = History.stale_both d.history x ct ~tid:t ~epoch in
        if pr >= 0 || pw >= 0 then
          declare d index t x ~with_write:(pw >= 0) ~with_read:(pr >= 0)
            ~prior:(if pw >= 0 then pw else pr);
        (* the externalized own component is authoritative, not the array *)
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
      let ut = d.uclocks.(t) in
      if d.lock_u.(l) <= Vc.get ut lr then
        m.Metrics.acquires_skipped <- m.Metrics.acquires_skipped + 1
      else begin
        History.bump d.history t;
        Vc.set ut lr d.lock_u.(l);
        if lr <> t then absorb_entry d t lr d.lock_own.(l);
        (* no recency structure: traverse the whole vector *)
        let lvc = Option.get d.lock_vc.(l) in
        m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
        m.Metrics.entries_traversed <- m.Metrics.entries_traversed + d.csize;
        for t' = 0 to d.csize - 1 do
          if t' <> t && t' <> lr then absorb_entry d t t' (Vc.get lvc t')
        done
      end)
  | E.Release l | E.Release_store l ->
    m.Metrics.releases <- m.Metrics.releases + 1;
    flush_pending d t;
    d.lock_vc.(l) <- Some d.clocks.(t);
    d.lock_own.(l) <- d.own.(t);
    d.lock_lr.(l) <- t;
    d.lock_u.(l) <- Vc.get d.uclocks.(t) t;
    d.shared.(t) <- true;
    m.Metrics.shallow_copies <- m.Metrics.shallow_copies + 1
  | E.Fork u ->
    m.Metrics.releases <- m.Metrics.releases + 1;
    flush_pending d t;
    m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 2;
    History.bump d.history u;
    let changed = ref 0 in
    let ct = d.clocks.(t) in
    for t' = 0 to d.csize - 1 do
      if t' <> t && t' <> u && Vc.get ct t' > Vc.get d.clocks.(u) t' then begin
        Vc.set d.clocks.(u) t' (Vc.get ct t');
        incr changed
      end
    done;
    if d.own.(t) > Vc.get d.clocks.(u) t then begin
      Vc.set d.clocks.(u) t d.own.(t);
      incr changed
    end;
    Vc.join ~into:d.uclocks.(u) d.uclocks.(t);
    Vc.set d.uclocks.(u) u (Vc.get d.uclocks.(u) u + !changed)
  | E.Join u ->
    m.Metrics.acquires <- m.Metrics.acquires + 1;
    flush_pending d u;
    m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 2;
    History.bump d.history t;
    Vc.join ~into:d.uclocks.(t) d.uclocks.(u);
    let cu = d.clocks.(u) in
    for t' = 0 to d.csize - 1 do
      if t' <> t && t' <> u then absorb_entry d t t' (Vc.get cu t')
    done;
    if u <> t then absorb_entry d t u d.own.(u)

let result d =
  { Detector.engine = name; races = List.rev d.races; metrics = d.metrics }

let races_rev d = d.races

(* Sharding hook: the thread-local half of a sampled access.  Idempotent
   until the next flush, exactly like the bit it sets. *)
let note_sampled d t = d.pending.(t) <- true

(* The view is C_t[t ↦ e_t]; see {!Sampling_naive}. *)
let view_size (cfg : Detector.config) = cfg.Detector.clock_size
let view_version d t = History.version d.history t + d.epochs.(t)

let export_view d t buf =
  Vc.blit_into d.clocks.(t) buf;
  buf.(t) <- d.epochs.(t)

let import_view d t idx vals =
  Array.iteri
    (fun j i ->
      if i = t then d.epochs.(t) <- vals.(j)
      else begin
        touch_clock d t;
        Vc.set d.clocks.(t) i vals.(j)
      end)
    idx;
  History.bump d.history t

(* Like the ordered-list engine, releases publish a *reference* to the
   releasing thread's clock, and the [shared] flags only make sense if the
   restored detector reproduces that physical sharing.  Lock entries are
   encoded as references to a thread clock or an earlier lock's entry and
   inlined only when they alias neither ({!Snap.Enc.shared}). *)
let encode_lock_vcs enc d =
  Snap.Enc.shared enc ~roots:d.clocks ~hash:Vc.hash d.lock_vc (Vc.encode enc)

let decode_lock_vcs dec d ~size =
  Snap.Dec.shared dec ~what:"lock clock" ~roots:d.clocks d.lock_vc (fun () ->
      Vc.decode dec ~size)

let snapshot d =
  let enc = Snap.Enc.create () in
  d.sample.Sampler.save enc;
  Array.iter (Vc.encode enc) d.clocks;
  Snap.Enc.int_array enc d.own;
  Array.iter (Vc.encode enc) d.uclocks;
  Snap.Enc.int_array enc d.epochs;
  Snap.Enc.bool_array enc d.pending;
  Snap.Enc.bool_array enc d.shared;
  encode_lock_vcs enc d;
  Snap.Enc.int_array enc d.lock_own;
  Snap.Enc.int_array enc d.lock_lr;
  Snap.Enc.int_array enc d.lock_u;
  History.encode enc d.history;
  Metrics.encode enc d.metrics;
  Race.encode_list enc d.races;
  Snap.Enc.to_snap enc

let restore (cfg : Detector.config) s =
  let d = create cfg in
  let dec = Snap.Dec.of_snap s in
  let n = d.csize in
  d.sample.Sampler.load dec;
  for t = 0 to n - 1 do
    d.clocks.(t) <- Vc.decode dec ~size:n
  done;
  let own = Snap.Dec.int_array_n dec n in
  Array.blit own 0 d.own 0 n;
  for t = 0 to n - 1 do
    d.uclocks.(t) <- Vc.decode dec ~size:n
  done;
  let epochs = Snap.Dec.int_array_n dec n in
  Array.blit epochs 0 d.epochs 0 n;
  let pending = Snap.Dec.bool_array_n dec n in
  Array.blit pending 0 d.pending 0 n;
  let shared = Snap.Dec.bool_array_n dec n in
  Array.blit shared 0 d.shared 0 n;
  decode_lock_vcs dec d ~size:n;
  let nlocks = Array.length d.lock_own in
  let lock_own = Snap.Dec.int_array_n dec nlocks in
  Array.blit lock_own 0 d.lock_own 0 nlocks;
  let lock_lr = Snap.Dec.int_array_n dec nlocks in
  Array.iteri
    (fun l lr ->
      Snap.expect (lr >= -1 && lr < n) "lock releaser out of range";
      d.lock_lr.(l) <- lr)
    lock_lr;
  let lock_u = Snap.Dec.int_array_n dec nlocks in
  Array.blit lock_u 0 d.lock_u 0 nlocks;
  let history = History.decode dec ~nlocs:cfg.Detector.nlocs ~clock_size:n in
  let metrics = Metrics.decode dec in
  d.races <- Race.decode_list dec;
  Snap.Dec.finish dec;
  { d with history; metrics }
