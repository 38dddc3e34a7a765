module E = Ft_trace.Event
module Vc = Vector_clock
module Ol = Ordered_list

type t = {
  nthreads : int;
  sample : Sampler.instance;
  mutable olists : Ol.t array;
      (* O_t; the thread's *own* component is externalized into [own] (the
         local-epoch optimization) and the own node's value is stale *)
  own : int array;               (* flushed own component, C_t(t) *)
  uclocks : Vc.t array;          (* U_t *)
  epochs : int array;            (* e_t *)
  pending : bool array;
  shared : bool array;           (* shared_t: some lock references O_t *)
  lock_ol : Ol.t option array;   (* O_ℓ: shared reference *)
  pool : Ol.t array;             (* free stack of unreferenced lists *)
  mutable pooled : int;
  mutable allocated : int;       (* lists ever created, pooled or alive *)
  lock_own : int array;          (* releaser's own component at release time *)
  lock_lr : int array;           (* LR_ℓ, -1 = NIL *)
  lock_u : int array;            (* U_ℓ scalar *)
  history : History.t;
  metrics : Metrics.t;
  mutable races : Race.t list;
}

let name = "so"

(* List recycling.  Every list counts its references ({!Ol.refs}): the
   thread that owns it, plus every lock whose [lock_ol] points at it.  A
   list whose count drops to 0 is unreachable from the detector state, so
   it goes onto the free stack and the next lazy copy overwrites it in
   place ({!Ol.copy_into}) instead of allocating.  A lazy copy allocates
   only when the stack is empty and a lock still holds the list it copies
   from, so at most [clock_size + nlocks] lists are ever created
   ({!check_pool}). *)

let create (cfg : Detector.config) =
  let n = cfg.Detector.clock_size in
  let nlocks = Stdlib.max 1 cfg.Detector.nlocks in
  let olists =
    Array.init n (fun _ ->
        let o = Ol.create n in
        Ol.set_refs o 1;
        o)
  in
  {
    nthreads = n;
    sample = Sampler.fresh cfg.Detector.sampler;
    olists;
    own = Array.make n 0;
    uclocks = Array.init n (fun _ -> Vc.create n);
    epochs = Array.make n 1;
    pending = Array.make n false;
    shared = Array.make n false;
    lock_ol = Array.make nlocks None;
    pool = Array.make (n + nlocks) olists.(0);
    pooled = 0;
    allocated = n;
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

let retain o = Ol.set_refs o (Ol.refs o + 1)

let drop d o =
  let r = Ol.refs o - 1 in
  Ol.set_refs o r;
  if r = 0 then begin
    d.pool.(d.pooled) <- o;
    d.pooled <- d.pooled + 1
  end

(* Ensure thread [t] owns its list before mutating it (lazy copy).  When no
   lock refers to the list any more (every lock it was released to has
   been released again since), the thread is its only holder and keeping
   it is already a private copy with the same values and order. *)
let touch_olist d t =
  if d.shared.(t) then begin
    let src = d.olists.(t) in
    if Ol.refs src > 1 then begin
      let dst =
        if d.pooled > 0 then begin
          d.pooled <- d.pooled - 1;
          d.pool.(d.pooled)
        end
        else begin
          d.allocated <- d.allocated + 1;
          Ol.create d.nthreads
        end
      in
      Ol.copy_into ~into:dst src;
      Ol.set_refs dst 1;
      drop d src;
      d.olists.(t) <- dst
    end;
    d.shared.(t) <- false;
    d.metrics.Metrics.deep_copies <- d.metrics.Metrics.deep_copies + 1;
    d.metrics.Metrics.vc_full_ops <- d.metrics.Metrics.vc_full_ops + 1
  end

(* Thanks to the local-epoch optimization, flushing the pending sampled
   epoch touches only scalars — never the (possibly shared) list. *)
let flush_pending d t =
  if d.pending.(t) then begin
    d.own.(t) <- d.epochs.(t);
    Vc.inc d.uclocks.(t) t;
    d.epochs.(t) <- d.epochs.(t) + 1;
    d.pending.(t) <- false
  end

(* Raise thread [t]'s entry for [t'] to [v] if it is news, counting the
   change into the freshness clock. *)
let absorb_entry d t t' v =
  if v > Ol.get d.olists.(t) t' then begin
    touch_olist d t;
    Ol.set d.olists.(t) t' v;
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
        let pw = History.ol_stale_write d.history x d.olists.(t) ~tid:t ~epoch in
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
        let ol = d.olists.(t) in
        let pr, pw = History.ol_stale_both d.history x ol ~tid:t ~epoch in
        if pr >= 0 || pw >= 0 then
          declare d index t x ~with_write:(pw >= 0) ~with_read:(pr >= 0)
            ~prior:(if pw >= 0 then pw else pr);
        History.record_write_ol d.history x ol ~tid:t ~epoch ~index
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
        let delta = d.lock_u.(l) - Vc.get ut lr in
        Vc.set ut lr d.lock_u.(l);
        (* the releaser's own component travels as a scalar *)
        if lr <> t then absorb_entry d t lr d.lock_own.(l);
        let ol = Option.get d.lock_ol.(l) in
        let traversed = ref 0 in
        Ol.iter_prefix ol delta (fun t' v ->
            incr traversed;
            (* skip our own entry (we know it best) and the releaser's node,
               whose authoritative value is the scalar absorbed above *)
            if t' <> t && t' <> lr then absorb_entry d t t' v);
        m.Metrics.entries_traversed <- m.Metrics.entries_traversed + !traversed;
        m.Metrics.entries_saved <- m.Metrics.entries_saved + (d.nthreads - !traversed)
      end)
  | E.Release l | E.Release_store l ->
    m.Metrics.releases <- m.Metrics.releases + 1;
    flush_pending d t;
    let o = d.olists.(t) in
    retain o;
    (match d.lock_ol.(l) with Some old -> drop d old | None -> ());
    d.lock_ol.(l) <- Some o;
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
    (* the child inherits the parent's full state; count every inherited
       entry into the child's own freshness counter *)
    let changed = ref 0 in
    Ol.iter d.olists.(t) (fun t' v ->
        if t' <> t && t' <> u && v > Ol.get d.olists.(u) t' then begin
          Ol.set d.olists.(u) t' v;
          incr changed
        end);
    if d.own.(t) > Ol.get d.olists.(u) t then begin
      Ol.set d.olists.(u) t d.own.(t);
      incr changed
    end;
    Vc.join ~into:d.uclocks.(u) d.uclocks.(t);
    Vc.set d.uclocks.(u) u (Vc.get d.uclocks.(u) u + !changed)
  | E.Join u ->
    m.Metrics.acquires <- m.Metrics.acquires + 1;
    (* the child's end-of-thread acts as its final release *)
    flush_pending d u;
    m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 2;
    History.bump d.history t;
    Vc.join ~into:d.uclocks.(t) d.uclocks.(u);
    Ol.iter d.olists.(u) (fun t' v -> if t' <> t && t' <> u then absorb_entry d t t' v);
    if u <> t then absorb_entry d t u d.own.(u)

let result d =
  { Detector.engine = name; races = List.rev d.races; metrics = d.metrics }

let races_rev d = d.races

let check_pool d =
  let held = Array.to_list d.olists @ List.filter_map Fun.id (Array.to_list d.lock_ol) in
  let pooled = Array.sub d.pool 0 d.pooled in
  let pooled_free = Array.for_all (fun o -> Ol.refs o = 0) pooled in
  (* count the references down to 0 and back: a list pooled while held, or
     miscounted, ends below or above 0 *)
  List.iter (fun o -> Ol.set_refs o (Ol.refs o - 1)) held;
  let exact = List.for_all (fun o -> Ol.refs o = 0) held in
  List.iter retain held;
  pooled_free && exact && d.allocated <= d.nthreads + Array.length d.lock_ol

(* Sharding hook: the thread-local half of a sampled access.  Idempotent
   until the next flush, exactly like the bit it sets. *)
let note_sampled d t = d.pending.(t) <- true

(* The view is O_t[t ↦ e_t] (the list's own node is stale anyway); see
   {!Sampling_naive} for the version. *)
let view_size (cfg : Detector.config) = cfg.Detector.clock_size
let view_version d t = History.version d.history t + d.epochs.(t)

let export_view d t buf =
  Ol.values_into d.olists.(t) buf;
  buf.(t) <- d.epochs.(t)

let import_view d t idx vals =
  Array.iteri
    (fun j i ->
      if i = t then d.epochs.(t) <- vals.(j)
      else begin
        touch_olist d t;
        Ol.set d.olists.(t) i vals.(j)
      end)
    idx;
  History.bump d.history t

(* Snapshots must reproduce Alg 4's lazy-copy sharing structure, not just
   the list values: a release stores a *reference* to the releasing
   thread's list, and several locks may alias one list (or an old version a
   thread has since deep-copied away from).  Each lock's entry is encoded
   as a reference — to a thread's current list, or to an earlier lock's
   entry — and only as an inline list when it aliases neither
   ({!Snap.Enc.shared}), so restore rebuilds the exact physical sharing and
   the [shared] flags keep meaning what they meant. *)
let encode_lock_lists enc d =
  Snap.Enc.shared enc ~roots:d.olists ~hash:Ol.hash d.lock_ol (Ol.encode enc)

let decode_lock_lists dec d ~size =
  Snap.Dec.shared dec ~what:"lock list" ~roots:d.olists d.lock_ol (fun () ->
      Ol.decode dec ~size)

let snapshot d =
  let enc = Snap.Enc.create () in
  d.sample.Sampler.save enc;
  Array.iter (Ol.encode enc) d.olists;
  Snap.Enc.int_array enc d.own;
  Array.iter (Vc.encode enc) d.uclocks;
  Snap.Enc.int_array enc d.epochs;
  Snap.Enc.bool_array enc d.pending;
  Snap.Enc.bool_array enc d.shared;
  encode_lock_lists enc d;
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
  let n = d.nthreads in
  d.sample.Sampler.load dec;
  for t = 0 to n - 1 do
    d.olists.(t) <- Ol.decode dec ~size:n
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
  decode_lock_lists dec d ~size:n;
  (* the restored lists are fresh: count the physical sharing just rebuilt *)
  d.allocated <- 0;
  let hold o =
    if Ol.refs o = 0 then d.allocated <- d.allocated + 1;
    retain o
  in
  Array.iter hold d.olists;
  Array.iter (Option.iter hold) d.lock_ol;
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
