module E = Ft_trace.Event
module Vc = Vector_clock

(* O(1)-samples detection: FastTrack's adaptive location state (last-write
   epoch, exclusive-read epoch, rare shared-read clocks) applied to the
   sampled subsequence, driven by the sampling-clock machinery of Alg 2/3 —
   ⊥-initialized thread clocks whose own component is externalized as the
   local epoch [e_t] and only flushed into the clock at the first release
   after a sampled access.

   Location state mirrors {!Fasttrack}: flat epoch/index arrays for the
   common exclusive case and the same {!Read_pool} for shared-mode read
   clocks, found through the shared location's [rindex] cell.  The one
   systematic change is the ordering check: a recorded epoch [c@u] is
   compared against [C_t[t ↦ e_t]] — the clock's own entry holds only the
   last *flushed* epoch, so same-thread ordering must consult [e_t] (cf.
   {!History}).

   The functor parameterizes the freshness-clock policy: the plain engine
   ("o1") uses Alg 2's sync handlers; the uclock variant ("o1-u") carries
   Alg 3's U-clocks and last-releaser tags and skips acquires and releases
   that would move no information, exactly as {!Sampling_uclock} does.  The
   skips never change clock contents, so both engines report byte-identical
   races. *)
module type S = sig
  include Detector.S

  val read_pool : t -> Read_pool.t
  val check_pool : t -> bool
end

module Make (Policy : sig
  val name : string
  val uclock : bool
end) =
struct
type t = {
  nthreads : int;
  sample : Sampler.instance;
  clocks : Vc.t array;           (* C_t, initialized to ⊥ *)
  uclocks : Vc.t array;          (* U_t; unused (length 0 clocks) without the policy *)
  epochs : int array;            (* e_t *)
  vers : int array;              (* per-thread view version *)
  pending : bool array;          (* sampled event since the last flush? *)
  lock_clocks : Vc.t option array;   (* C_ℓ *)
  lock_uclocks : Vc.t option array;  (* U_ℓ *)
  lock_lr : int array;               (* LR_ℓ, -1 = NIL *)
  writes : Epoch.t array;              (* W_x: last sampled write *)
  w_index : int array;                 (* trace index behind W_x *)
  repoch : Epoch.t array;              (* R_x in exclusive mode *)
  rindex : int array;                  (* index behind repoch; shared: slot *)
  pool : Read_pool.t;                  (* shared-mode read clocks (epochs) *)
  metrics : Metrics.t;
  mutable races : Race.t list;
}

let name = Policy.name

let create (cfg : Detector.config) =
  let n = cfg.Detector.clock_size in
  let nlocks = Stdlib.max 1 cfg.Detector.nlocks in
  let nlocs = Stdlib.max 1 cfg.Detector.nlocs in
  {
    nthreads = n;
    sample = Sampler.fresh cfg.Detector.sampler;
    clocks = Array.init n (fun _ -> Vc.create n);
    uclocks =
      (if Policy.uclock then Array.init n (fun _ -> Vc.create n) else [||]);
    epochs = Array.make n 1;
    vers = Array.make n 0;
    pending = Array.make n false;
    lock_clocks = Array.make nlocks None;
    lock_uclocks = Array.make nlocks None;
    lock_lr = Array.make nlocks (-1);
    writes = Array.make nlocs Epoch.none;
    w_index = Array.make nlocs (-1);
    repoch = Array.make nlocs Epoch.none;
    rindex = Array.make nlocs (-1);
    pool = Read_pool.create ~nthreads:n;
    metrics = Metrics.create ();
    races = [];
  }

let declare d index tid x ~with_write ~with_read ~prior =
  d.metrics.Metrics.races <- d.metrics.Metrics.races + 1;
  let prior = if prior < 0 then None else Some prior in
  d.races <- Race.make ~index ~thread:tid ~loc:x ~with_write ~with_read ?prior () :: d.races

(* [c@u ⊑ C_t[t ↦ e_t]].  Never fed [Read_pool.marker] — its tid indexes past
   the clock; callers branch on it first. *)
let[@inline] leq_sub e ct ~t ~epoch =
  if Epoch.tid e = t then Epoch.time e <= epoch else Epoch.leq_vc e ct

let lock_clock d l =
  match d.lock_clocks.(l) with
  | Some c -> c
  | None ->
    let c = Vc.create d.nthreads in
    d.lock_clocks.(l) <- Some c;
    c

(* Thread [t]'s clock or epoch is about to move: a new view version. *)
let moved d t = d.vers.(t) <- d.vers.(t) + 1

let flush_pending d t =
  if d.pending.(t) then begin
    moved d t;
    Vc.set d.clocks.(t) t d.epochs.(t);
    if Policy.uclock then Vc.inc d.uclocks.(t) t;
    d.epochs.(t) <- d.epochs.(t) + 1;
    d.pending.(t) <- false
  end

(* Uclock-policy sync helpers, lifted from {!Sampling_uclock}. *)
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

let absorb d t ~src_c ~src_u =
  moved d t;
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
      let epoch = d.epochs.(t) in
      let own = Epoch.make ~time:epoch ~tid:t in
      let re = d.repoch.(x) in
      if Epoch.equal re own then
        m.Metrics.same_epoch_hits <- m.Metrics.same_epoch_hits + 1
      else if Epoch.equal re Read_pool.marker then begin
        let slot = d.rindex.(x) in
        if Read_pool.time d.pool slot t = epoch then
          m.Metrics.same_epoch_hits <- m.Metrics.same_epoch_hits + 1
        else begin
          m.Metrics.race_checks <- m.Metrics.race_checks + 1;
          if not (leq_sub d.writes.(x) ct ~t ~epoch) then
            declare d index t x ~with_write:true ~with_read:false ~prior:d.w_index.(x);
          Read_pool.set d.pool slot t ~time:epoch ~index
        end
      end
      else begin
        m.Metrics.race_checks <- m.Metrics.race_checks + 1;
        if not (leq_sub d.writes.(x) ct ~t ~epoch) then
          declare d index t x ~with_write:true ~with_read:false ~prior:d.w_index.(x);
        if leq_sub re ct ~t ~epoch then begin
          (* exclusive read; covers re = none, which every check admits *)
          d.repoch.(x) <- own;
          d.rindex.(x) <- index
        end
        else
          Read_pool.inflate d.pool ~repoch:d.repoch ~rindex:d.rindex x ~tid:t ~time:epoch
            ~index
      end;
      d.pending.(t) <- true
    end
  | E.Write x ->
    m.Metrics.writes <- m.Metrics.writes + 1;
    if d.sample.Sampler.decide index e then begin
      m.Metrics.sampled_accesses <- m.Metrics.sampled_accesses + 1;
      let epoch = d.epochs.(t) in
      let own = Epoch.make ~time:epoch ~tid:t in
      if Epoch.equal d.writes.(x) own then
        m.Metrics.same_epoch_hits <- m.Metrics.same_epoch_hits + 1
      else begin
        m.Metrics.race_checks <- m.Metrics.race_checks + 2;
        let pw =
          if leq_sub d.writes.(x) ct ~t ~epoch then -1 else d.w_index.(x)
        in
        if Epoch.equal d.repoch.(x) Read_pool.marker then begin
          m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
          let pr = Read_pool.stale d.pool d.rindex.(x) ct ~tid:t ~epoch in
          let with_write = pw >= 0 and with_read = pr >= 0 in
          if with_write || with_read then
            declare d index t x ~with_write ~with_read
              ~prior:(if with_write then pw else pr);
          d.writes.(x) <- own;
          d.w_index.(x) <- index;
          (* a successful shared-read check lets us fall back to epoch mode *)
          if not with_read then Read_pool.deflate d.pool ~repoch:d.repoch ~rindex:d.rindex x
        end
        else begin
          let pr =
            if leq_sub d.repoch.(x) ct ~t ~epoch then -1 else d.rindex.(x)
          in
          let with_write = pw >= 0 and with_read = pr >= 0 in
          if with_write || with_read then
            declare d index t x ~with_write ~with_read
              ~prior:(if with_write then pw else pr);
          d.writes.(x) <- own;
          d.w_index.(x) <- index
        end
      end;
      d.pending.(t) <- true
    end
  | E.Acquire l | E.Acquire_load l ->
    m.Metrics.acquires <- m.Metrics.acquires + 1;
    if Policy.uclock then (
      match d.lock_lr.(l) with
      | -1 -> m.Metrics.acquires_skipped <- m.Metrics.acquires_skipped + 1
      | lr ->
        let ul = Option.get d.lock_uclocks.(l) in
        if Vc.get ul lr <= Vc.get d.uclocks.(t) lr then
          m.Metrics.acquires_skipped <- m.Metrics.acquires_skipped + 1
        else absorb d t ~src_c:(Option.get d.lock_clocks.(l)) ~src_u:ul)
    else (
      match d.lock_clocks.(l) with
      | None -> ()
      | Some cl ->
        m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
        moved d t;
        Vc.join ~into:ct cl)
  | E.Release l ->
    m.Metrics.releases <- m.Metrics.releases + 1;
    flush_pending d t;
    if Policy.uclock then begin
      d.lock_lr.(l) <- t;
      match d.lock_uclocks.(l) with
      | Some ul when Vc.get ul t = Vc.get d.uclocks.(t) t ->
        (* the lock already carries this thread's latest information *)
        ()
      | Some _ | None -> publish d t l
    end
    else begin
      m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
      m.Metrics.releases_processed <- m.Metrics.releases_processed + 1;
      Vc.copy_into ~into:(lock_clock d l) ct
    end
  | E.Release_store l ->
    (* non-monotonic lock clock: the release-side skip is unsound here *)
    m.Metrics.releases <- m.Metrics.releases + 1;
    flush_pending d t;
    if Policy.uclock then begin
      d.lock_lr.(l) <- t;
      publish d t l
    end
    else begin
      m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
      m.Metrics.releases_processed <- m.Metrics.releases_processed + 1;
      Vc.copy_into ~into:(lock_clock d l) ct
    end
  | E.Fork u ->
    m.Metrics.releases <- m.Metrics.releases + 1;
    flush_pending d t;
    moved d u;
    if Policy.uclock then begin
      m.Metrics.releases_processed <- m.Metrics.releases_processed + 1;
      m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 2;
      Vc.join ~into:d.uclocks.(u) d.uclocks.(t);
      let changed = Vc.join_count ~into:d.clocks.(u) ct in
      if changed > 0 then Vc.set d.uclocks.(u) u (Vc.get d.uclocks.(u) u + changed)
    end
    else begin
      m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
      Vc.join ~into:d.clocks.(u) ct
    end
  | E.Join u ->
    m.Metrics.acquires <- m.Metrics.acquires + 1;
    (* the child's end-of-thread acts as its final release: flush its pending
       sampled epoch so the parent inherits the child's latest accesses *)
    flush_pending d u;
    if Policy.uclock then
      absorb d t ~src_c:d.clocks.(u) ~src_u:d.uclocks.(u)
    else begin
      m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
      moved d t;
      Vc.join ~into:ct d.clocks.(u)
    end

let result d =
  { Detector.engine = name; races = List.rev d.races; metrics = d.metrics }

let races_rev d = d.races

(* Sharding hook: the thread-local half of a sampled access.  Idempotent
   until the next flush, exactly like the bit it sets. *)
let note_sampled d t = d.pending.(t) <- true

(* The view is C_t[t ↦ e_t]: the clock's own entry holds only the last
   flushed epoch. *)
let view_size (cfg : Detector.config) = cfg.Detector.clock_size
let view_version d t = d.vers.(t)

let export_view d t buf =
  Vc.blit_into d.clocks.(t) buf;
  buf.(t) <- d.epochs.(t)

let import_view d t idx vals =
  Array.iteri
    (fun j i -> if i = t then d.epochs.(t) <- vals.(j) else Vc.set d.clocks.(t) i vals.(j))
    idx;
  moved d t

let snapshot d =
  let enc = Snap.Enc.create () in
  d.sample.Sampler.save enc;
  Array.iter (Vc.encode enc) d.clocks;
  if Policy.uclock then Array.iter (Vc.encode enc) d.uclocks;
  Snap.Enc.int_array enc d.epochs;
  Snap.Enc.int_array enc d.vers;
  Snap.Enc.bool_array enc d.pending;
  Array.iter (fun c -> Snap.Enc.option enc (Vc.encode enc) c) d.lock_clocks;
  if Policy.uclock then begin
    Array.iter (fun c -> Snap.Enc.option enc (Vc.encode enc) c) d.lock_uclocks;
    Snap.Enc.int_array enc d.lock_lr
  end;
  Array.iter (Epoch.encode enc) d.writes;
  Snap.Enc.int_array enc d.w_index;
  Read_pool.encode_reads enc d.pool ~repoch:d.repoch ~rindex:d.rindex;
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
  if Policy.uclock then
    for t = 0 to Array.length d.uclocks - 1 do
      d.uclocks.(t) <- Vc.decode dec ~size:n
    done;
  let epochs = Snap.Dec.int_array_n dec n in
  Array.blit epochs 0 d.epochs 0 n;
  Array.blit (Snap.Dec.int_array_n dec n) 0 d.vers 0 n;
  let pending = Snap.Dec.bool_array_n dec n in
  Array.blit pending 0 d.pending 0 n;
  for l = 0 to Array.length d.lock_clocks - 1 do
    d.lock_clocks.(l) <- Snap.Dec.option dec (fun () -> Vc.decode dec ~size:n)
  done;
  if Policy.uclock then begin
    for l = 0 to Array.length d.lock_uclocks - 1 do
      d.lock_uclocks.(l) <- Snap.Dec.option dec (fun () -> Vc.decode dec ~size:n)
    done;
    let lock_lr = Snap.Dec.int_array_n dec (Array.length d.lock_lr) in
    Array.iteri
      (fun l lr ->
        Snap.expect (lr >= -1 && lr < n) "lock releaser out of range";
        d.lock_lr.(l) <- lr)
      lock_lr
  end;
  for x = 0 to Array.length d.writes - 1 do
    d.writes.(x) <- Epoch.decode dec
  done;
  let w_index = Snap.Dec.int_array_n dec (Array.length d.w_index) in
  Array.blit w_index 0 d.w_index 0 (Array.length w_index);
  Read_pool.decode_reads dec d.pool ~repoch:d.repoch ~rindex:d.rindex;
  let metrics = Metrics.decode dec in
  d.races <- Race.decode_list dec;
  Snap.Dec.finish dec;
  { d with metrics }

let read_pool d = d.pool
let check_pool d = Read_pool.check d.pool ~repoch:d.repoch ~rindex:d.rindex

end

include Make (struct
  let name = "o1"
  let uclock = false
end)
