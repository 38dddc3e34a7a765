module E = Ft_trace.Event
module Vc = Vector_clock

type t = {
  nthreads : int;
  clocks : Vc.t array;         (* C_t, initialized to ⊥[t ↦ 1] *)
  lock_clocks : Vc.t option array;  (* C_ℓ, lazily allocated *)
  history : History.t;
  metrics : Metrics.t;
  mutable races : Race.t list;
}

let name = "djit"

let create (cfg : Detector.config) =
  let clocks =
    Array.init cfg.Detector.clock_size (fun i ->
        let c = Vc.create cfg.Detector.clock_size in
        Vc.set c i 1;
        c)
  in
  {
    nthreads = cfg.Detector.clock_size;
    clocks;
    lock_clocks = Array.make (Stdlib.max 1 cfg.Detector.nlocks) None;
    history = History.create ~nlocs:cfg.Detector.nlocs ~clock_size:cfg.Detector.clock_size;
    metrics = Metrics.create ();
    races = [];
  }

(* DJIT+'s thread clock always has C_t(t) equal to the current epoch, so
   passing epoch = C_t(t) makes the history check the plain pointwise
   comparison. *)

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

let handle d index (e : E.t) =
  let m = d.metrics in
  m.Metrics.events <- m.Metrics.events + 1;
  let t = e.E.thread in
  let ct = d.clocks.(t) in
  match e.E.op with
  | E.Read x ->
    m.Metrics.reads <- m.Metrics.reads + 1;
    m.Metrics.race_checks <- m.Metrics.race_checks + 1;
    let epoch = Vc.get ct t in
    (* fast path: the same (thread, epoch) just read this location cleanly
       and nothing relevant moved — only the recorded index changes *)
    if History.read_hit d.history x ~tid:t ~epoch ~index then
      m.Metrics.same_epoch_hits <- m.Metrics.same_epoch_hits + 1
    else begin
      let pw = History.stale_write_plain d.history x ct in
      if pw >= 0 then declare d index t x ~with_write:true ~with_read:false ~prior:pw;
      History.record_read d.history x ~tid:t ~epoch ~index ~clean:(pw < 0)
    end
  | E.Write x ->
    m.Metrics.writes <- m.Metrics.writes + 1;
    m.Metrics.race_checks <- m.Metrics.race_checks + 2;
    let epoch = Vc.get ct t in
    if History.write_hit d.history x ~tid:t ~epoch ~index then
      m.Metrics.same_epoch_hits <- m.Metrics.same_epoch_hits + 1
    else begin
      let pr, pw = History.stale_both_plain d.history x ct in
      if pr >= 0 || pw >= 0 then
        declare d index t x ~with_write:(pw >= 0) ~with_read:(pr >= 0)
          ~prior:(if pw >= 0 then pw else pr);
      History.record_write_vc d.history x ct ~tid:t ~epoch ~index
        ~clean:(pr < 0 && pw < 0)
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
    m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
    m.Metrics.releases_processed <- m.Metrics.releases_processed + 1;
    History.bump d.history t;
    Vc.copy_into ~into:(lock_clock d l) ct;
    Vc.inc ct t
  | E.Fork u ->
    m.Metrics.releases <- m.Metrics.releases + 1;
    m.Metrics.releases_processed <- m.Metrics.releases_processed + 1;
    m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
    History.bump d.history t;
    History.bump d.history u;
    Vc.join ~into:d.clocks.(u) ct;
    Vc.inc ct t
  | E.Join u ->
    m.Metrics.acquires <- m.Metrics.acquires + 1;
    m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
    History.bump d.history t;
    Vc.join ~into:ct d.clocks.(u)

let result d =
  { Detector.engine = name; races = List.rev d.races; metrics = d.metrics }

let races_rev d = d.races

(* Accesses never touch thread clocks here, so sharding needs no replay. *)
let note_sampled (_ : t) (_ : int) = ()

(* The view is C_t itself: its own entry is the epoch, and every handler
   that moves it bumps the history version. *)
let view_size (cfg : Detector.config) = cfg.Detector.clock_size
let view_version d t = History.version d.history t
let export_view d t buf = Vc.blit_into d.clocks.(t) buf

let import_view d t idx vals =
  Array.iteri (fun j i -> Vc.set d.clocks.(t) i vals.(j)) idx;
  History.bump d.history t

let snapshot d =
  let enc = Snap.Enc.create () in
  Array.iter (Vc.encode enc) d.clocks;
  Array.iter (fun c -> Snap.Enc.option enc (Vc.encode enc) c) d.lock_clocks;
  History.encode enc d.history;
  Metrics.encode enc d.metrics;
  Race.encode_list enc d.races;
  Snap.Enc.to_snap enc

let restore (cfg : Detector.config) s =
  let d = create cfg in
  let dec = Snap.Dec.of_snap s in
  let n = d.nthreads in
  for t = 0 to Array.length d.clocks - 1 do
    d.clocks.(t) <- Vc.decode dec ~size:n
  done;
  for l = 0 to Array.length d.lock_clocks - 1 do
    d.lock_clocks.(l) <- Snap.Dec.option dec (fun () -> Vc.decode dec ~size:n)
  done;
  let history = History.decode dec ~nlocs:cfg.Detector.nlocs ~clock_size:n in
  let metrics = Metrics.decode dec in
  d.races <- Race.decode_list dec;
  Snap.Dec.finish dec;
  { d with history; metrics }
