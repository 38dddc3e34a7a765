module Event = Ft_trace.Event
module Detector = Ft_core.Detector
module Engine = Ft_core.Engine
module Sampler = Ft_core.Sampler
module Metrics = Ft_core.Metrics
module Race = Ft_core.Race
module Snap = Ft_core.Snap

(* One engine instance behind closures, so callers can hold it without
   knowing the engine's state type. *)
type inst = {
  i_handle : int -> Event.t -> unit;
  i_note : Event.tid -> unit;
  i_version : Event.tid -> int;
  i_export : Event.tid -> int array -> unit;
  i_import : Event.tid -> int array -> int array -> unit;
  i_result : unit -> Detector.result;
  i_snapshot : unit -> Snap.t;
}

let instance (module D : Detector.S) ?snap config =
  let d = match snap with None -> D.create config | Some s -> D.restore config s in
  {
    i_handle = D.handle d;
    i_note = D.note_sampled d;
    i_version = D.view_version d;
    i_export = D.export_view d;
    i_import = D.import_view d;
    i_result = (fun () -> D.result d);
    i_snapshot = (fun () -> D.snapshot d);
  }

type source = {
  version : Event.tid -> int;
  export : Event.tid -> int array -> unit;
}

type t = {
  inst : inst;  (* the engine, fed sync events plus note_sampled *)
  samples : bool;  (* the engine checks only sampled accesses *)
  sampler : Sampler.instance;
  tally : Metrics.t;  (* accesses nobody checks: events, reads, writes *)
  src : source;  (* the engine's own views *)
  vsize : int;
}

let make ~engine ?snap ~sampler ~tally (config : Detector.config) =
  let packed = Engine.detector engine in
  let (module D : Detector.S) = packed in
  let inst = instance packed ?snap config in
  {
    inst;
    samples = Engine.honours_sampler engine;
    sampler;
    tally;
    src = { version = inst.i_version; export = inst.i_export };
    vsize = D.view_size config;
  }

let create ~engine (config : Detector.config) =
  make ~engine ~sampler:(Sampler.fresh config.Detector.sampler) ~tally:(Metrics.create ())
    config

let source t = t.src
let view_size t = t.vsize

(* The sampler sees every access, exactly once, in trace order. *)
let admit t i (e : Event.t) =
  match e.Event.op with
  | Event.Read _ | Event.Write _ ->
    if (not t.samples) || Sampler.query t.sampler i e then begin
      t.inst.i_note e.Event.thread;
      true
    end
    else begin
      let m = t.tally in
      m.Metrics.events <- m.Metrics.events + 1;
      (match e.Event.op with
      | Event.Read _ -> m.Metrics.reads <- m.Metrics.reads + 1
      | _ -> m.Metrics.writes <- m.Metrics.writes + 1);
      false
    end
  | Event.Acquire _ | Event.Acquire_load _ | Event.Release _ | Event.Release_store _
  | Event.Fork _ | Event.Join _ ->
    t.inst.i_handle i e;
    false

(* The front did the sync work, the checkers the checks and the tally the
   rest, so the counters simply add up.  Each checked event declares at
   most one race on exactly one checker, so sorting by index recovers the
   unsharded declaration order. *)
let merge t (parts : Detector.result array) =
  let front = t.inst.i_result () in
  let races =
    List.sort
      (fun (a : Race.t) (b : Race.t) -> Stdlib.compare a.Race.index b.Race.index)
      (List.concat_map (fun (r : Detector.result) -> r.Detector.races) (Array.to_list parts))
  in
  let metrics = Metrics.create () in
  Metrics.add ~into:metrics front.Detector.metrics;
  Array.iter (fun (r : Detector.result) -> Metrics.add ~into:metrics r.Detector.metrics) parts;
  Metrics.add ~into:metrics t.tally;
  { Detector.engine = front.Detector.engine; races; metrics }

let save enc t =
  t.sampler.Sampler.save enc;
  Snap.Enc.string enc (t.inst.i_snapshot ());
  Metrics.encode enc t.tally

let load dec ~engine (config : Detector.config) =
  let sampler = Sampler.fresh config.Detector.sampler in
  sampler.Sampler.load dec;
  let snap = Snap.Dec.string dec in
  make ~engine ~snap ~sampler ~tally:(Metrics.decode dec) config

(* --- shipping views ------------------------------------------------------- *)

type ship = {
  shipped : int array array;  (* destination, thread: view version last shipped *)
  shadow : int array array array;  (* destination, thread: the view it holds *)
  view : int array;  (* export scratch *)
  delta_idx : int array;
  delta_val : int array;
}

let ship_of ~shipped ~shadow ~vsize =
  {
    shipped;
    shadow;
    view = Array.make vsize 0;
    delta_idx = Array.make vsize 0;
    delta_val = Array.make vsize 0;
  }

(* A fresh destination holds the fresh views, which [src] (fresh too)
   still has. *)
let ship_create src ~dests ~nthreads ~vsize =
  ship_of
    ~shipped:(Array.init dests (fun _ -> Array.init nthreads src.version))
    ~shadow:
      (Array.init dests (fun _ ->
           Array.init nthreads (fun th ->
               let v = Array.make vsize 0 in
               src.export th v;
               v)))
    ~vsize

(* Bring destination [d]'s copy of thread [th]'s view up to date.  A
   version change ships a view even when no entry changed: the checker's
   import invalidates the thread's same-epoch cache entries just as the
   sync handler that moved the version did, so cache hits stay exact. *)
let ship t src d th =
  let v = src.version th in
  let shipped = t.shipped.(d) in
  if v = shipped.(th) then None
  else begin
    shipped.(th) <- v;
    src.export th t.view;
    let view = t.view and shadow = t.shadow.(d).(th) in
    let n = ref 0 in
    for j = 0 to Array.length view - 1 do
      let x = Array.unsafe_get view j in
      if x <> Array.unsafe_get shadow j then begin
        Array.unsafe_set shadow j x;
        t.delta_idx.(!n) <- j;
        t.delta_val.(!n) <- x;
        incr n
      end
    done;
    Some (Array.sub t.delta_idx 0 !n, Array.sub t.delta_val 0 !n)
  end

let ship_save enc t =
  Array.iteri
    (fun d shipped ->
      Array.iteri
        (fun th ver ->
          Snap.Enc.int enc ver;
          Snap.Enc.int_array enc t.shadow.(d).(th))
        shipped)
    t.shipped

let ship_load dec ~dests ~nthreads ~vsize =
  let shipped = Array.make_matrix dests nthreads 0 in
  let shadow =
    Array.init dests (fun d ->
        Array.init nthreads (fun th ->
            shipped.(d).(th) <- Snap.Dec.int dec;
            Snap.Dec.int_array_n dec vsize))
  in
  ship_of ~shipped ~shadow ~vsize
