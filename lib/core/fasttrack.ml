module E = Ft_trace.Event
module Vc = Vector_clock

(* Location state lives in flat int arrays instead of option-boxed records:
   the write history is an epoch + index pair, and the read history is an
   epoch + index pair while the location stays in exclusive mode — the
   common case, which now costs zero allocation and no pointer chasing.
   Shared-mode read clocks are rare, so they live out-of-line in slot pools
   indexed through an open-addressed {!Flat_table}; a location is in shared
   mode iff the table binds it.

   [repoch = Epoch.none] doubles as "no reads yet": the seed treated a
   missing read record and a none-epoch record identically in every check
   ([Epoch.leq_vc Epoch.none] always holds).  A second reserved value,
   [shared_marker], stamps locations that are in shared mode, so the
   exclusive-mode fast path never pays the table probe: a real epoch has
   time ≥ 1 (thread clocks start at 1), hence compares different from both
   sentinels. *)

type t = {
  nthreads : int;
  clocks : Vc.t array;
  vers : int array;                    (* per-thread view version *)
  lock_clocks : Vc.t option array;
  writes : Epoch.t array;              (* W_x *)
  w_index : int array;                 (* trace index behind W_x *)
  repoch : Epoch.t array;              (* R_x in exclusive mode *)
  rindex : int array;                  (* trace index behind repoch *)
  rshared : Flat_table.t;              (* loc -> slot, shared mode only *)
  mutable rvc_pool : Vc.t array;       (* slot -> read clock *)
  mutable rvc_index_pool : int array array;  (* slot -> per-thread indices *)
  mutable pool_len : int;              (* slots handed out, free list aside *)
  mutable free_slots : int list;       (* slots returned by deflation *)
  metrics : Metrics.t;
  mutable races : Race.t list;
}

let name = "fasttrack"

(* Reserved [repoch] value marking shared mode.  Real read epochs always
   carry time ≥ 1 (thread clocks start at 1), so [time:0] cannot collide;
   tid [0xFFFF] keeps it distinct from [Epoch.none] as well.  Never feed
   this to [Epoch.leq_vc] — its tid indexes past the clock. *)
let shared_marker = Epoch.make ~time:0 ~tid:0xFFFF

let create (cfg : Detector.config) =
  let clocks =
    Array.init cfg.Detector.clock_size (fun i ->
        let c = Vc.create cfg.Detector.clock_size in
        Vc.set c i 1;
        c)
  in
  let nlocs = Stdlib.max 1 cfg.Detector.nlocs in
  {
    nthreads = cfg.Detector.clock_size;
    clocks;
    vers = Array.make cfg.Detector.clock_size 0;
    lock_clocks = Array.make (Stdlib.max 1 cfg.Detector.nlocks) None;
    writes = Array.make nlocs Epoch.none;
    w_index = Array.make nlocs (-1);
    repoch = Array.make nlocs Epoch.none;
    rindex = Array.make nlocs (-1);
    rshared = Flat_table.create ();
    rvc_pool = [||];
    rvc_index_pool = [||];
    pool_len = 0;
    free_slots = [];
    metrics = Metrics.create ();
    races = [];
  }

let declare d index tid x ~with_write ~with_read ~prior =
  d.metrics.Metrics.races <- d.metrics.Metrics.races + 1;
  let prior = if prior < 0 then None else Some prior in
  d.races <- Race.make ~index ~thread:tid ~loc:x ~with_write ~with_read ?prior () :: d.races

(* Hand out a zeroed shared-mode slot, recycling deflated ones. *)
let alloc_slot d =
  match d.free_slots with
  | s :: rest ->
    d.free_slots <- rest;
    Vc.reset d.rvc_pool.(s);
    Array.fill d.rvc_index_pool.(s) 0 d.nthreads (-1);
    s
  | [] ->
    if d.pool_len = Array.length d.rvc_pool then begin
      let cap = Stdlib.max 4 (d.pool_len * 2) in
      let rvc = Array.make cap (Vc.create 0) in
      let ri = Array.make cap [||] in
      Array.blit d.rvc_pool 0 rvc 0 d.pool_len;
      Array.blit d.rvc_index_pool 0 ri 0 d.pool_len;
      d.rvc_pool <- rvc;
      d.rvc_index_pool <- ri
    end;
    let s = d.pool_len in
    d.rvc_pool.(s) <- Vc.create d.nthreads;
    d.rvc_index_pool.(s) <- Array.make d.nthreads (-1);
    d.pool_len <- s + 1;
    s

let lock_clock d l =
  match d.lock_clocks.(l) with
  | Some c -> c
  | None ->
    let c = Vc.create d.nthreads in
    d.lock_clocks.(l) <- Some c;
    c

(* Thread [t]'s clock is about to move: a new view version. *)
let moved d t = d.vers.(t) <- d.vers.(t) + 1

let handle d index (e : E.t) =
  let m = d.metrics in
  m.Metrics.events <- m.Metrics.events + 1;
  let t = e.E.thread in
  let ct = d.clocks.(t) in
  match e.E.op with
  | E.Read x ->
    m.Metrics.reads <- m.Metrics.reads + 1;
    let own = Epoch.make ~time:(Vc.get ct t) ~tid:t in
    let re = d.repoch.(x) in
    if Epoch.equal re own then
      (* exclusive-mode same epoch: one load, one compare, no table probe *)
      m.Metrics.same_epoch_hits <- m.Metrics.same_epoch_hits + 1
    else if Epoch.equal re shared_marker then begin
      let slot = Flat_table.find d.rshared x in
      let rv = d.rvc_pool.(slot) in
      if Vc.get rv t = Vc.get ct t then
        m.Metrics.same_epoch_hits <- m.Metrics.same_epoch_hits + 1
      else begin
        m.Metrics.race_checks <- m.Metrics.race_checks + 1;
        if not (Epoch.leq_vc d.writes.(x) ct) then
          declare d index t x ~with_write:true ~with_read:false ~prior:d.w_index.(x);
        Vc.set rv t (Vc.get ct t);
        d.rvc_index_pool.(slot).(t) <- index
      end
    end
    else begin
      m.Metrics.race_checks <- m.Metrics.race_checks + 1;
      if not (Epoch.leq_vc d.writes.(x) ct) then
        declare d index t x ~with_write:true ~with_read:false ~prior:d.w_index.(x);
      if Epoch.leq_vc re ct then begin
        (* exclusive read; covers re = none, which leq_vc always admits *)
        d.repoch.(x) <- own;
        d.rindex.(x) <- index
      end
      else begin
        (* inflate to shared mode *)
        let s = alloc_slot d in
        let rv = d.rvc_pool.(s) and ri = d.rvc_index_pool.(s) in
        Vc.set rv (Epoch.tid re) (Epoch.time re);
        ri.(Epoch.tid re) <- d.rindex.(x);
        Vc.set rv t (Vc.get ct t);
        ri.(t) <- index;
        Flat_table.set d.rshared x s;
        d.repoch.(x) <- shared_marker
      end
    end
  | E.Write x ->
    m.Metrics.writes <- m.Metrics.writes + 1;
    let own = Epoch.make ~time:(Vc.get ct t) ~tid:t in
    if Epoch.equal d.writes.(x) own then
      m.Metrics.same_epoch_hits <- m.Metrics.same_epoch_hits + 1
    else begin
      m.Metrics.race_checks <- m.Metrics.race_checks + 2;
      let pw = if Epoch.leq_vc d.writes.(x) ct then -1 else d.w_index.(x) in
      if Epoch.equal d.repoch.(x) shared_marker then begin
        let slot = Flat_table.find d.rshared x in
        m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
        let rv = d.rvc_pool.(slot) in
        let rec stale i =
          if i >= Vc.size rv then -1
          else if Vc.get rv i > Vc.get ct i then d.rvc_index_pool.(slot).(i)
          else stale (i + 1)
        in
        let pr = stale 0 in
        let with_write = pw >= 0 and with_read = pr >= 0 in
        if with_write || with_read then
          declare d index t x ~with_write ~with_read
            ~prior:(if with_write then pw else pr);
        d.writes.(x) <- own;
        d.w_index.(x) <- index;
        (* a successful shared-read check lets us fall back to epoch mode *)
        if not with_read then begin
          Flat_table.remove d.rshared x;
          d.free_slots <- slot :: d.free_slots;
          d.repoch.(x) <- Epoch.none
        end
      end
      else begin
        let pr = if Epoch.leq_vc d.repoch.(x) ct then -1 else d.rindex.(x) in
        let with_write = pw >= 0 and with_read = pr >= 0 in
        if with_write || with_read then
          declare d index t x ~with_write ~with_read
            ~prior:(if with_write then pw else pr);
        d.writes.(x) <- own;
        d.w_index.(x) <- index
      end
    end
  | E.Acquire l | E.Acquire_load l ->
    m.Metrics.acquires <- m.Metrics.acquires + 1;
    (match d.lock_clocks.(l) with
    | None -> ()
    | Some cl ->
      m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
      moved d t;
      Vc.join ~into:ct cl)
  | E.Release l | E.Release_store l ->
    m.Metrics.releases <- m.Metrics.releases + 1;
    m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
    m.Metrics.releases_processed <- m.Metrics.releases_processed + 1;
    Vc.copy_into ~into:(lock_clock d l) ct;
    moved d t;
    Vc.inc ct t
  | E.Fork u ->
    m.Metrics.releases <- m.Metrics.releases + 1;
    m.Metrics.releases_processed <- m.Metrics.releases_processed + 1;
    m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
    moved d u;
    Vc.join ~into:d.clocks.(u) ct;
    moved d t;
    Vc.inc ct t
  | E.Join u ->
    m.Metrics.acquires <- m.Metrics.acquires + 1;
    m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
    moved d t;
    Vc.join ~into:ct d.clocks.(u)

let result d =
  { Detector.engine = name; races = List.rev d.races; metrics = d.metrics }

let races_rev d = d.races

(* Accesses never touch thread clocks here, so sharding needs no replay. *)
let note_sampled (_ : t) (_ : int) = ()

(* The view is C_t, whose own entry is the epoch. *)
let view_size (cfg : Detector.config) = cfg.Detector.clock_size
let view_version d t = d.vers.(t)
let export_view d t buf = Vc.blit_into d.clocks.(t) buf

let import_view d t idx vals =
  Array.iteri (fun j i -> Vc.set d.clocks.(t) i vals.(j)) idx;
  moved d t

(* Shared-mode entries are written in ascending location order so equal
   detector states encode to equal bytes regardless of the table's probe
   history. *)
let snapshot d =
  let enc = Snap.Enc.create () in
  Array.iter (Vc.encode enc) d.clocks;
  Snap.Enc.int_array enc d.vers;
  Array.iter (fun c -> Snap.Enc.option enc (Vc.encode enc) c) d.lock_clocks;
  Array.iter (Epoch.encode enc) d.writes;
  Snap.Enc.int_array enc d.w_index;
  Array.iter (Epoch.encode enc) d.repoch;
  Snap.Enc.int_array enc d.rindex;
  let shared = ref [] in
  Flat_table.iter d.rshared (fun x s -> shared := (x, s) :: !shared);
  let shared = List.sort compare !shared in
  Snap.Enc.int enc (List.length shared);
  List.iter
    (fun (x, s) ->
      Snap.Enc.int enc x;
      Vc.encode enc d.rvc_pool.(s);
      Snap.Enc.int_array enc d.rvc_index_pool.(s))
    shared;
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
  Array.blit (Snap.Dec.int_array_n dec n) 0 d.vers 0 n;
  for l = 0 to Array.length d.lock_clocks - 1 do
    d.lock_clocks.(l) <- Snap.Dec.option dec (fun () -> Vc.decode dec ~size:n)
  done;
  for x = 0 to Array.length d.writes - 1 do
    d.writes.(x) <- Epoch.decode dec
  done;
  let w_index = Snap.Dec.int_array_n dec (Array.length d.w_index) in
  Array.blit w_index 0 d.w_index 0 (Array.length w_index);
  for x = 0 to Array.length d.repoch - 1 do
    d.repoch.(x) <- Epoch.decode dec
  done;
  let rindex = Snap.Dec.int_array_n dec (Array.length d.rindex) in
  Array.blit rindex 0 d.rindex 0 (Array.length rindex);
  let nshared = Snap.Dec.int dec in
  Snap.expect (nshared >= 0 && nshared <= Array.length d.writes)
    "shared read count out of range";
  let prev = ref (-1) in
  for _ = 1 to nshared do
    let x = Snap.Dec.int dec in
    Snap.expect (x > !prev && x < Array.length d.writes)
      "shared read location out of order";
    prev := x;
    let slot = alloc_slot d in
    let rv = Vc.decode dec ~size:n in
    Vc.copy_into ~into:d.rvc_pool.(slot) rv;
    let ri = Snap.Dec.int_array_n dec n in
    Array.blit ri 0 d.rvc_index_pool.(slot) 0 n;
    Flat_table.set d.rshared x slot
  done;
  let metrics = Metrics.decode dec in
  d.races <- Race.decode_list dec;
  Snap.Dec.finish dec;
  { d with metrics }
