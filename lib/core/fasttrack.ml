module E = Ft_trace.Event
module Vc = Vector_clock

(* Location state lives in flat int arrays instead of option-boxed records:
   the write history is an epoch + index pair, and the read history is an
   epoch + index pair while the location stays in exclusive mode — the
   common case, which costs zero allocation and no pointer chasing.
   Shared-mode read clocks are rare, so they live out of line in a
   {!Read_pool}; a location is in shared mode iff its [repoch] is
   [Read_pool.marker], and then its [rindex] cell holds its slot.

   [repoch = Epoch.none] doubles as "no reads yet": the seed treated a
   missing read record and a none-epoch record identically in every check
   ([Epoch.leq_vc Epoch.none] always holds). *)

type t = {
  nthreads : int;
  clocks : Vc.t array;
  vers : int array;                    (* per-thread view version *)
  lock_clocks : Vc.t option array;
  writes : Epoch.t array;              (* W_x *)
  w_index : int array;                 (* trace index behind W_x *)
  repoch : Epoch.t array;              (* R_x in exclusive mode *)
  rindex : int array;                  (* index behind repoch; shared: slot *)
  pool : Read_pool.t;                  (* shared-mode read clocks *)
  metrics : Metrics.t;
  mutable races : Race.t list;
}

let name = "fasttrack"

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
    pool = Read_pool.create ~nthreads:cfg.Detector.clock_size;
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
    else if Epoch.equal re Read_pool.marker then begin
      let slot = d.rindex.(x) in
      if Read_pool.time d.pool slot t = Vc.get ct t then
        m.Metrics.same_epoch_hits <- m.Metrics.same_epoch_hits + 1
      else begin
        m.Metrics.race_checks <- m.Metrics.race_checks + 1;
        if not (Epoch.leq_vc d.writes.(x) ct) then
          declare d index t x ~with_write:true ~with_read:false ~prior:d.w_index.(x);
        Read_pool.set d.pool slot t ~time:(Vc.get ct t) ~index
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
      else
        Read_pool.inflate d.pool ~repoch:d.repoch ~rindex:d.rindex x ~tid:t
          ~time:(Vc.get ct t) ~index
    end
  | E.Write x ->
    m.Metrics.writes <- m.Metrics.writes + 1;
    let own = Epoch.make ~time:(Vc.get ct t) ~tid:t in
    if Epoch.equal d.writes.(x) own then
      m.Metrics.same_epoch_hits <- m.Metrics.same_epoch_hits + 1
    else begin
      m.Metrics.race_checks <- m.Metrics.race_checks + 2;
      let pw = if Epoch.leq_vc d.writes.(x) ct then -1 else d.w_index.(x) in
      if Epoch.equal d.repoch.(x) Read_pool.marker then begin
        m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
        let pr = Read_pool.stale d.pool d.rindex.(x) ct ~tid:t ~epoch:(Vc.get ct t) in
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

let snapshot d =
  let enc = Snap.Enc.create () in
  Array.iter (Vc.encode enc) d.clocks;
  Snap.Enc.int_array enc d.vers;
  Array.iter (fun c -> Snap.Enc.option enc (Vc.encode enc) c) d.lock_clocks;
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
  Read_pool.decode_reads dec d.pool ~repoch:d.repoch ~rindex:d.rindex;
  let metrics = Metrics.decode dec in
  d.races <- Race.decode_list dec;
  Snap.Dec.finish dec;
  { d with metrics }

let read_pool d = d.pool
let check_pool d = Read_pool.check d.pool ~repoch:d.repoch ~rindex:d.rindex
