(* Seed (pre-flat-state) engine implementations, vendored verbatim from the
   tree as of the hot-path overhaul so the byte-identity grid can compare
   the rebuilt engines against the originals they must not diverge from.
   Only [create]/[handle]/[result] are exercised — plus SO's and SL's
   quadratic lock-sharing encoders, the reference the linear
   [Snap.Enc.shared] is checked against (test_checkpoint); the vendored code
   is kept whole to avoid editing what it is meant to witness.  Do not "modernize"
   this file — its value is that it does NOT track lib/core. *)

module Vector_clock = Ft_core.Vector_clock
module Epoch = Ft_core.Epoch
module Metrics = Ft_core.Metrics
module Race = Ft_core.Race
module Detector = Ft_core.Detector
module Sampler = Ft_core.Sampler
module Ordered_list = Ft_core.Ordered_list
module Snap = Ft_core.Snap

module History = struct
  type loc_state = {
    mutable write : Vector_clock.t option;
    mutable write_index : int;
    mutable read : Vector_clock.t option;
    mutable read_index : int array;  (* allocated together with [read] *)
  }
  
  type t = {
    locs : loc_state option array;
    clock_size : int;
  }
  
  let create ~nlocs ~clock_size =
    { locs = Array.make (Stdlib.max 1 nlocs) None; clock_size }
  
  let state t x =
    match t.locs.(x) with
    | Some s -> s
    | None ->
      let s = { write = None; write_index = -1; read = None; read_index = [||] } in
      t.locs.(x) <- Some s;
      s
  
  (* First entry of [h] strictly above the current timestamp, or -1. *)
  let first_stale h ~bound =
    let n = Vector_clock.size h in
    let rec loop i =
      if i >= n then -1 else if Vector_clock.get h i > bound i then i else loop (i + 1)
    in
    loop 0
  
  let stale_write t x clock ~tid ~epoch =
    match t.locs.(x) with
    | None -> -1
    | Some s -> (
      match s.write with
      | None -> -1
      | Some h ->
        let bound i = if i = tid then epoch else Vector_clock.get clock i in
        if first_stale h ~bound < 0 then -1 else s.write_index)
  
  let stale_read t x clock ~tid ~epoch =
    match t.locs.(x) with
    | None -> -1
    | Some s -> (
      match s.read with
      | None -> -1
      | Some h ->
        let bound i = if i = tid then epoch else Vector_clock.get clock i in
        let offender = first_stale h ~bound in
        if offender < 0 then -1 else s.read_index.(offender))
  
  let ol_stale_write t x olist ~tid ~epoch =
    match t.locs.(x) with
    | None -> -1
    | Some s -> (
      match s.write with
      | None -> -1
      | Some h ->
        let bound i = if i = tid then epoch else Ordered_list.get olist i in
        if first_stale h ~bound < 0 then -1 else s.write_index)
  
  let ol_stale_read t x olist ~tid ~epoch =
    match t.locs.(x) with
    | None -> -1
    | Some s -> (
      match s.read with
      | None -> -1
      | Some h ->
        let bound i = if i = tid then epoch else Ordered_list.get olist i in
        let offender = first_stale h ~bound in
        if offender < 0 then -1 else s.read_index.(offender))
  
  let write_clock t s =
    match s.write with
    | Some h -> h
    | None ->
      let h = Vector_clock.create t.clock_size in
      s.write <- Some h;
      h
  
  let record_write_vc t x clock ~tid ~epoch ~index =
    let s = state t x in
    let h = write_clock t s in
    Vector_clock.copy_into ~into:h clock;
    Vector_clock.set h tid epoch;
    s.write_index <- index
  
  let record_write_ol t x olist ~tid ~epoch ~index =
    let s = state t x in
    let h = write_clock t s in
    Ordered_list.iter olist (fun tid' time -> Vector_clock.set h tid' time);
    Vector_clock.set h tid epoch;
    s.write_index <- index
  
  let encode enc t =
    Snap.Enc.int enc (Array.length t.locs);
    Array.iter
      (fun s ->
        Snap.Enc.option enc
          (fun s ->
            Snap.Enc.option enc (Vector_clock.encode enc) s.write;
            Snap.Enc.int enc s.write_index;
            Snap.Enc.option enc
              (fun r ->
                Vector_clock.encode enc r;
                Snap.Enc.int_array enc s.read_index)
              s.read)
          s)
      t.locs
  
  let decode dec ~nlocs ~clock_size =
    let stored = Snap.Dec.int dec in
    let t = create ~nlocs ~clock_size in
    Snap.expect (stored = Array.length t.locs) "history location count mismatch";
    for x = 0 to stored - 1 do
      t.locs.(x) <-
        Snap.Dec.option dec (fun () ->
            let write = Snap.Dec.option dec (fun () -> Vector_clock.decode dec ~size:clock_size) in
            let write_index = Snap.Dec.int dec in
            let read = ref None and read_index = ref [||] in
            (match
               Snap.Dec.option dec (fun () ->
                   let r = Vector_clock.decode dec ~size:clock_size in
                   let ri = Snap.Dec.int_array_n dec clock_size in
                   (r, ri))
             with
            | None -> ()
            | Some (r, ri) ->
              read := Some r;
              read_index := ri);
            { write; write_index; read = !read; read_index = !read_index })
    done;
    t
  
  let record_read t x ~tid ~epoch ~index =
    let s = state t x in
    let h =
      match s.read with
      | Some h -> h
      | None ->
        let h = Vector_clock.create t.clock_size in
        s.read <- Some h;
        s.read_index <- Array.make t.clock_size (-1);
        h
    in
    Vector_clock.set h tid epoch;
    s.read_index.(tid) <- index
end

module Djitp = struct
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
      let pw = History.stale_write d.history x ct ~tid:t ~epoch:(Vc.get ct t) in
      if pw >= 0 then declare d index t x ~with_write:true ~with_read:false ~prior:pw;
      History.record_read d.history x ~tid:t ~epoch:(Vc.get ct t) ~index
    | E.Write x ->
      m.Metrics.writes <- m.Metrics.writes + 1;
      m.Metrics.race_checks <- m.Metrics.race_checks + 2;
      let pr = History.stale_read d.history x ct ~tid:t ~epoch:(Vc.get ct t) in
      let pw = History.stale_write d.history x ct ~tid:t ~epoch:(Vc.get ct t) in
      if pr >= 0 || pw >= 0 then
        declare d index t x ~with_write:(pw >= 0) ~with_read:(pr >= 0)
          ~prior:(if pw >= 0 then pw else pr);
      History.record_write_vc d.history x ct ~tid:t ~epoch:(Vc.get ct t) ~index
    | E.Acquire l | E.Acquire_load l ->
      m.Metrics.acquires <- m.Metrics.acquires + 1;
      (match d.lock_clocks.(l) with
      | None -> ()
      | Some cl ->
        m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
        Vc.join ~into:ct cl)
    | E.Release l | E.Release_store l ->
      m.Metrics.releases <- m.Metrics.releases + 1;
      m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
      m.Metrics.releases_processed <- m.Metrics.releases_processed + 1;
      Vc.copy_into ~into:(lock_clock d l) ct;
      Vc.inc ct t
    | E.Fork u ->
      m.Metrics.releases <- m.Metrics.releases + 1;
      m.Metrics.releases_processed <- m.Metrics.releases_processed + 1;
      m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
      Vc.join ~into:d.clocks.(u) ct;
      Vc.inc ct t
    | E.Join u ->
      m.Metrics.acquires <- m.Metrics.acquires + 1;
      m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
      Vc.join ~into:ct d.clocks.(u)
  
  let result d =
    { Detector.engine = name; races = List.rev d.races; metrics = d.metrics }
  
  let races_rev d = d.races
  
  (* Accesses never touch thread clocks here, so sharding needs no replay. *)
  let note_sampled (_ : t) (_ : int) = ()
  
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
end

module Fasttrack = struct
  module E = Ft_trace.Event
  module Vc = Vector_clock
  
  (* Read history: [rvc = None] means epoch mode ([repoch]); otherwise shared
     mode with the full clock. *)
  type read_state = {
    mutable repoch : Epoch.t;
    mutable rindex : int;  (* trace index behind [repoch] *)
    mutable rvc : Vc.t option;
    mutable rvc_index : int array;  (* per-thread indices, allocated with [rvc] *)
  }
  
  type t = {
    nthreads : int;
    clocks : Vc.t array;
    lock_clocks : Vc.t option array;
    writes : Epoch.t array;              (* W_x *)
    w_index : int array;                 (* trace index behind W_x *)
    reads : read_state option array;     (* R_x, lazily allocated *)
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
    {
      nthreads = cfg.Detector.clock_size;
      clocks;
      lock_clocks = Array.make (Stdlib.max 1 cfg.Detector.nlocks) None;
      writes = Array.make (Stdlib.max 1 cfg.Detector.nlocs) Epoch.none;
      w_index = Array.make (Stdlib.max 1 cfg.Detector.nlocs) (-1);
      reads = Array.make (Stdlib.max 1 cfg.Detector.nlocs) None;
      metrics = Metrics.create ();
      races = [];
    }
  
  let declare d index tid x ~with_write ~with_read ~prior =
    d.metrics.Metrics.races <- d.metrics.Metrics.races + 1;
    let prior = if prior < 0 then None else Some prior in
    d.races <- Race.make ~index ~thread:tid ~loc:x ~with_write ~with_read ?prior () :: d.races
  
  let read_state d x =
    match d.reads.(x) with
    | Some r -> r
    | None ->
      let r = { repoch = Epoch.none; rindex = -1; rvc = None; rvc_index = [||] } in
      d.reads.(x) <- Some r;
      r
  
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
      let own = Epoch.make ~time:(Vc.get ct t) ~tid:t in
      let r = read_state d x in
      let same_epoch =
        match r.rvc with
        | None -> Epoch.equal r.repoch own
        | Some rv -> Vc.get rv t = Vc.get ct t
      in
      if not same_epoch then begin
        m.Metrics.race_checks <- m.Metrics.race_checks + 1;
        if not (Epoch.leq_vc d.writes.(x) ct) then
          declare d index t x ~with_write:true ~with_read:false ~prior:d.w_index.(x);
        match r.rvc with
        | Some rv ->
          Vc.set rv t (Vc.get ct t);
          r.rvc_index.(t) <- index
        | None ->
          if Epoch.equal r.repoch Epoch.none || Epoch.leq_vc r.repoch ct then begin
            (* exclusive read *)
            r.repoch <- own;
            r.rindex <- index
          end
          else begin
            (* inflate to shared mode *)
            let rv = Vc.create d.nthreads in
            let ri = Array.make d.nthreads (-1) in
            Vc.set rv (Epoch.tid r.repoch) (Epoch.time r.repoch);
            ri.(Epoch.tid r.repoch) <- r.rindex;
            Vc.set rv t (Vc.get ct t);
            ri.(t) <- index;
            r.rvc <- Some rv;
            r.rvc_index <- ri
          end
      end
    | E.Write x ->
      m.Metrics.writes <- m.Metrics.writes + 1;
      let own = Epoch.make ~time:(Vc.get ct t) ~tid:t in
      if not (Epoch.equal d.writes.(x) own) then begin
        m.Metrics.race_checks <- m.Metrics.race_checks + 2;
        let pw = if Epoch.leq_vc d.writes.(x) ct then -1 else d.w_index.(x) in
        let pr =
          match d.reads.(x) with
          | None -> -1
          | Some r -> (
            match r.rvc with
            | None -> if Epoch.leq_vc r.repoch ct then -1 else r.rindex
            | Some rv ->
              m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
              let rec stale i =
                if i >= Vc.size rv then -1
                else if Vc.get rv i > Vc.get ct i then r.rvc_index.(i)
                else stale (i + 1)
              in
              stale 0)
        in
        let with_write = pw >= 0 and with_read = pr >= 0 in
        if with_write || with_read then
          declare d index t x ~with_write ~with_read
            ~prior:(if with_write then pw else pr);
        d.writes.(x) <- own;
        d.w_index.(x) <- index;
        (* a successful shared-read check lets us fall back to epoch mode *)
        match d.reads.(x) with
        | Some r when r.rvc <> None && not with_read ->
          r.rvc <- None;
          r.repoch <- Epoch.none
        | Some _ | None -> ()
      end
    | E.Acquire l | E.Acquire_load l ->
      m.Metrics.acquires <- m.Metrics.acquires + 1;
      (match d.lock_clocks.(l) with
      | None -> ()
      | Some cl ->
        m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
        Vc.join ~into:ct cl)
    | E.Release l | E.Release_store l ->
      m.Metrics.releases <- m.Metrics.releases + 1;
      m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
      m.Metrics.releases_processed <- m.Metrics.releases_processed + 1;
      Vc.copy_into ~into:(lock_clock d l) ct;
      Vc.inc ct t
    | E.Fork u ->
      m.Metrics.releases <- m.Metrics.releases + 1;
      m.Metrics.releases_processed <- m.Metrics.releases_processed + 1;
      m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
      Vc.join ~into:d.clocks.(u) ct;
      Vc.inc ct t
    | E.Join u ->
      m.Metrics.acquires <- m.Metrics.acquires + 1;
      m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
      Vc.join ~into:ct d.clocks.(u)
  
  let result d =
    { Detector.engine = name; races = List.rev d.races; metrics = d.metrics }
  
  let races_rev d = d.races
  
  (* Accesses never touch thread clocks here, so sharding needs no replay. *)
  let note_sampled (_ : t) (_ : int) = ()
  
  let encode_read_state enc (r : read_state) =
    Epoch.encode enc r.repoch;
    Snap.Enc.int enc r.rindex;
    Snap.Enc.option enc
      (fun rv ->
        Vc.encode enc rv;
        Snap.Enc.int_array enc r.rvc_index)
      r.rvc
  
  let decode_read_state dec ~size =
    let repoch = Epoch.decode dec in
    let rindex = Snap.Dec.int dec in
    match
      Snap.Dec.option dec (fun () ->
          let rv = Vc.decode dec ~size in
          let ri = Snap.Dec.int_array_n dec size in
          (rv, ri))
    with
    | None -> { repoch; rindex; rvc = None; rvc_index = [||] }
    | Some (rv, ri) -> { repoch; rindex; rvc = Some rv; rvc_index = ri }
  
  let snapshot d =
    let enc = Snap.Enc.create () in
    Array.iter (Vc.encode enc) d.clocks;
    Array.iter (fun c -> Snap.Enc.option enc (Vc.encode enc) c) d.lock_clocks;
    Array.iter (Epoch.encode enc) d.writes;
    Snap.Enc.int_array enc d.w_index;
    Array.iter (fun r -> Snap.Enc.option enc (encode_read_state enc) r) d.reads;
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
    for x = 0 to Array.length d.writes - 1 do
      d.writes.(x) <- Epoch.decode dec
    done;
    let w_index = Snap.Dec.int_array_n dec (Array.length d.w_index) in
    Array.blit w_index 0 d.w_index 0 (Array.length w_index);
    for x = 0 to Array.length d.reads - 1 do
      d.reads.(x) <- Snap.Dec.option dec (fun () -> decode_read_state dec ~size:n)
    done;
    let metrics = Metrics.decode dec in
    d.races <- Race.decode_list dec;
    Snap.Dec.finish dec;
    { d with metrics }
end

module Sampling_naive = struct
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
        let pw = History.stale_write d.history x ct ~tid:t ~epoch in
        if pw >= 0 then declare d index t x ~with_write:true ~with_read:false ~prior:pw;
        History.record_read d.history x ~tid:t ~epoch ~index;
        d.pending.(t) <- true
      end
    | E.Write x ->
      m.Metrics.writes <- m.Metrics.writes + 1;
      if d.sample.Sampler.decide index e then begin
        m.Metrics.sampled_accesses <- m.Metrics.sampled_accesses + 1;
        m.Metrics.race_checks <- m.Metrics.race_checks + 2;
        let epoch = d.epochs.(t) in
        let pr = History.stale_read d.history x ct ~tid:t ~epoch in
        let pw = History.stale_write d.history x ct ~tid:t ~epoch in
        if pr >= 0 || pw >= 0 then
          declare d index t x ~with_write:(pw >= 0) ~with_read:(pr >= 0)
            ~prior:(if pw >= 0 then pw else pr);
        History.record_write_vc d.history x ct ~tid:t ~epoch ~index;
        d.pending.(t) <- true
      end
    | E.Acquire l | E.Acquire_load l ->
      m.Metrics.acquires <- m.Metrics.acquires + 1;
      (match d.lock_clocks.(l) with
      | None -> ()
      | Some cl ->
        m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
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
      Vc.join ~into:d.clocks.(u) ct
    | E.Join u ->
      m.Metrics.acquires <- m.Metrics.acquires + 1;
      m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
      (* the child's end-of-thread acts as its final release: flush its pending
         sampled epoch so the parent inherits the child's latest accesses *)
      flush_pending d u;
      Vc.join ~into:ct d.clocks.(u)
  
  let result d =
    { Detector.engine = name; races = List.rev d.races; metrics = d.metrics }
  
  let races_rev d = d.races
  
  (* Sharding hook: the thread-local half of a sampled access.  Idempotent
     until the next flush, exactly like the bit it sets. *)
  let note_sampled d t = d.pending.(t) <- true
  
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
end

module Sampling_uclock = struct
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
        let pw = History.stale_write d.history x ct ~tid:t ~epoch in
        if pw >= 0 then declare d index t x ~with_write:true ~with_read:false ~prior:pw;
        History.record_read d.history x ~tid:t ~epoch ~index;
        d.pending.(t) <- true
      end
    | E.Write x ->
      m.Metrics.writes <- m.Metrics.writes + 1;
      if d.sample.Sampler.decide index e then begin
        m.Metrics.sampled_accesses <- m.Metrics.sampled_accesses + 1;
        m.Metrics.race_checks <- m.Metrics.race_checks + 2;
        let epoch = d.epochs.(t) in
        let pr = History.stale_read d.history x ct ~tid:t ~epoch in
        let pw = History.stale_write d.history x ct ~tid:t ~epoch in
        if pr >= 0 || pw >= 0 then
          declare d index t x ~with_write:(pw >= 0) ~with_read:(pr >= 0)
            ~prior:(if pw >= 0 then pw else pr);
        History.record_write_vc d.history x ct ~tid:t ~epoch ~index;
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
        else absorb d t ~src_c:(Option.get d.lock_clocks.(l)) ~src_u:ul)
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
      Vc.join ~into:d.uclocks.(u) d.uclocks.(t);
      let changed = Vc.join_count ~into:d.clocks.(u) ct in
      if changed > 0 then Vc.set d.uclocks.(u) u (Vc.get d.uclocks.(u) u + changed)
    | E.Join u ->
      m.Metrics.acquires <- m.Metrics.acquires + 1;
      (* the child's end-of-thread acts as its final release: flush its pending
         sampled epoch so the parent inherits the child's latest accesses *)
      flush_pending d u;
      absorb d t ~src_c:d.clocks.(u) ~src_u:d.uclocks.(u)
  
  let result d =
    { Detector.engine = name; races = List.rev d.races; metrics = d.metrics }
  
  let races_rev d = d.races
  
  (* Sharding hook: the thread-local half of a sampled access.  Idempotent
     until the next flush, exactly like the bit it sets. *)
  let note_sampled d t = d.pending.(t) <- true
  
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
end

module Sampling_ordered_list = struct
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
    lock_own : int array;          (* releaser's own component at release time *)
    lock_lr : int array;           (* LR_ℓ, -1 = NIL *)
    lock_u : int array;            (* U_ℓ scalar *)
    history : History.t;
    metrics : Metrics.t;
    mutable races : Race.t list;
  }
  
  let name = "so"
  
  let create (cfg : Detector.config) =
    let n = cfg.Detector.clock_size in
    let nlocks = Stdlib.max 1 cfg.Detector.nlocks in
    {
      nthreads = n;
      sample = Sampler.fresh cfg.Detector.sampler;
      olists = Array.init n (fun _ -> Ol.create n);
      own = Array.make n 0;
      uclocks = Array.init n (fun _ -> Vc.create n);
      epochs = Array.make n 1;
      pending = Array.make n false;
      shared = Array.make n false;
      lock_ol = Array.make nlocks None;
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
  
  (* Ensure thread [t] owns its list before mutating it (lazy copy). *)
  let touch_olist d t =
    if d.shared.(t) then begin
      d.olists.(t) <- Ol.deep_copy d.olists.(t);
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
        let pw = History.ol_stale_write d.history x d.olists.(t) ~tid:t ~epoch in
        if pw >= 0 then declare d index t x ~with_write:true ~with_read:false ~prior:pw;
        History.record_read d.history x ~tid:t ~epoch ~index;
        d.pending.(t) <- true
      end
    | E.Write x ->
      m.Metrics.writes <- m.Metrics.writes + 1;
      if d.sample.Sampler.decide index e then begin
        m.Metrics.sampled_accesses <- m.Metrics.sampled_accesses + 1;
        m.Metrics.race_checks <- m.Metrics.race_checks + 2;
        let epoch = d.epochs.(t) in
        let ol = d.olists.(t) in
        let pr = History.ol_stale_read d.history x ol ~tid:t ~epoch in
        let pw = History.ol_stale_write d.history x ol ~tid:t ~epoch in
        if pr >= 0 || pw >= 0 then
          declare d index t x ~with_write:(pw >= 0) ~with_read:(pr >= 0)
            ~prior:(if pw >= 0 then pw else pr);
        History.record_write_ol d.history x ol ~tid:t ~epoch ~index;
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
      d.lock_ol.(l) <- Some d.olists.(t);
      d.lock_own.(l) <- d.own.(t);
      d.lock_lr.(l) <- t;
      d.lock_u.(l) <- Vc.get d.uclocks.(t) t;
      d.shared.(t) <- true;
      m.Metrics.shallow_copies <- m.Metrics.shallow_copies + 1
    | E.Fork u ->
      m.Metrics.releases <- m.Metrics.releases + 1;
      flush_pending d t;
      m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 2;
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
      Vc.join ~into:d.uclocks.(t) d.uclocks.(u);
      Ol.iter d.olists.(u) (fun t' v -> if t' <> t && t' <> u then absorb_entry d t t' v);
      if u <> t then absorb_entry d t u d.own.(u)
  
  let result d =
    { Detector.engine = name; races = List.rev d.races; metrics = d.metrics }
  
  let races_rev d = d.races
  
  (* Sharding hook: the thread-local half of a sampled access.  Idempotent
     until the next flush, exactly like the bit it sets. *)
  let note_sampled d t = d.pending.(t) <- true
  
  (* Snapshots must reproduce Alg 4's lazy-copy sharing structure, not just
     the list values: a release stores a *reference* to the releasing
     thread's list, and several locks may alias one list (or an old version a
     thread has since deep-copied away from).  Each lock's entry is encoded
     as a reference — to a thread's current list, or to an earlier lock's
     entry — and only as an inline list when it aliases neither, so restore
     rebuilds the exact physical sharing and the [shared] flags keep meaning
     what they meant. *)
  let tag_none = 0
  let tag_thread = 1
  let tag_lock = 2
  let tag_inline = 3
  
  let encode_lock_lists enc d =
    Array.iteri
      (fun l ol ->
        match ol with
        | None -> Snap.Enc.int enc tag_none
        | Some ol -> (
          let rec thread_alias t =
            if t >= Array.length d.olists then None
            else if d.olists.(t) == ol then Some t
            else thread_alias (t + 1)
          in
          let rec lock_alias l' =
            if l' >= l then None
            else
              match d.lock_ol.(l') with
              | Some ol' when ol' == ol -> Some l'
              | _ -> lock_alias (l' + 1)
          in
          match thread_alias 0 with
          | Some t ->
            Snap.Enc.int enc tag_thread;
            Snap.Enc.int enc t
          | None -> (
            match lock_alias 0 with
            | Some l' ->
              Snap.Enc.int enc tag_lock;
              Snap.Enc.int enc l'
            | None ->
              Snap.Enc.int enc tag_inline;
              Ol.encode enc ol)))
      d.lock_ol
  
  let decode_lock_lists dec d ~size =
    for l = 0 to Array.length d.lock_ol - 1 do
      d.lock_ol.(l) <-
        (match Snap.Dec.int dec with
        | t when t = tag_none -> None
        | t when t = tag_thread ->
          let tid = Snap.Dec.int dec in
          Snap.expect (tid >= 0 && tid < Array.length d.olists) "lock list thread out of range";
          Some d.olists.(tid)
        | t when t = tag_lock ->
          let l' = Snap.Dec.int dec in
          Snap.expect (l' >= 0 && l' < l) "lock list back-reference out of range";
          (match d.lock_ol.(l') with
          | Some _ as shared -> shared
          | None -> raise (Snap.Corrupt "lock list back-reference to empty slot"))
        | t when t = tag_inline -> Some (Ol.decode dec ~size)
        | t -> raise (Snap.Corrupt (Printf.sprintf "bad lock list tag %d" t)))
    done
  
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
end

module Sampling_lazy = struct
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
        let pw = History.stale_write d.history x d.clocks.(t) ~tid:t ~epoch in
        if pw >= 0 then declare d index t x ~with_write:true ~with_read:false ~prior:pw;
        History.record_read d.history x ~tid:t ~epoch ~index;
        d.pending.(t) <- true
      end
    | E.Write x ->
      m.Metrics.writes <- m.Metrics.writes + 1;
      if d.sample.Sampler.decide index e then begin
        m.Metrics.sampled_accesses <- m.Metrics.sampled_accesses + 1;
        m.Metrics.race_checks <- m.Metrics.race_checks + 2;
        let epoch = d.epochs.(t) in
        let ct = d.clocks.(t) in
        let pr = History.stale_read d.history x ct ~tid:t ~epoch in
        let pw = History.stale_write d.history x ct ~tid:t ~epoch in
        if pr >= 0 || pw >= 0 then
          declare d index t x ~with_write:(pw >= 0) ~with_read:(pr >= 0)
            ~prior:(if pw >= 0 then pw else pr);
        (* the externalized own component is authoritative, not the array *)
        History.record_write_vc d.history x ct ~tid:t ~epoch ~index;
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
  
  (* Like the ordered-list engine, releases publish a *reference* to the
     releasing thread's clock, and the [shared] flags only make sense if the
     restored detector reproduces that physical sharing.  Lock entries are
     encoded as references to a thread clock or an earlier lock's entry and
     inlined only when they alias neither. *)
  let tag_none = 0
  let tag_thread = 1
  let tag_lock = 2
  let tag_inline = 3
  
  let encode_lock_vcs enc d =
    Array.iteri
      (fun l vc ->
        match vc with
        | None -> Snap.Enc.int enc tag_none
        | Some vc -> (
          let rec thread_alias t =
            if t >= Array.length d.clocks then None
            else if d.clocks.(t) == vc then Some t
            else thread_alias (t + 1)
          in
          let rec lock_alias l' =
            if l' >= l then None
            else
              match d.lock_vc.(l') with
              | Some vc' when vc' == vc -> Some l'
              | _ -> lock_alias (l' + 1)
          in
          match thread_alias 0 with
          | Some t ->
            Snap.Enc.int enc tag_thread;
            Snap.Enc.int enc t
          | None -> (
            match lock_alias 0 with
            | Some l' ->
              Snap.Enc.int enc tag_lock;
              Snap.Enc.int enc l'
            | None ->
              Snap.Enc.int enc tag_inline;
              Vc.encode enc vc)))
      d.lock_vc
  
  let decode_lock_vcs dec d ~size =
    for l = 0 to Array.length d.lock_vc - 1 do
      d.lock_vc.(l) <-
        (match Snap.Dec.int dec with
        | t when t = tag_none -> None
        | t when t = tag_thread ->
          let tid = Snap.Dec.int dec in
          Snap.expect (tid >= 0 && tid < Array.length d.clocks) "lock clock thread out of range";
          Some d.clocks.(tid)
        | t when t = tag_lock ->
          let l' = Snap.Dec.int dec in
          Snap.expect (l' >= 0 && l' < l) "lock clock back-reference out of range";
          (match d.lock_vc.(l') with
          | Some _ as shared -> shared
          | None -> raise (Snap.Corrupt "lock clock back-reference to empty slot"))
        | t when t = tag_inline -> Some (Vc.decode dec ~size)
        | t -> raise (Snap.Corrupt (Printf.sprintf "bad lock clock tag %d" t)))
    done
  
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
end

module Sampling_uclock_noskip = struct
  include Sampling_uclock.Make (struct
    let name = "su-noskip"
    let release_skip = false
  end)
end

(* Straight-line transcription of the O(1)-samples algorithm: FastTrack's
   adaptive location state (last-write epoch, exclusive-read epoch, a full
   read clock only while genuinely read-shared) recording only sampled
   accesses, ordered by the Alg 2 sampling clocks — ⊥-initialized [C_t]
   with the local epoch [e_t] externalized and flushed at the first release
   after a sample.  Location state is option-boxed records as in the
   vendored Fasttrack above — no flat arrays, no slot pools, no probe
   tables — so the production engine's data-structure tricks are exactly
   what this module omits.  The same-epoch skips are kept: in this
   algorithm they are semantics (a skipped access neither re-checks nor
   re-records), not a cache. *)
module Sampling_o1 = struct
  module E = Ft_trace.Event
  module Vc = Vector_clock

  (* The uclock policy grafts Alg 3's freshness skips onto the same
     handlers; clock contents are untouched by the skips, so both variants
     must report byte-identical races. *)
  module Make (Policy : sig
    val name : string
    val uclock : bool
  end) =
  struct
  type read_state = {
    mutable repoch : Epoch.t;
    mutable rindex : int;
    mutable rvc : Vc.t option;  (* [Some] = shared mode *)
    mutable rvc_index : int array;
  }

  type t = {
    nthreads : int;
    sample : Sampler.instance;
    clocks : Vc.t array;           (* C_t, ⊥-initialized *)
    uclocks : Vc.t array;          (* U_t, uclock policy only *)
    epochs : int array;            (* e_t *)
    pending : bool array;
    lock_clocks : Vc.t option array;
    lock_uclocks : Vc.t option array;
    lock_lr : int array;
    writes : Epoch.t array;        (* W_x: last sampled write *)
    w_index : int array;
    reads : read_state option array;
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
      pending = Array.make n false;
      lock_clocks = Array.make nlocks None;
      lock_uclocks = Array.make nlocks None;
      lock_lr = Array.make nlocks (-1);
      writes = Array.make nlocs Epoch.none;
      w_index = Array.make nlocs (-1);
      reads = Array.make nlocs None;
      metrics = Metrics.create ();
      races = [];
    }

  let declare d index tid x ~with_write ~with_read ~prior =
    d.metrics.Metrics.races <- d.metrics.Metrics.races + 1;
    let prior = if prior < 0 then None else Some prior in
    d.races <- Race.make ~index ~thread:tid ~loc:x ~with_write ~with_read ?prior () :: d.races

  let read_state d x =
    match d.reads.(x) with
    | Some r -> r
    | None ->
      let r = { repoch = Epoch.none; rindex = -1; rvc = None; rvc_index = [||] } in
      d.reads.(x) <- Some r;
      r

  let lock_clock d l =
    match d.lock_clocks.(l) with
    | Some c -> c
    | None ->
      let c = Vc.create d.nthreads in
      d.lock_clocks.(l) <- Some c;
      c

  (* [c@u ⊑ C_t[t ↦ e_t]]: the clock's own component holds only the last
     flushed epoch, so same-thread ordering consults [e_t]. *)
  let leq_sub e ct ~t ~epoch =
    if Epoch.tid e = t then Epoch.time e <= epoch else Epoch.leq_vc e ct

  let flush_pending d t =
    if d.pending.(t) then begin
      Vc.set d.clocks.(t) t d.epochs.(t);
      if Policy.uclock then Vc.inc d.uclocks.(t) t;
      d.epochs.(t) <- d.epochs.(t) + 1;
      d.pending.(t) <- false
    end

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
        let r = read_state d x in
        let same_epoch =
          match r.rvc with
          | None -> Epoch.equal r.repoch own
          | Some rv -> Vc.get rv t = epoch
        in
        if same_epoch then
          m.Metrics.same_epoch_hits <- m.Metrics.same_epoch_hits + 1
        else begin
          m.Metrics.race_checks <- m.Metrics.race_checks + 1;
          if not (leq_sub d.writes.(x) ct ~t ~epoch) then
            declare d index t x ~with_write:true ~with_read:false ~prior:d.w_index.(x);
          match r.rvc with
          | Some rv ->
            Vc.set rv t epoch;
            r.rvc_index.(t) <- index
          | None ->
            if leq_sub r.repoch ct ~t ~epoch then begin
              r.repoch <- own;
              r.rindex <- index
            end
            else begin
              (* inflate to shared mode *)
              let rv = Vc.create d.nthreads in
              let ri = Array.make d.nthreads (-1) in
              Vc.set rv (Epoch.tid r.repoch) (Epoch.time r.repoch);
              ri.(Epoch.tid r.repoch) <- r.rindex;
              Vc.set rv t epoch;
              ri.(t) <- index;
              r.rvc <- Some rv;
              r.rvc_index <- ri
            end
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
          let pw = if leq_sub d.writes.(x) ct ~t ~epoch then -1 else d.w_index.(x) in
          let pr =
            match d.reads.(x) with
            | None -> -1
            | Some r -> (
              match r.rvc with
              | None -> if leq_sub r.repoch ct ~t ~epoch then -1 else r.rindex
              | Some rv ->
                m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
                let rec stale i =
                  if i >= Vc.size rv then -1
                  else if Vc.get rv i > (if i = t then epoch else Vc.get ct i)
                  then r.rvc_index.(i)
                  else stale (i + 1)
                in
                stale 0)
          in
          let with_write = pw >= 0 and with_read = pr >= 0 in
          if with_write || with_read then
            declare d index t x ~with_write ~with_read
              ~prior:(if with_write then pw else pr);
          d.writes.(x) <- own;
          d.w_index.(x) <- index;
          (* a successful shared-read check lets us fall back to epoch mode *)
          match d.reads.(x) with
          | Some r when r.rvc <> None && not with_read ->
            r.rvc <- None;
            r.repoch <- Epoch.none
          | Some _ | None -> ()
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
          Vc.join ~into:ct cl)
    | E.Release l ->
      m.Metrics.releases <- m.Metrics.releases + 1;
      flush_pending d t;
      if Policy.uclock then begin
        d.lock_lr.(l) <- t;
        match d.lock_uclocks.(l) with
        | Some ul when Vc.get ul t = Vc.get d.uclocks.(t) t -> ()
        | Some _ | None -> publish d t l
      end
      else begin
        m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
        m.Metrics.releases_processed <- m.Metrics.releases_processed + 1;
        Vc.copy_into ~into:(lock_clock d l) ct
      end
    | E.Release_store l ->
      (* non-monotonic lock clock: never skip the release side *)
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
      if Policy.uclock then begin
        m.Metrics.releases_processed <- m.Metrics.releases_processed + 1;
        m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 2;
        Vc.join ~into:d.uclocks.(u) d.uclocks.(t);
        let changed = Vc.join_count ~into:d.clocks.(u) ct in
        if changed > 0 then
          Vc.set d.uclocks.(u) u (Vc.get d.uclocks.(u) u + changed)
      end
      else begin
        m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
        Vc.join ~into:d.clocks.(u) ct
      end
    | E.Join u ->
      m.Metrics.acquires <- m.Metrics.acquires + 1;
      (* the child's end acts as its final release *)
      flush_pending d u;
      if Policy.uclock then absorb d t ~src_c:d.clocks.(u) ~src_u:d.uclocks.(u)
      else begin
        m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
        Vc.join ~into:ct d.clocks.(u)
      end

  let result d =
    { Detector.engine = name; races = List.rev d.races; metrics = d.metrics }

  let races_rev d = d.races

  let note_sampled d t = d.pending.(t) <- true

  let encode_read_state enc (r : read_state) =
    Epoch.encode enc r.repoch;
    Snap.Enc.int enc r.rindex;
    Snap.Enc.option enc
      (fun rv ->
        Vc.encode enc rv;
        Snap.Enc.int_array enc r.rvc_index)
      r.rvc

  let decode_read_state dec ~size =
    let repoch = Epoch.decode dec in
    let rindex = Snap.Dec.int dec in
    match
      Snap.Dec.option dec (fun () ->
          let rv = Vc.decode dec ~size in
          let ri = Snap.Dec.int_array_n dec size in
          (rv, ri))
    with
    | None -> { repoch; rindex; rvc = None; rvc_index = [||] }
    | Some (rv, ri) -> { repoch; rindex; rvc = Some rv; rvc_index = ri }

  let snapshot d =
    let enc = Snap.Enc.create () in
    d.sample.Sampler.save enc;
    Array.iter (Vc.encode enc) d.clocks;
    if Policy.uclock then Array.iter (Vc.encode enc) d.uclocks;
    Snap.Enc.int_array enc d.epochs;
    Snap.Enc.bool_array enc d.pending;
    Array.iter (fun c -> Snap.Enc.option enc (Vc.encode enc) c) d.lock_clocks;
    if Policy.uclock then begin
      Array.iter (fun c -> Snap.Enc.option enc (Vc.encode enc) c) d.lock_uclocks;
      Snap.Enc.int_array enc d.lock_lr
    end;
    Array.iter (Epoch.encode enc) d.writes;
    Snap.Enc.int_array enc d.w_index;
    Array.iter (fun r -> Snap.Enc.option enc (encode_read_state enc) r) d.reads;
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
      Array.blit lock_lr 0 d.lock_lr 0 (Array.length lock_lr)
    end;
    for x = 0 to Array.length d.writes - 1 do
      d.writes.(x) <- Epoch.decode dec
    done;
    let w_index = Snap.Dec.int_array_n dec (Array.length d.w_index) in
    Array.blit w_index 0 d.w_index 0 (Array.length w_index);
    for x = 0 to Array.length d.reads - 1 do
      d.reads.(x) <- Snap.Dec.option dec (fun () -> decode_read_state dec ~size:n)
    done;
    let metrics = Metrics.decode dec in
    d.races <- Race.decode_list dec;
    Snap.Dec.finish dec;
    { d with metrics }

  end

  include Make (struct
    let name = "o1"
    let uclock = false
  end)
end

module Sampling_o1_uclock = struct
  include Sampling_o1.Make (struct
    let name = "o1-u"
    let uclock = true
  end)
end

(* The seed grid: every engine the flat rebuild must stay byte-identical
   to.  Fasttrack_tc and Eraser are untouched by the overhaul, so the grid
   anchors on these seven — plus the two O(1)-samples references above,
   which the production engines must match report-for-report. *)
let detector : Ft_core.Engine.id -> Detector.packed option = function
  | Ft_core.Engine.Djit -> Some (module Djitp)
  | Ft_core.Engine.Fasttrack -> Some (module Fasttrack)
  | Ft_core.Engine.St -> Some (module Sampling_naive)
  | Ft_core.Engine.Su -> Some (module Sampling_uclock)
  | Ft_core.Engine.So -> Some (module Sampling_ordered_list)
  | Ft_core.Engine.Sl -> Some (module Sampling_lazy)
  | Ft_core.Engine.Sn -> Some (module Sampling_uclock_noskip)
  | Ft_core.Engine.O1 -> Some (module Sampling_o1)
  | Ft_core.Engine.O1u -> Some (module Sampling_o1_uclock)
  | Ft_core.Engine.Fasttrack_tc | Ft_core.Engine.Eraser -> None

let run id ?sampler ?clock_size trace =
  match detector id with
  | None -> invalid_arg "Ref_engines.run: engine not vendored"
  | Some p -> Detector.run p ?sampler ?clock_size trace
