module Trace = Ft_trace.Trace
module Trace_binary = Ft_trace.Trace_binary
module Event = Ft_trace.Event
module Detector = Ft_core.Detector
module Engine = Ft_core.Engine
module Sampler = Ft_core.Sampler
module Metrics = Ft_core.Metrics
module Race = Ft_core.Race
module Snap = Ft_core.Snap
module Checkpoint = Ft_snapshot.Checkpoint
module Serve = Ft_shard.Serve
module Evloop = Ft_shard.Evloop
module Admit = Ft_shard.Admit
module Cmsg = Ft_shard.Cmsg
module Front = Ft_shard.Front
module Clock = Ft_support.Clock
module Json = Ft_obs.Json
module Registry = Ft_obs.Registry
module Histogram = Ft_obs.Histogram
module Fault = Ft_fault.Fault

(* The cluster router: one process speaking the plain BATCH protocol to
   clients and the CBATCH protocol to K worker processes, each worker being
   a [racedet serve] daemon whose CBATCH session is one checker: an engine
   instance applied inline, with no domains and no supervisor.

   Soundness rests on the facts spelled out in DESIGN.md §6e–§6f:

   - the router is the {!Front}: it runs the sampler and the one sync
     engine, and sends the owner of a location ({!Chash}) only that
     location's sampled accesses, each behind the changes to its thread's
     view that worker has not seen — the routing of {!Ft_shard.Sharded}
     one level up; a worker's checker imports each [View] and checks each
     [Acc], so the checks read exactly what the unsharded engine reads,
     and the merged counters are the front's plus the workers';
   - workers checkpoint by size — once the CBATCH bytes applied since
     their last set reach that set's snapshot bytes — and report the set's
     cut in every ack ([OK <total> <durable>]), so a crashed worker is
     recovered by respawn → [SEQ] (= that cut) → replay of the log suffix
     since it, about one set's worth of bytes: O(state);
   - the router appends every client batch to a {!Wal} and fsyncs it
     {e before} acking, so a SIGKILLed router is recovered by
     [--resume]: replay the WAL (or a router-state checkpoint plus the
     WAL tail) through the same routing function, which deterministically
     rebuilds the front, the shipping state and every worker's log — then
     align each worker at its own durable [SEQ].  The state checkpoint
     follows the same size rule against WAL growth and keeps each worker's
     log from its durable cut, so that [SEQ] lands inside the retained
     log, and the live logs are trimmed to that cut as acks advance it;
   - a respawn is a worker's only recovery: a failed checker answers ERR
     and exits without writing a checkpoint.

   CBATCH sends are pipelined: each worker has an in-flight window of
   unacked CBATCHes ([config.window]); acks are drained opportunistically
   and the router only blocks when a window is full (backpressure) or a
   barrier needs every message durable (RESULT, migration, resize,
   graceful shutdown).  Per-worker streams stay strictly ordered, so the
   §6e argument is untouched — the window only overlaps {e waiting}.

   Rebuilding a worker's log — for a resize, or when a worker's SEQ fell
   behind the retained log — replays the event history (the WAL, or the
   in-memory event log without one) through a scratch front, sampler and
   shipping state.  The front is ring-independent; the shipping state is
   not, so the scratch one replaces the live one.

   The router itself never spawns domains (its front is a plain
   single-threaded detector instance): it forks worker processes, and
   forking a multi-domain OCaml 5 process is not safe. *)

type config = {
  listen : Serve.addr;
  workers : int;
  worker_shards : int;  (* must be 1: workers are inline checkers *)
  engine : Engine.id;
  sampler : Sampler.t;
  clock_size : int option;
  dir : string;  (* run directory: worker sockets, ready/pid files, checkpoints, WAL *)
  worker_tcp : bool;  (* workers listen on 127.0.0.1 ephemeral TCP ports *)
  checkpoint : bool;  (* size-driven worker and router-state checkpoints *)
  max_parked : int;
  backlog : int;
  ready_file : string option;
  heartbeat_s : float option;
  metrics_json : string option;
  max_respawns : int;  (* per-worker respawn budget before failing fast *)
  chaos : Fault.config option;
  window : int;  (* per-worker in-flight CBATCH window *)
  wal : bool;  (* append+fsync every batch before acking it *)
  resume : bool;  (* recover a previous session from dir's WAL *)
  state_every : int;  (* > 0: size-driven router-state checkpoints; 0 = off *)
}

let default_max_respawns = 8
let default_window = 8
let default_state_every = 16
let cbatch_chunk = 8192  (* messages per CBATCH *)
let spawn_deadline_s = 30.0

(* --- worker processes ----------------------------------------------------- *)

type worker = {
  id : int;
  mutable gen : int;  (* bumped on every respawn/migration: fresh socket names *)
  mutable pid : int;
  mutable fd : Unix.file_descr;
  mutable conn : Evloop.conn option;  (* the same fd, framed for async acks *)
  mutable acked : int;  (* messages the worker has durably acknowledged *)
  mutable pushed : int;  (* messages written to the socket (≥ acked) *)
  mutable durable : int;  (* cut of the worker's newest checkpoint set, as its acks report *)
  mutable resumed_at : int;  (* SEQ at the latest respawn/resume alignment *)
  inflight : int Queue.t;  (* end-seq of each unacked CBATCH, send order *)
  mutable log : Cmsg.check array;  (* retained routed history: [lbase, lbase+llen) *)
  mutable llen : int;
  mutable lbase : int;  (* messages before the retained window (a durable cut) *)
  mutable respawns : int;
}

let total w = w.lbase + w.llen

let make_worker id =
  {
    id;
    gen = 0;
    pid = -1;
    fd = Unix.stdin;
    conn = None;
    acked = 0;
    pushed = 0;
    durable = 0;
    resumed_at = 0;
    inflight = Queue.create ();
    log = [||];
    llen = 0;
    lbase = 0;
    respawns = 0;
  }

(* [arr] with [x] stored at [len], grown by doubling when full. *)
let grow_push arr len x =
  let arr =
    if len < Array.length arr then arr
    else begin
      let bigger = Array.make (Stdlib.max 64 (2 * len)) x in
      Array.blit arr 0 bigger 0 len;
      bigger
    end
  in
  arr.(len) <- x;
  arr

type telemetry = {
  reg : Registry.t;
  batches_total : Registry.counter;
  events_total : Registry.counter;
  parked_total : Registry.counter;
  duplicate_total : Registry.counter;
  mutable worker_messages : Registry.counter array;  (* grows on RESIZE +1 *)
  migrations_total : Registry.counter;
  respawns_total : Registry.counter;
  send_failures_total : Registry.counter;
  wal_appends_total : Registry.counter;
  wal_bytes_total : Registry.counter;
  replayed_total : Registry.counter;  (* messages re-sent after crash/resume *)
  log_rebuilds_total : Registry.counter;  (* expand_logs calls *)
  state_checkpoints_total : Registry.counter;
  state_checkpoint_bytes_total : Registry.counter;
  resizes_total : Registry.counter;
  handoff_bytes_total : Registry.counter;  (* CBATCH bytes streamed during a resize *)
  conns_active : Registry.gauge;
  uptime : Registry.gauge;
  ingest_ns : Histogram.t;
  wal_fsync_ns : Histogram.t;
  window_occupancy : Histogram.t;  (* in-flight CBATCHes observed at each send *)
  started_ns : int64;
}

let worker_counter_of reg k =
  Registry.counter reg "router_worker_messages_total"
    ~help:"Messages routed to each worker's sub-stream"
    ~labels:[ ("worker", string_of_int k) ]

let make_telemetry ~workers =
  let reg = Registry.create () in
  {
    reg;
    batches_total =
      Registry.counter reg "router_batches_ingested_total"
        ~help:"Client batches routed to the workers";
    events_total =
      Registry.counter reg "router_events_ingested_total" ~help:"Events routed";
    parked_total =
      Registry.counter reg "router_batches_parked_total"
        ~help:"Client batches parked for index-order ingestion";
    duplicate_total =
      Registry.counter reg "router_batches_duplicate_total"
        ~help:"Client batches fully inside the ingested prefix (idempotent resend)";
    worker_messages = Array.init workers (worker_counter_of reg);
    migrations_total =
      Registry.counter reg "router_migrations_total"
        ~help:"Graceful checkpoint migrations of a worker onto a fresh process";
    respawns_total =
      Registry.counter reg "router_worker_respawns_total"
        ~help:"Workers respawned after a crash or send failure";
    send_failures_total =
      Registry.counter reg "router_send_failures_total"
        ~help:"CBATCH sends that failed and triggered worker recovery";
    wal_appends_total =
      Registry.counter reg "router_wal_appends_total"
        ~help:"Records appended (and fsynced) to the routed-event WAL";
    wal_bytes_total =
      Registry.counter reg "router_wal_bytes_total" ~help:"Bytes appended to the WAL";
    replayed_total =
      Registry.counter reg "router_replayed_messages_total"
        ~help:"Log messages re-sent to workers after a crash, migration or resume";
    log_rebuilds_total =
      Registry.counter reg "router_log_rebuilds_total"
        ~help:"Full per-worker log rebuilds because a worker's SEQ fell behind the retained log";
    state_checkpoints_total =
      Registry.counter reg "router_state_checkpoints_total"
        ~help:"Router-state checkpoints written";
    state_checkpoint_bytes_total =
      Registry.counter reg "router_state_checkpoint_bytes_total"
        ~help:"Snapshot bytes in the router-state checkpoints written";
    resizes_total =
      Registry.counter reg "router_resizes_total" ~help:"Completed RESIZE operations";
    handoff_bytes_total =
      Registry.counter reg "router_resize_handoff_bytes_total"
        ~help:"CBATCH payload bytes streamed to fresh workers during resizes";
    conns_active =
      Registry.gauge reg "router_connections_active" ~help:"Open client connections";
    uptime = Registry.gauge reg "router_uptime_seconds" ~help:"Seconds since router start";
    ingest_ns =
      Registry.histogram reg "router_batch_ingest_ns"
        ~help:"Per-batch route + flush latency, nanoseconds";
    wal_fsync_ns =
      Registry.histogram reg "router_wal_fsync_ns"
        ~help:"WAL append fsync latency, nanoseconds";
    window_occupancy =
      Registry.histogram reg "router_window_occupancy"
        ~help:"In-flight CBATCHes per worker, observed at each send";
    started_ns = Clock.now_ns ();
  }

type state = {
  cfg : config;
  tel : telemetry;
  mutable ring : Chash.t;
  mutable workers : worker array;
  mutable epoch : int;  (* bumped on every resize: fresh checkpoint dirs *)
  mutable wal : Wal.t option;
  mutable state_off : int;  (* WAL offset the newest state checkpoint is anchored at *)
  mutable state_bytes : int;  (* that checkpoint's snapshot bytes *)
  mutable resizing : bool;  (* counts pump bytes as resize handoff *)
  mutable parent_fds : Unix.file_descr list;  (* closed in forked children *)
  mutable universe : (int * int * int) option;
  mutable clock_size : int;
  mutable front : Front.t option;  (* sampler, sync engine, tally *)
  mutable ship : Front.ship option;  (* per (worker, thread): the view it holds *)
  mutable history : Event.t array;  (* without the WAL: every routed event *)
  mutable admit : Admit.t;  (* next global event index, parked client batches *)
  mutable nevents : int;
  mutable quit : bool;
  mutable stop_reason : string;
  mutable failed : string option;
}

let ensure_worker_counters st k =
  let have = Array.length st.tel.worker_messages in
  if k > have then
    st.tel.worker_messages <-
      Array.init k (fun i ->
          if i < have then st.tel.worker_messages.(i) else worker_counter_of st.tel.reg i)

let worker_sock st w = Filename.concat st.cfg.dir (Printf.sprintf "worker-%d-g%d.sock" w.id w.gen)
let worker_addr_file st w =
  Filename.concat st.cfg.dir (Printf.sprintf "worker-%d-g%d.addr" w.id w.gen)
let worker_pid_file st w = Filename.concat st.cfg.dir (Printf.sprintf "worker-%d.pid" w.id)

let worker_ckpt_dir st w =
  Filename.concat st.cfg.dir
    (if st.epoch = 0 then Printf.sprintf "ckpt-%d" w.id
     else Printf.sprintf "ckpt-%d-e%d" w.id st.epoch)

let state_ckpt_path dir = Filename.concat dir "router-state.ftc"

let write_pid_file path pid =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (string_of_int pid ^ "\n");
  close_out oc;
  Sys.rename tmp path

(* Fork one worker process running the serve daemon.  [resume]
   points it at its checkpoint directory; a missing or torn checkpoint set
   degrades to a fresh start there, which the router covers by replaying
   the full log (SEQ comes back 0). *)
let spawn_worker st w ~resume =
  let addr_file = worker_addr_file st w in
  (try Sys.remove addr_file with Sys_error _ -> ());
  let listen =
    if st.cfg.worker_tcp then Serve.Tcp ("127.0.0.1", 0) else Serve.Unix_path (worker_sock st w)
  in
  let ckpt =
    if st.cfg.checkpoint then begin
      let d = worker_ckpt_dir st w in
      (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Some d
    end
    else None
  in
  let scfg =
    {
      Serve.listen;
      engine = st.cfg.engine;
      shards = 1;
      sampler = st.cfg.sampler;
      clock_size = st.cfg.clock_size;
      checkpoint_dir = ckpt;
      (* BATCH-mode only: a CBATCH worker checkpoints by size (Serve) *)
      checkpoint_every = Serve.default_checkpoint_every;
      resume_dir = (if resume then ckpt else None);
      max_parked = Serve.default_max_parked;
      backlog = Serve.default_backlog;
      ready_file = Some addr_file;
      heartbeat_s = None;
      metrics_json = None;
      max_restarts = Serve.default_max_restarts;
      chaos = None;  (* an armed schedule is inherited through the fork *)
    }
  in
  match Unix.fork () with
  | 0 ->
    (* the child must not hold the router's listener or its peers' sockets *)
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) st.parent_fds;
    (try
       Serve.run scfg;
       exit 0
     with e ->
       Printf.eprintf "racedet route: worker %d died: %s\n%!" w.id (Printexc.to_string e);
       exit 1)
  | pid ->
    w.pid <- pid;
    write_pid_file (worker_pid_file st w) pid;
    (* wait for the ready file, checking the child is still alive *)
    let deadline = Clock.now_s () +. spawn_deadline_s in
    let rec await () =
      if Sys.file_exists addr_file then
        match Serve.read_addr_file addr_file with
        | Ok addr -> addr
        | Error msg -> failwith (Printf.sprintf "worker %d ready file: %s" w.id msg)
      else begin
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith (Printf.sprintf "worker %d exited before becoming ready" w.id)
        | exception Unix.Unix_error _ -> ());
        if Clock.now_s () > deadline then
          failwith (Printf.sprintf "worker %d not ready after %.0fs" w.id spawn_deadline_s);
        Unix.sleepf 0.01;
        await ()
      end
    in
    let addr = await () in
    let fd = Serve.connect ~deadline_s:spawn_deadline_s ~seed:(0x40 + w.id) addr in
    w.fd <- fd;
    w.conn <- Some (Evloop.make_conn fd);
    st.parent_fds <- fd :: st.parent_fds

let close_worker_fd st w =
  st.parent_fds <- List.filter (fun fd -> fd != w.fd) st.parent_fds;
  w.conn <- None;
  try Unix.close w.fd with Unix.Unix_error _ -> ()

(* The crash path: whatever state the worker is in, close, SIGKILL, reap. *)
let kill_worker st w =
  close_worker_fd st w;
  (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ()

exception Router_failed of string

let fail st msg =
  st.failed <- Some msg;
  st.stop_reason <- "worker failure";
  st.quit <- true;
  raise (Router_failed msg)

let universe_of st =
  match st.universe with
  | Some u -> u
  | None -> failwith "router: no universe yet"

(* --- routing --------------------------------------------------------------- *)

(* {!Ft_shard.Sharded.handle} one level up: the front takes every event,
   and an access it must check goes to its owner behind the view changes
   that worker has not seen (DESIGN.md §6e).  Live routing, WAL replay and
   log rebuilds share this function: only [append] differs. *)
let route_core ~ring ~front ~ship ~append i (e : Event.t) =
  if Front.admit front i e then
    match e.Event.op with
    | Event.Read x | Event.Write x ->
      let o = Chash.owner ring x in
      (match Front.ship ship front o e.Event.thread with
      | Some (idx, vals) -> append o (Cmsg.View (e.Event.thread, idx, vals))
      | None -> ());
      append o (Cmsg.Acc (i, e))
    | _ -> ()

let route st i (e : Event.t) =
  route_core ~ring:st.ring ~front:(Option.get st.front) ~ship:(Option.get st.ship)
    ~append:(fun k m ->
      let w = st.workers.(k) in
      w.log <- grow_push w.log w.llen m;
      w.llen <- w.llen + 1;
      Registry.incr st.tel.worker_messages.(k))
    i e;
  if st.wal = None then st.history <- grow_push st.history st.nevents e;
  st.nevents <- st.nevents + 1

(* The admitter's feeder for the client batch [evs] based at [base]. *)
let route_events st base (evs : Event.t array) first =
  for i = first to Array.length evs - 1 do
    route st (base + i) evs.(i)
  done

(* --- event-history rebuilds ------------------------------------------------ *)

(* The full routed prefix [0, expected) in index order: the WAL's Events
   records (duplicates harmlessly overwrite), or without the WAL the
   in-memory event log. *)
let history_events st =
  let n = Admit.expected st.admit in
  match st.wal with
  | None -> Array.sub st.history 0 n
  | Some _ -> (
    let evs = Array.make n None in
    (match Wal.replay (Wal.path ~dir:st.cfg.dir) with
    | Error msg -> fail st ("event-history rebuild: " ^ msg)
    | Ok (records, _) ->
      List.iter
        (fun (r, _) ->
          match r with
          | Wal.Events (base, arr) ->
            Array.iteri
              (fun j e ->
                let i = base + j in
                if i >= 0 && i < n then evs.(i) <- Some e)
              arr
          | Wal.Session _ | Wal.Resize _ -> ())
        records);
    Array.mapi
      (fun i -> function
        | Some e -> e
        | None -> fail st (Printf.sprintf "event %d missing from the WAL" i))
      evs)

let detector_config st (nthreads, nlocks, nlocs) =
  let clock_size =
    match st.cfg.clock_size with None -> nthreads | Some s -> Stdlib.max s nthreads
  in
  st.clock_size <- clock_size;
  { Detector.nthreads; nlocks; nlocs; clock_size; sampler = st.cfg.sampler }

(* Re-route the whole history against [ring] through a scratch front:
   same strategy, same queries, same order, so it makes the live front's
   decisions and reaches its state.  The result is the per-worker logs
   this ring would have produced had it been in place from event 0, and
   the shipping state that goes with them. *)
let rebuild_logs st ~ring ~nworkers =
  let history = history_events st in
  let config = detector_config st (universe_of st) in
  let front = Front.create ~engine:st.cfg.engine config in
  let ship = Front.ship_create front ~dests:nworkers ~nthreads:config.Detector.nthreads in
  let logs = Array.make nworkers [||] in
  let lens = Array.make nworkers 0 in
  let append k m =
    logs.(k) <- grow_push logs.(k) lens.(k) m;
    lens.(k) <- lens.(k) + 1
  in
  Array.iteri (route_core ~ring ~front ~ship ~append) history;
  (logs, lens, ship)

(* Re-materialize full logs (lbase = 0) for the current ring — the escape
   hatch when a worker's durable SEQ fell behind the retained suffix. *)
let expand_logs st =
  Registry.incr st.tel.log_rebuilds_total;
  let nworkers = Array.length st.workers in
  let logs, lens, ship = rebuild_logs st ~ring:st.ring ~nworkers in
  Array.iteri
    (fun k w ->
      if lens.(k) <> total w then
        fail st
          (Printf.sprintf "worker %d: rebuilt log has %d messages, retained state says %d"
             w.id lens.(k) (total w));
      w.log <- logs.(k);
      w.llen <- lens.(k);
      w.lbase <- 0)
    st.workers;
  st.ship <- Some ship

(* A (re)spawned worker resumed from its newest checkpoint set (or started
   fresh), so its SEQ is both its stream position and its durable cut:
   replay the log from there.  A SEQ behind even the retained log suffix
   re-materializes full logs out of the WAL. *)
let realign st w seq =
  w.resumed_at <- seq;
  if seq < w.lbase then expand_logs st;
  let pos = Stdlib.min seq (total w) in
  Registry.add st.tel.replayed_total (total w - pos);
  w.acked <- pos;
  w.pushed <- pos;
  w.durable <- pos

(* --- pipelined sends, recovery and migration ------------------------------- *)

exception Worker_suspect of string

(* Drop the log below the worker's durable cut: a respawned worker's SEQ
   lands there or later, and the state checkpoint keeps the log from there
   too.  Shifting only once the dead prefix is half the array keeps the
   copying amortized O(1) per message. *)
let trim_log w =
  let dead = Stdlib.min w.durable w.acked - w.lbase in
  if dead > 0 && 2 * dead >= Array.length w.log then begin
    w.log <- Array.sub w.log dead (w.llen - dead);
    w.llen <- w.llen - dead;
    w.lbase <- w.lbase + dead
  end

(* One "OK <total> <durable>" per in-flight CBATCH, in send order; anything
   else — an ERR, an unsolicited line, a reply regressing below the window
   we sent — marks the worker suspect and recovery takes over. *)
let ack_line w line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "OK"; t; d ] -> (
    match (int_of_string_opt t, int_of_string_opt d, Queue.take_opt w.inflight) with
    | Some v, Some dur, Some endseq when v >= endseq && dur >= 0 && dur <= v ->
      w.acked <- endseq;
      w.durable <- dur;
      trim_log w
    | _ -> raise (Worker_suspect (Printf.sprintf "worker %d: unexpected ack %S" w.id line)))
  | _ -> raise (Worker_suspect (Printf.sprintf "worker %d: %S instead of an ack" w.id line))

let service_acks w ~timeout_s =
  match w.conn with
  | None -> raise (Worker_suspect (Printf.sprintf "worker %d: no connection" w.id))
  | Some conn ->
    (match Evloop.feed ~timeout_s conn with
    | `Eof -> raise (Worker_suspect (Printf.sprintf "worker %d: connection closed" w.id))
    | `Timeout | `Data _ -> ());
    Evloop.process ~on_line:(fun _ line -> ack_line w line) conn

(* Block until at least one in-flight CBATCH is acked — the backpressure
   point of the pipelined window. *)
let wait_for_ack w =
  let before = Queue.length w.inflight in
  if before > 0 then begin
    let deadline = Clock.now_s () +. spawn_deadline_s in
    while Queue.length w.inflight >= before do
      service_acks w ~timeout_s:0.05;
      if Queue.length w.inflight >= before && Clock.now_s () > deadline then
        raise (Worker_suspect (Printf.sprintf "worker %d: ack timeout" w.id))
    done
  end

let push_chunk st w =
  let nthreads, nlocks, nlocs = universe_of st in
  let len = Stdlib.min cbatch_chunk (total w - w.pushed) in
  let payload = Cmsg.encode ~nthreads ~nlocks ~nlocs w.log ~off:(w.pushed - w.lbase) ~len in
  Fault.point ~lane:w.id ~supports:[ Fault.Exn; Fault.Delay ] "router.send";
  Serve.send_cbatch_nowait w.fd ~seq:w.pushed payload;
  w.pushed <- w.pushed + len;
  Queue.add w.pushed w.inflight;
  Histogram.observe st.tel.window_occupancy (Queue.length w.inflight);
  if st.resizing then Registry.add st.tel.handoff_bytes_total (String.length payload)

(* Stream the worker's unsent log suffix through the in-flight window;
   with [drain], additionally wait until every message is acked (the
   barrier before RESULT/SHUTDOWN/migration).  Any failure — send error,
   ack protocol violation, injected fault — recovers the worker. *)
let rec pump ?(drain = false) st w =
  match
    service_acks w ~timeout_s:0.0;
    while w.pushed < total w do
      if Queue.length w.inflight >= Stdlib.max 1 st.cfg.window then wait_for_ack w
      else push_chunk st w
    done;
    if drain then while not (Queue.is_empty w.inflight) do wait_for_ack w done
  with
  | () -> ()
  | exception Worker_suspect msg ->
    Printf.eprintf "racedet route: %s\n%!" msg;
    Registry.incr st.tel.send_failures_total;
    recover_worker ~drain st w
  | exception Fault.Injected _ ->
    Registry.incr st.tel.send_failures_total;
    recover_worker ~drain st w
  | exception Unix.Unix_error _ ->
    Registry.incr st.tel.send_failures_total;
    recover_worker ~drain st w

(* Crash recovery: whatever state the worker is in, kill it, respawn it
   against its checkpoint directory, ask where its durable stream stands
   and replay the rest of the log.  The worker's size-driven cadence
   bounds that replay to about one checkpoint set's worth of bytes. *)
and recover_worker ?(drain = false) st w =
  kill_worker st w;
  w.respawns <- w.respawns + 1;
  Registry.incr st.tel.respawns_total;
  if w.respawns > st.cfg.max_respawns then
    fail st
      (Printf.sprintf "worker %d exceeded its respawn budget (%d)" w.id st.cfg.max_respawns);
  w.gen <- w.gen + 1;
  Queue.clear w.inflight;
  Printf.eprintf "racedet route: recovering worker %d (respawn %d, gen %d)\n%!" w.id
    w.respawns w.gen;
  spawn_worker st w ~resume:true;
  align_worker ~drain st w ~after:"after respawn";
  pump ~drain st w

(* A (re)spawned worker is asked where its durable stream stands, and the
   log is replayed from there; a worker that cannot say is recovered. *)
and align_worker ?(drain = false) st w ~after =
  match Serve.fetch_seq w.fd with
  | Ok seq -> realign st w seq
  | Error msg ->
    Printf.eprintf "racedet route: worker %d SEQ %s failed (%s)\n%!" w.id after msg;
    recover_worker ~drain st w

(* SHUTDOWN (the worker writes its final checkpoint set), then close and
   reap it. *)
let retire_worker st w ~why =
  (match Serve.shutdown w.fd with
  | Ok () -> ()
  | Error msg ->
    Printf.eprintf "racedet route: worker %d SHUTDOWN for %s failed (%s)\n%!" w.id why msg);
  close_worker_fd st w;
  try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ()

(* Graceful migration: drain, retire, then hand the [.ftc]s to a fresh
   process and resume it at the same stream position.  Without
   checkpointing this degrades to a full-log replay — slower, still
   exact. *)
let migrate_worker st w =
  pump ~drain:true st w;
  retire_worker st w ~why:"migration";
  w.gen <- w.gen + 1;
  Queue.clear w.inflight;
  Registry.incr st.tel.migrations_total;
  Printf.eprintf "racedet route: migrating worker %d to gen %d\n%!" w.id w.gen;
  spawn_worker st w ~resume:true;
  align_worker ~drain:true st w ~after:"after migration";
  pump ~drain:true st w

(* Pump every worker, visiting the chaos points first so a schedule can
   kill or migrate a worker between any two client batches. *)
let flush_workers ?(drain = false) st =
  Array.iter
    (fun w ->
      (match Fault.point ~lane:w.id ~supports:[ Fault.Exn ] "cluster.worker_crash" with
      | () -> ()
      | exception Fault.Injected _ ->
        Printf.eprintf "racedet route: chaos killed worker %d\n%!" w.id;
        Registry.incr st.tel.send_failures_total;
        recover_worker ~drain st w);
      (match Fault.point ~lane:w.id ~supports:[ Fault.Exn ] "cluster.migrate" with
      | () -> ()
      | exception Fault.Injected _ -> migrate_worker st w);
      pump ~drain st w)
    st.workers

(* --- WAL and router-state checkpoints -------------------------------------- *)

exception Wal_failed of string

(* Append + fsync one record; the ack a client is waiting on rides on this
   durability point.  Any failure (including an injected torn write at
   [router.wal_write]) rolls the file back to the last record boundary and
   refuses the batch — an un-refused batch MUST be in the log. *)
let wal_append st record =
  match st.wal with
  | None -> ()
  | Some wal -> (
    match
      let n = Wal.append wal record in
      let t0 = Clock.now_ns () in
      Wal.sync wal;
      Histogram.observe st.tel.wal_fsync_ns (Int64.to_int (Int64.sub (Clock.now_ns ()) t0));
      Registry.incr st.tel.wal_appends_total;
      Registry.add st.tel.wal_bytes_total n
    with
    | () -> ()
    | exception e ->
      (try Wal.rollback wal with _ -> ());
      raise (Wal_failed (Printexc.to_string e)))

(* [restored]: the front and shipping state a state checkpoint held. *)
let init_universe st ((nthreads, _, _) as u) ~restored =
  let front, ship =
    match restored with
    | Some fs -> fs
    | None ->
      let front = Front.create ~engine:st.cfg.engine (detector_config st u) in
      (front, Front.ship_create front ~dests:(Array.length st.workers) ~nthreads)
  in
  st.front <- Some front;
  st.ship <- Some ship;
  st.universe <- Some u

let ensure_cluster st ((nthreads, nlocks, nlocs) as u) =
  match st.universe with
  | Some u' ->
    if u' = u then Ok () else Error "batch universe differs from the session's"
  | None ->
    (* the Session record goes in first: if its append fails the universe
       stays unset and the client's retry re-runs this initialization *)
    wal_append st
      (Wal.Session
         {
           nthreads;
           nlocks;
           nlocs;
           engine = Engine.name st.cfg.engine;
           sampler = Sampler.name st.cfg.sampler;
           workers = Array.length st.workers;
         });
    init_universe st u ~restored:None;
    Ok ()

(* Router-state checkpoints open with a format tag below any worker count:
   the layout before the front (worker count first) fails to decode and
   resume replays the whole WAL instead of misreading it. *)
let state_format = -1

(* Router-state checkpoint: everything replay would otherwise recompute
   from the whole WAL — the front (sampler, sync engine, tally), the
   shipping state, and each worker's log suffix from its durable cut (its
   newest checkpoint set, which is where a resumed worker's SEQ lands) —
   anchored at the current WAL offset so resume only replays the tail.
   Only taken when nothing is parked: a parked batch lives in the WAL
   prefix a tail-replay would skip.  Failure is a warning, never an error
   — the WAL alone is always sufficient. *)
let write_state_checkpoint st =
  match (st.universe, st.front, st.ship, st.wal) with
  | Some (nthreads, nlocks, nlocs), Some front, Some ship, Some wal
    when st.cfg.checkpoint && Admit.parked st.admit = 0 -> (
    try
      let enc = Snap.Enc.create () in
      Snap.Enc.int enc state_format;
      Snap.Enc.int enc (Array.length st.workers);
      Snap.Enc.int enc st.epoch;
      Snap.Enc.int enc st.nevents;
      Front.save enc front;
      Front.ship_save enc ship;
      Array.iter
        (fun w ->
          (* [lbase] is itself an older durable cut of this worker *)
          let cut = Stdlib.max w.lbase w.durable in
          Snap.Enc.int enc cut;
          Snap.Enc.int enc (total w);
          Snap.Enc.string enc
            (Cmsg.encode ~nthreads ~nlocks ~nlocs w.log ~off:(cut - w.lbase)
               ~len:(total w - cut)))
        st.workers;
      let meta =
        {
          Checkpoint.engine = st.cfg.engine;
          sampler = Sampler.name st.cfg.sampler;
          nthreads;
          nlocks;
          nlocs;
          clock_size = st.clock_size;
          next_index = Admit.expected st.admit;
          byte_offset = Wal.offset wal;
        }
      in
      let snap = Snap.Enc.to_snap enc in
      Checkpoint.save (state_ckpt_path st.cfg.dir) { Checkpoint.meta; detector = snap };
      st.state_off <- Wal.offset wal;
      st.state_bytes <- String.length snap;
      Registry.incr st.tel.state_checkpoints_total;
      Registry.add st.tel.state_checkpoint_bytes_total (String.length snap)
    with e ->
      Printf.eprintf "racedet route: state checkpoint failed (%s); WAL still authoritative\n%!"
        (Printexc.to_string e))
  | _ -> ()

(* Size-driven cadence: checkpoint once the WAL has grown by at least the
   newest checkpoint's size since it was anchored.  Checkpoint work is then
   amortized O(1) per WAL byte, and a resume replays at most about one
   checkpoint's worth of WAL tail. *)
let maybe_state_checkpoint st =
  match st.wal with
  | Some wal when st.cfg.state_every > 0 && Wal.offset wal - st.state_off >= st.state_bytes ->
    write_state_checkpoint st
  | _ -> ()

(* --- resume ----------------------------------------------------------------- *)

(* Admission of live ingestion, minus the WAL append and the ack —
   replaying a WAL record must route exactly what routing the original
   batch routed.  A record ahead of the cursor was a parked batch, acked,
   so it parks again whatever the bound. *)
let ingest_replay st base evs =
  let len = Array.length evs and f = route_events st base evs in
  match Admit.verdict st.admit base with
  | Admit.Due -> Admit.feed st.admit ~base ~len f
  | Admit.Park | Admit.Refuse -> Admit.park st.admit ~base ~len f

(* Try to restore the front, the shipping state and the worker suffixes
   from the router-state checkpoint.  Returns the WAL byte offset it was
   anchored at; any mismatch or corruption — or a Resize record past that
   anchor, at [resized_at], which invalidates the per-worker logs —
   degrades to full WAL replay. *)
let try_restore_state st ~k_final ~resized_at =
  let path = state_ckpt_path st.cfg.dir in
  let ignoring why =
    Printf.eprintf "racedet route: ignoring state checkpoint (%s)\n%!" why;
    None
  in
  if (not st.cfg.checkpoint) || not (Sys.file_exists path) then None
  else
    match Checkpoint.load path with
    | Error msg -> ignoring msg
    | Ok { Checkpoint.meta; detector = payload } -> (
      if meta.Checkpoint.engine <> st.cfg.engine
         || meta.Checkpoint.sampler <> Sampler.name st.cfg.sampler
      then ignoring "engine/sampler mismatch"
      else if meta.Checkpoint.byte_offset < resized_at then ignoring "it predates a resize"
      else
        try
          let u = (meta.Checkpoint.nthreads, meta.Checkpoint.nlocks, meta.Checkpoint.nlocs) in
          let dec = Snap.Dec.of_snap payload in
          Snap.expect (Snap.Dec.int dec = state_format) "state checkpoint predates the front";
          let k = Snap.Dec.int dec in
          Snap.expect (k = k_final) "state checkpoint worker count";
          let epoch = Snap.Dec.int dec in
          let nevents = Snap.Dec.int dec in
          let config = detector_config st u in
          let front = Front.load dec ~engine:st.cfg.engine config in
          let ship = Front.ship_load dec front ~dests:k ~nthreads:meta.Checkpoint.nthreads in
          let per_worker =
            Array.init k (fun _ ->
                let cut = Snap.Dec.int dec in
                let tot = Snap.Dec.int dec in
                let blob = Snap.Dec.string dec in
                match Cmsg.decode blob with
                | Ok (u', msgs) ->
                  Snap.expect (u' = u) "state checkpoint worker universe";
                  Snap.expect (Array.length msgs = tot - cut)
                    "state checkpoint worker suffix length";
                  (cut, tot, msgs)
                | Error msg -> raise (Snap.Corrupt msg))
          in
          Snap.Dec.finish dec;
          (* commit *)
          init_universe st u ~restored:(Some (front, ship));
          st.epoch <- epoch;
          st.nevents <- nevents;
          st.admit <- Admit.create ~expected:meta.Checkpoint.next_index st.cfg.max_parked;
          Array.iteri
            (fun i w ->
              let cut, tot, msgs = per_worker.(i) in
              w.lbase <- cut;
              w.log <- msgs;
              w.llen <- tot - cut;
              w.acked <- cut;
              w.pushed <- cut;
              w.durable <- cut)
            st.workers;
          st.state_off <- meta.Checkpoint.byte_offset;
          st.state_bytes <- String.length payload;
          Some meta.Checkpoint.byte_offset
        with Snap.Corrupt msg -> ignoring msg)

(* A previous router was SIGKILLed: its workers are orphans still holding
   their sockets and checkpoint directories.  Kill them by pid file before
   spawning replacements on the same names. *)
let kill_stale_workers dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | files ->
    let killed = ref 0 in
    Array.iter
      (fun f ->
        if
          String.length f > 7
          && String.sub f 0 7 = "worker-"
          && Filename.check_suffix f ".pid"
        then begin
          let path = Filename.concat dir f in
          (match
             let ic = open_in path in
             let line = try input_line ic with End_of_file -> "" in
             close_in_noerr ic;
             int_of_string_opt (String.trim line)
           with
          | Some pid when pid > 0 -> (
            match Unix.kill pid Sys.sigkill with
            | () -> incr killed
            | exception Unix.Unix_error _ -> ())
          | _ | (exception Sys_error _) -> ());
          try Sys.remove path with Sys_error _ -> ()
        end)
      files;
    if !killed > 0 then begin
      Printf.eprintf "racedet route: killed %d stale worker(s) from a previous run\n%!"
        !killed;
      (* give the kernel a beat to tear their listeners down before fresh
         workers probe the same socket paths *)
      Unix.sleepf 0.05
    end

(* Rebuild the pre-crash router state from the run directory: prefer the
   state checkpoint + WAL tail, fall back to replaying the whole WAL.  The
   final ring size is the Session's worker count overridden by the last
   Resize record.  Workers are spawned by the caller afterwards and
   aligned at their own durable SEQs. *)
let resume_session st =
  let records, _len =
    match Wal.replay (Wal.path ~dir:st.cfg.dir) with
    | Ok r -> r
    | Error msg -> failwith ("racedet route --resume: " ^ msg)
  in
  match records with
  | [] -> false
  | (Wal.Session { nthreads; nlocks; nlocs; engine; sampler; workers }, _) :: _ ->
    if engine <> Engine.name st.cfg.engine then
      failwith
        (Printf.sprintf "racedet route --resume: WAL session used engine %s, not %s"
           engine (Engine.name st.cfg.engine));
    if sampler <> Sampler.name st.cfg.sampler then
      failwith
        (Printf.sprintf "racedet route --resume: WAL session used sampler %s, not %s"
           sampler (Sampler.name st.cfg.sampler));
    let k_final, epoch, resized_at =
      List.fold_left
        (fun (k, ep, at) (r, e) ->
          match r with Wal.Resize k' -> (k', ep + 1, e) | _ -> (k, ep, at))
        (workers, 0, 0) records
    in
    if st.cfg.workers <> k_final then
      Printf.eprintf
        "racedet route: resuming with %d worker(s) from the WAL (ignoring --workers %d)\n%!"
        k_final st.cfg.workers;
    st.epoch <- epoch;
    st.ring <- Chash.create ~workers:k_final;
    st.workers <- Array.init k_final make_worker;
    ensure_worker_counters st k_final;
    (match try_restore_state st ~k_final ~resized_at with
    | Some off ->
      (* tail replay: records fully past the checkpoint's anchor *)
      List.iter
        (fun (r, e) ->
          match r with
          | Wal.Events (base, evs) when e > off -> ingest_replay st base evs
          | _ -> ())
        records
    | None ->
      init_universe st (nthreads, nlocks, nlocs) ~restored:None;
      List.iter
        (fun (r, _) ->
          match r with
          | Wal.Events (base, evs) -> ingest_replay st base evs
          | Wal.Session _ | Wal.Resize _ -> ())
        records);
    true
  | _ -> failwith "racedet route --resume: WAL does not start with a session record"

(* --- resize ------------------------------------------------------------------ *)

(* Grow or shrink the ring by one worker.  Instead of moving per-location
   engine state between processes (one surgical path per engine family),
   resizing replays: quiesce so every routed message is durable, log the
   new size in the WAL, rebuild the per-worker logs and shipping state the
   new ring would have produced from event 0 (the live front is
   ring-independent and stays untouched), and stream the logs to a fresh
   worker epoch through the normal pipelined pump.  Byte-identity of the
   final report is then just §6e applied to the new ring. *)
let resize_cluster st delta =
  let k_old = Array.length st.workers in
  let k_new = k_old + delta in
  if delta <> 1 && delta <> -1 then Error "resize delta must be +1 or -1"
  else if k_new < 1 then Error "cannot shrink below one worker"
  else
    match Fault.point ~supports:[ Fault.Exn; Fault.Delay ] "cluster.resize" with
    | exception Fault.Injected inc -> Error ("resize aborted: " ^ Fault.describe inc)
    | () ->
      (* quiesce: every routed message durable on its current owner *)
      if st.universe <> None then flush_workers ~drain:true st;
      wal_append st (Wal.Resize k_new);
      let rebuilt =
        if st.universe = None then None
        else Some (rebuild_logs st ~ring:(Chash.create ~workers:k_new) ~nworkers:k_new)
      in
      (* retire the old epoch *)
      Array.iter
        (fun w ->
          retire_worker st w ~why:"resize";
          try Sys.remove (worker_pid_file st w) with Sys_error _ -> ())
        st.workers;
      st.epoch <- st.epoch + 1;
      st.ring <- Chash.create ~workers:k_new;
      st.workers <- Array.init k_new make_worker;
      ensure_worker_counters st k_new;
      (match rebuilt with
      | None -> ()
      | Some (logs, lens, ship) ->
        Array.iteri
          (fun k w ->
            w.log <- logs.(k);
            w.llen <- lens.(k))
          st.workers;
        st.ship <- Some ship);
      Array.iter (fun w -> spawn_worker st w ~resume:false) st.workers;
      st.resizing <- true;
      (match if st.universe <> None then flush_workers ~drain:true st with
      | () -> st.resizing <- false
      | exception e ->
        st.resizing <- false;
        raise e);
      Registry.incr st.tel.resizes_total;
      (* a Resize record past the anchor forces a full replay: re-anchor *)
      write_state_checkpoint st;
      Ok k_new

(* --- merge ------------------------------------------------------------------ *)

(* The front did the sync work and the tally the unchecked accesses; each
   worker's result is its checker's checks, so the counters add up and the
   races, sorted by original index, are the unsharded declarations
   (DESIGN.md §6e). *)
let merge_results st parts = Front.merge (Option.get st.front) parts

let fetch_results st =
  flush_workers ~drain:true st;
  Array.map
    (fun w ->
      match Serve.fetch_result w.fd with
      | Ok r -> r
      | Error msg -> (
        (* a worker that died since its last flush: recover and retry once *)
        Printf.eprintf "racedet route: worker %d RESULT failed (%s); recovering\n%!" w.id msg;
        Registry.incr st.tel.send_failures_total;
        recover_worker ~drain:true st w;
        match Serve.fetch_result w.fd with
        | Ok r -> r
        | Error msg ->
          fail st (Printf.sprintf "worker %d RESULT failed after recovery: %s" w.id msg)))
    st.workers

let result st =
  if st.nevents = 0 then Error "no events ingested"
  else Ok (merge_results st (fetch_results st))

(* --- protocol --------------------------------------------------------------- *)

let refresh st =
  Registry.set st.tel.uptime (int_of_float (Clock.elapsed_s ~since:st.tel.started_ns))

let stats_json st =
  refresh st;
  let per_worker f = Json.Arr (Array.to_list (Array.map (fun w -> Json.Int (f w)) st.workers)) in
  Json.Obj
    [
      ("engine", Json.Str (Engine.name st.cfg.engine));
      ("sampler", Json.Str (Sampler.name st.cfg.sampler));
      ("workers", Json.Int (Array.length st.workers));
      ("epoch", Json.Int st.epoch);
      ("window", Json.Int st.cfg.window);
      ("wal", Json.Bool (st.wal <> None));
      ("events", Json.Int st.nevents);
      ("next_index", Json.Int (Admit.expected st.admit));
      ("parked", Json.Int (Admit.parked st.admit));
      ("uptime_s", Json.Float (Clock.elapsed_s ~since:st.tel.started_ns));
      ("worker_log_lengths", per_worker total);
      ("worker_log_retained", per_worker (fun w -> w.llen));
      ("worker_acked", per_worker (fun w -> w.acked));
      ("worker_pushed", per_worker (fun w -> w.pushed));
      ("worker_respawns", per_worker (fun w -> w.respawns));
      ("worker_resumed_at", per_worker (fun w -> w.resumed_at));
      ("telemetry", Registry.to_json st.tel.reg)
    ]

let reply = Evloop.reply

let handle_batch st conn base payload =
  if base < 0 then reply conn "ERR negative base index\n"
  else
    match Trace_binary.of_bytes (Bytes.unsafe_of_string payload) with
    | Error msg -> reply conn (Printf.sprintf "ERR bad batch: %s\n" msg)
    | Ok trace -> (
      let u = (trace.Trace.nthreads, trace.Trace.nlocks, trace.Trace.nlocs) in
      try
        match ensure_cluster st u with
        | Error msg -> reply conn (Printf.sprintf "ERR %s\n" msg)
        | Ok () -> (
          let evs = Array.init (Trace.length trace) (Trace.get trace) in
          let len = Array.length evs and f = route_events st base evs in
          let ok () = reply conn (Printf.sprintf "OK %d\n" (Admit.expected st.admit)) in
          match Admit.verdict st.admit base with
          | Admit.Refuse -> reply conn "ERR parked batch limit exceeded\n"
          | Admit.Park ->
            (* WAL before ack, park included: a parked batch is acked, so
               it must survive a router crash *)
            wal_append st (Wal.Events (base, evs));
            Admit.park st.admit ~base ~len f;
            Registry.incr st.tel.parked_total;
            ok ()
          | Admit.Due ->
            let before = Admit.expected st.admit in
            let t0 = Clock.now_ns () in
            (* a batch entirely inside the ingested prefix is an idempotent
               resend — nothing new to make durable *)
            if base + len > before then wal_append st (Wal.Events (base, evs));
            (* the router.crash point sits exactly on the durability edge:
               the WAL holds the batch, the client never saw an ack *)
            (match Fault.point ~supports:[ Fault.Exn; Fault.Delay ] "router.crash" with
            | () -> ()
            | exception Fault.Injected inc ->
              Printf.eprintf "racedet route: %s — simulating a router crash\n%!"
                (Fault.describe inc);
              Unix._exit 137);
            Admit.feed st.admit ~base ~len f;
            flush_workers st;
            let ingested = Admit.expected st.admit - before in
            if ingested = 0 then Registry.incr st.tel.duplicate_total
            else begin
              Registry.incr st.tel.batches_total;
              Registry.add st.tel.events_total ingested
            end;
            Histogram.observe st.tel.ingest_ns
              (Int64.to_int (Int64.sub (Clock.now_ns ()) t0));
            maybe_state_checkpoint st;
            ok ())
      with
      | Router_failed msg -> reply conn (Printf.sprintf "ERR %s\n" msg)
      | Wal_failed msg -> reply conn (Printf.sprintf "ERR wal append failed: %s\n" msg))

let handle_line st conn line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "BATCH"; base; nbytes ] -> (
    match (int_of_string_opt base, int_of_string_opt nbytes) with
    | Some b, Some n when n >= 0 ->
      Evloop.await_blob conn n (fun payload -> handle_batch st conn b payload)
    | _ -> reply conn "ERR malformed BATCH header\n")
  | [ ("REPORT" | "RESULT") as verb ] -> (
    match result st with
    | Ok r ->
      (* RESULT: the merged result, as a worker answers with its partial one *)
      Evloop.reply_blob conn verb
        (if verb = "REPORT" then Serve.report_text ~events:st.nevents r
         else Cmsg.encode_result r)
    | Error msg | (exception Router_failed msg) -> reply conn (Printf.sprintf "ERR %s\n" msg))
  | [ "SEQ" ] -> reply conn (Printf.sprintf "SEQ %d\n" (Admit.expected st.admit))
  | [ "MIGRATE"; k ] -> (
    match int_of_string_opt k with
    | Some k when k >= 0 && k < Array.length st.workers -> (
      match
        if st.universe <> None then flush_workers st;
        migrate_worker st st.workers.(k)
      with
      | () -> reply conn (Printf.sprintf "OK %d\n" (Admit.expected st.admit))
      | exception Router_failed msg -> reply conn (Printf.sprintf "ERR %s\n" msg))
    | _ -> reply conn "ERR bad worker id\n")
  | [ "RESIZE"; d ] -> (
    match int_of_string_opt d with
    | Some delta -> (
      match resize_cluster st delta with
      | Ok k -> reply conn (Printf.sprintf "OK %d\n" k)
      | Error msg -> reply conn (Printf.sprintf "ERR %s\n" msg)
      | exception Router_failed msg -> reply conn (Printf.sprintf "ERR %s\n" msg)
      | exception Wal_failed msg ->
        reply conn (Printf.sprintf "ERR wal append failed: %s\n" msg))
    | None -> reply conn "ERR malformed RESIZE\n")
  | "STATS" :: (([] | [ "PROM" ] | [ "JSON" ]) as format) ->
    Evloop.reply_blob conn "STATS"
      (if format = [ "JSON" ] then Json.to_string_pretty (stats_json st)
       else begin
         refresh st;
         Registry.to_prometheus st.tel.reg
       end)
  | [ "SHUTDOWN" ] ->
    reply conn "BYE\n";
    st.stop_reason <- "SHUTDOWN command";
    st.quit <- true
  | [ "" ] -> ()
  | _ -> reply conn "ERR unknown command\n"

(* --- lifecycle --------------------------------------------------------------- *)

let write_metrics_json_file st =
  match st.cfg.metrics_json with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Json.to_string_pretty (stats_json st));
    close_out oc

(* Refuse a ready file that still points at a live listener (another
   router owns this address); remove one left by a crashed router. *)
let check_ready_file cfg =
  match cfg.ready_file with
  | None -> ()
  | Some path ->
    if Sys.file_exists path then begin
      (match Serve.read_addr_file path with
      | Ok addr when Serve.addr_alive addr ->
        failwith
          (Printf.sprintf
             "ready file %s points at a live listener (%s); refusing to start" path
             (Serve.addr_to_string addr))
      | Ok _ | Error _ ->
        Printf.eprintf "racedet route: removing stale ready file %s\n%!" path);
      try Sys.remove path with Sys_error _ -> ()
    end

let run (cfg : config) =
  if cfg.workers < 1 then invalid_arg "Router.run: workers must be positive";
  if cfg.worker_shards <> 1 then
    invalid_arg "Router.run: worker_shards must be 1 (a worker is one inline checker)";
  if cfg.resume && not cfg.wal then
    invalid_arg "Router.run: --resume requires the WAL";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (match cfg.chaos with
  | None -> ()
  | Some c ->
    Fault.arm c;
    Printf.eprintf "racedet route: chaos armed (%s)\n%!" (Fault.spec_of_config c));
  (try Unix.mkdir cfg.dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  check_ready_file cfg;
  if cfg.resume then kill_stale_workers cfg.dir;
  let st =
    {
      cfg;
      tel = make_telemetry ~workers:cfg.workers;
      ring = Chash.create ~workers:cfg.workers;
      workers = Array.init cfg.workers make_worker;
      epoch = 0;
      wal = None;
      state_off = 0;
      state_bytes = 0;
      resizing = false;
      parent_fds = [];
      universe = None;
      clock_size = 0;
      front = None;
      ship = None;
      history = [||];
      admit = Admit.create cfg.max_parked;
      nevents = 0;
      quit = false;
      stop_reason = "";
      failed = None;
    }
  in
  if cfg.wal then st.wal <- Some (Wal.open_append (Wal.path ~dir:cfg.dir));
  let resumed = cfg.resume && resume_session st in
  if resumed then
    Printf.eprintf
      "racedet route: resumed session: %d events, %d parked batch(es), %d worker(s), epoch %d\n%!"
      st.nevents (Admit.parked st.admit) (Array.length st.workers) st.epoch;
  Array.iter (fun w -> spawn_worker st w ~resume:resumed) st.workers;
  (try
     if resumed then begin
       Array.iter (fun w -> align_worker st w ~after:"at resume") st.workers;
       flush_workers st
     end
   with Router_failed _ -> ());
  let listen_fd, actual = Serve.listen_socket ~backlog:cfg.backlog cfg.listen in
  st.parent_fds <- listen_fd :: st.parent_fds;
  (match cfg.ready_file with
  | None -> ()
  | Some path -> Serve.write_addr_file path actual);
  let on_signal name =
    Sys.Signal_handle
      (fun _ ->
        st.stop_reason <- name;
        st.quit <- true)
  in
  Sys.set_signal Sys.sigterm (on_signal "SIGTERM");
  Sys.set_signal Sys.sigint (on_signal "SIGINT");
  let last_beat = ref (Clock.now_s ()) in
  let tick () =
    match cfg.heartbeat_s with
    | Some hb when Clock.now_s () -. !last_beat >= hb ->
      last_beat := Clock.now_s ();
      Printf.eprintf "racedet route: alive: %d events, %d parked, %d worker(s)\n%!"
        st.nevents (Admit.parked st.admit) (Array.length st.workers)
    | _ -> ()
  in
  let remaining =
    if st.failed <> None then []
    else
      Evloop.run ~listen_fd
        ~quit:(fun () -> st.quit)
        ~on_line:(fun conn line -> handle_line st conn line)
        ~on_accept:(fun conn -> st.parent_fds <- Evloop.conn_fd conn :: st.parent_fds)
        ~on_conns:(fun n -> Registry.set st.tel.conns_active n)
        ~tick ()
  in
  if st.stop_reason <> "" then
    Printf.eprintf "racedet route: shutting down (%s)\n%!" st.stop_reason;
  (* Graceful drain: every routed message acked by its worker, then
     SHUTDOWN each worker so it writes its final checkpoint set.  No extra
     router-state checkpoint: the newest size-driven one already bounds a
     resume's WAL tail. *)
  (if st.failed = None then
     try
       if st.universe <> None then flush_workers ~drain:true st;
       Array.iter (fun w -> retire_worker st w ~why:"shutdown") st.workers
     with Router_failed _ -> ());
  if st.failed <> None then
    (* fail-fast path (or a failure during the drain): make sure no worker
       process outlives the router *)
    Array.iter (kill_worker st) st.workers;
  (match st.wal with
  | None -> ()
  | Some wal -> Wal.close wal);
  write_metrics_json_file st;
  List.iter Evloop.close_conn remaining;
  Unix.close listen_fd;
  (match cfg.listen with
  | Serve.Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Serve.Tcp _ -> ());
  (match cfg.ready_file with
  | None -> ()
  | Some path -> ( try Sys.remove path with Sys_error _ -> ()));
  (match cfg.chaos with
  | None -> ()
  | Some _ ->
    Printf.eprintf
      "racedet route: chaos summary: %d faults fired over %d checks, %d respawns, %d migrations\n%!"
      (Fault.fired ()) (Fault.checks ())
      (Registry.counter_value st.tel.respawns_total)
      (Registry.counter_value st.tel.migrations_total));
  match st.failed with
  | Some msg -> failwith ("racedet route: " ^ msg)
  | None -> ()
