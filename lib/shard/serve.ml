module Trace = Ft_trace.Trace
module Trace_binary = Ft_trace.Trace_binary
module Detector = Ft_core.Detector
module Engine = Ft_core.Engine
module Sampler = Ft_core.Sampler
module Metrics = Ft_core.Metrics
module Snap = Ft_core.Snap
module Checkpoint = Ft_snapshot.Checkpoint
module Clock = Ft_support.Clock
module Json = Ft_obs.Json
module Registry = Ft_obs.Registry
module Histogram = Ft_obs.Histogram
module Fault = Ft_fault.Fault
module Prng = Ft_support.Prng

(* --- transport addresses -------------------------------------------------- *)

type addr = Unix_path of string | Tcp of string * int

let addr_to_string = function
  | Unix_path path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let tcp_of_string s =
  match String.rindex_opt s ':' with
  | Some i when i > 0 && i < String.length s - 1 -> (
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | Some p when p >= 0 && p < 65536 -> Ok (Tcp (host, p))
    | _ -> Error (Printf.sprintf "bad TCP port in %S" s))
  | _ -> Error (Printf.sprintf "expected HOST:PORT, got %S" s)

let addr_of_string s =
  let prefixed prefix =
    let np = String.length prefix in
    if String.length s > np && String.sub s 0 np = prefix then
      Some (String.sub s np (String.length s - np))
    else None
  in
  match prefixed "unix:" with
  | Some path -> Ok (Unix_path path)
  | None -> (
    match prefixed "tcp:" with
    | Some hostport -> tcp_of_string hostport
    | None -> Ok (Unix_path s))

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | a -> a
  | exception Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
      raise (Unix.Unix_error (Unix.EHOSTUNREACH, "resolve", host))
    | h -> h.Unix.h_addr_list.(0))

let sockaddr_of_addr = function
  | Unix_path path -> Unix.ADDR_UNIX path
  | Tcp (host, port) -> Unix.ADDR_INET (resolve_host host, port)

let socket_domain_of_addr = function
  | Unix_path _ -> Unix.PF_UNIX
  | Tcp _ -> Unix.PF_INET

(* A live daemon on [path] accepts; a stale socket file left by a crashed
   one refuses (or the path is gone).  Probing before the bind keeps two
   servers handed the same path from silently orphaning each other — the
   second refuses to start instead of unlinking the first's socket. *)
let unix_listener_alive path =
  Sys.file_exists path
  &&
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let live =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> true
    | exception Unix.Unix_error _ -> false
  in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  live

let default_backlog = 128

(* Bind + listen, returning the descriptor and the *actual* address — a
   TCP bind to port 0 resolves to the kernel-chosen port, which is what a
   [ready_file] publishes.  Close-on-exec everywhere: a router that forks
   worker processes must not leak its listener into them. *)
let listen_socket ?(backlog = default_backlog) addr =
  match addr with
  | Unix_path path ->
    if unix_listener_alive path then
      failwith
        (Printf.sprintf "socket %s already has a live server listening; refusing to start"
           path);
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try
       Unix.bind fd (Unix.ADDR_UNIX path);
       Unix.listen fd backlog
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    (fd, addr)
  | Tcp (host, port) ->
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt fd Unix.SO_REUSEADDR true;
       Unix.bind fd (Unix.ADDR_INET (resolve_host host, port));
       Unix.listen fd backlog
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    let actual =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (a, p) -> Tcp (Unix.string_of_inet_addr a, p)
      | _ -> addr
    in
    (fd, actual)

(* Atomic publish (write + rename) so a poller never reads a torn line. *)
let write_addr_file path addr =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (addr_to_string addr ^ "\n");
  close_out oc;
  Sys.rename tmp path

let read_addr_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | "" -> Error (path ^ " is empty")
  | text -> addr_of_string (String.trim text)
  | exception Sys_error msg -> Error msg

type config = {
  listen : addr;
  engine : Engine.id;
  shards : int;
  sampler : Sampler.t;
  clock_size : int option;
  checkpoint_dir : string option;
  checkpoint_every : int;  (* BATCH mode: ingested batches between checkpoint sets *)
  resume_dir : string option;
  max_parked : int;
  backlog : int;
  ready_file : string option;
  heartbeat_s : float option;
  metrics_json : string option;
  max_restarts : int;  (* per-shard supervisor restart budget *)
  chaos : Fault.config option;  (* armed at startup when present *)
}

let default_max_parked = 1024
let default_checkpoint_every = 1
let default_deadline_s = 30.0
let default_max_restarts = 8

(* --- the report, shared with [racedet analyze] -------------------------- *)

let report_text ~events (result : Detector.result) =
  let b = Buffer.create 256 in
  let locs = Detector.racy_locations result in
  let m = result.Detector.metrics in
  Printf.bprintf b "engine          : %s\n" result.Detector.engine;
  Printf.bprintf b "events          : %d\n" events;
  Printf.bprintf b "sampled accesses: %d\n" m.Metrics.sampled_accesses;
  Printf.bprintf b "race declarations: %d\n" (List.length result.Detector.races);
  Printf.bprintf b "racy locations  : %d%s\n" (List.length locs)
    (if locs = [] then ""
     else "  (" ^ String.concat ", " (List.map (Printf.sprintf "x%d") locs) ^ ")");
  Printf.bprintf b
    "sync work       : %d/%d acquires skipped, %d/%d releases copied, %d deep copies\n"
    m.Metrics.acquires_skipped m.Metrics.acquires m.Metrics.releases_processed
    m.Metrics.releases m.Metrics.deep_copies;
  Buffer.contents b

let metrics_json_value (m : Metrics.t) =
  Json.Obj
    (Array.to_list
       (Array.map2 (fun n v -> (n, Json.Int v)) Metrics.field_names (Metrics.to_array m)))

(* --- low-level I/O ------------------------------------------------------- *)

exception Recv_deadline of float

let write_all = Evloop.write_all

(* One read, retrying [EINTR] (a signal landed) and [EAGAIN] (the
   descriptor's receive timeout fired mid-transfer — e.g. a slow or busy
   server trickling out a large REPORT blob) until [deadline_at]
   ([Clock.now_s] time).  The per-descriptor timeout is thereby demoted to a
   poll granularity; only the overall deadline fails the operation. *)
let read_retry ~deadline_at fd buf off len =
  let rec go () =
    match Unix.read fd buf off len with
    | n -> n
    | exception
        Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      if Clock.now_s () >= deadline_at then raise (Recv_deadline deadline_at) else go ()
  in
  go ()

let read_line_fd ~deadline_at fd =
  let b = Buffer.create 64 in
  let one = Bytes.create 1 in
  let rec go () =
    match read_retry ~deadline_at fd one 0 1 with
    | 0 -> raise End_of_file
    | _ ->
      let c = Bytes.get one 0 in
      if c = '\n' then Buffer.contents b
      else begin
        Buffer.add_char b c;
        go ()
      end
  in
  go ()

let really_read ~deadline_at fd n =
  let b = Bytes.create n in
  let rec go off =
    if off < n then
      match read_retry ~deadline_at fd b off (n - off) with
      | 0 -> raise End_of_file
      | k -> go (off + k)
  in
  go 0;
  Bytes.unsafe_to_string b

(* --- telemetry ------------------------------------------------------------ *)

(* Counters are bumped only at batch and command boundaries — never inside
   the per-event detection loop — so instrumentation cannot perturb the
   verdict-relevant hot path (DESIGN.md, "Telemetry stays off the hot
   path").  Per-shard and detector series are mirrors refreshed on demand:
   the shard counters live with the router, the merged Metrics with the
   engines, and both are monotone, so copying them into registry counters
   at STATS time preserves Prometheus counter semantics. *)
type telemetry = {
  reg : Registry.t;
  batches_total : Registry.counter;
  parked_total : Registry.counter;
  duplicate_total : Registry.counter;
  resent_total : Registry.counter;
  events_total : Registry.counter;
  conns_total : Registry.counter;
  conns_active : Registry.gauge;
  parked_now : Registry.gauge;
  uptime : Registry.gauge;
  stats_total : Registry.counter;
  checkpoints_total : Registry.counter;
  checkpoint_bytes_total : Registry.counter;
  cbatch_bytes_total : Registry.counter;
  faults_injected : Registry.counter;
  shard_restarts : Registry.counter;
  checkpoint_failures : Registry.counter;
  ingest_ns : Histogram.t;
  started_ns : int64;
  mutable ring_gauges : Registry.gauge array;    (* one per shard *)
  mutable shard_events : Registry.counter array; (* one per shard, mirrored *)
  mutable restore_points : Registry.counter array; (* one per shard, mirrored *)
  mutable backlog_bytes : Registry.gauge array;    (* one per shard, mirrored *)
  mutable det_fields : Registry.counter array;   (* Metrics.field_names order *)
}

let make_telemetry () =
  let reg = Registry.create () in
  {
    reg;
    batches_total =
      Registry.counter reg "serve_batches_ingested_total"
        ~help:"Batches whose events were fed to the detector";
    parked_total =
      Registry.counter reg "serve_batches_parked_total"
        ~help:"Batches that arrived ahead of the expected index and were parked";
    duplicate_total =
      Registry.counter reg "serve_batches_duplicate_total"
        ~help:"Batches whose events were all already ingested (idempotent resend)";
    resent_total =
      Registry.counter reg "serve_batches_resent_total"
        ~help:"Batches overlapping the ingested prefix that still carried new events";
    events_total =
      Registry.counter reg "serve_events_ingested_total"
        ~help:"Events fed to the detector";
    conns_total =
      Registry.counter reg "serve_connections_total" ~help:"Client connections accepted";
    conns_active =
      Registry.gauge reg "serve_connections_active" ~help:"Currently open client connections";
    parked_now = Registry.gauge reg "serve_parked_batches" ~help:"Batches currently parked";
    uptime = Registry.gauge reg "serve_uptime_seconds" ~help:"Seconds since server start";
    stats_total =
      Registry.counter reg "serve_stats_queries_total" ~help:"STATS commands answered";
    checkpoints_total =
      Registry.counter reg "serve_checkpoints_total" ~help:"Checkpoint sets written";
    checkpoint_bytes_total =
      Registry.counter reg "serve_checkpoint_bytes_total"
        ~help:"Snapshot bytes in the checkpoint sets written";
    cbatch_bytes_total =
      Registry.counter reg "serve_cbatch_applied_bytes_total"
        ~help:"CBATCH payload bytes newly applied (resent prefixes count 0)";
    faults_injected =
      Registry.counter reg "racedet_faults_injected"
        ~help:"Faults fired by the armed chaos schedule (0 when disarmed)";
    shard_restarts =
      Registry.counter reg "racedet_shard_restarts"
        ~help:"Shard workers restarted by the supervisor";
    checkpoint_failures =
      Registry.counter reg "serve_checkpoint_failures_total"
        ~help:"Checkpoint sets abandoned because a write faulted";
    ingest_ns =
      Registry.histogram reg "serve_batch_ingest_ns"
        ~help:"Per-batch ingest latency (feed + drain + checkpoint), nanoseconds";
    started_ns = Clock.now_ns ();
    ring_gauges = [||];
    shard_events = [||];
    restore_points = [||];
    backlog_bytes = [||];
    det_fields = [||];
  }

(* Per-shard and per-field series exist once the detector does (K and the
   field set are only known then). *)
let attach_shard_series tel ~shards =
  if Array.length tel.ring_gauges = 0 then begin
    tel.ring_gauges <-
      Array.init shards (fun k ->
          Registry.gauge tel.reg "serve_shard_ring_occupancy"
            ~help:"Unconsumed messages in each shard's ring"
            ~labels:[ ("shard", string_of_int k) ]);
    tel.shard_events <-
      Array.init shards (fun k ->
          Registry.counter tel.reg "serve_shard_events_total"
            ~help:"Events routed to each shard (accesses to the owner, sync to all)"
            ~labels:[ ("shard", string_of_int k) ]);
    tel.restore_points <-
      Array.init shards (fun k ->
          Registry.counter tel.reg "racedet_supervisor_restore_points_total"
            ~help:"Restore points the supervisor adopted per shard (answered requests and checkpoints)"
            ~labels:[ ("shard", string_of_int k) ]);
    tel.backlog_bytes <-
      Array.init shards (fun k ->
          Registry.gauge tel.reg "serve_supervisor_backlog_bytes"
            ~help:"Encoded messages each shard's supervisor holds since its restore point"
            ~labels:[ ("shard", string_of_int k) ]);
    tel.det_fields <-
      Array.map
        (fun f ->
          Registry.counter tel.reg "racedet_metric"
            ~help:"Merged detector work counters (front + every shard's checker)"
            ~labels:[ ("field", f) ])
        Metrics.field_names
  end

(* --- server state -------------------------------------------------------- *)

type state = {
  cfg : config;
  tel : telemetry;
  mutable det : Sharded.t option;
  mutable universe : (int * int * int) option;  (* nthreads, nlocks, nlocs *)
  mutable clock_size : int;
  mutable expected : int;  (* next stream position: events (BATCH) or messages (CBATCH) *)
  mutable mode : [ `Batch | `Cluster ] option;  (* fixed by the first ingested batch *)
  mutable since_ckpt : int;  (* BATCH mode: ingested batches since the last checkpoint set *)
  mutable applied_since_ckpt : int;  (* CBATCH mode: payload bytes applied since then *)
  mutable ckpt_bytes : int;  (* snapshot bytes of the newest set, written or resumed from *)
  mutable durable : int;  (* stream position of the newest consistent set on disk *)
  parked : (int, Trace.t) Hashtbl.t;
  mutable quit : bool;
  mutable stop_reason : string;  (* what ended the serve loop, for the log *)
  mutable failed : string option;  (* fail-fast diagnostic: exit non-zero *)
}

(* A checkpoint set is one file: the router snapshot and every shard's in
   one checksummed container, written atomically (write-fsync-rename).  A
   crash or a faulted write mid-set therefore leaves the previous set whole,
   so the durable cut a cluster worker reports never moves backwards. *)
let set_file dir = Filename.concat dir "set.ftc"

let encode_set ~router snaps =
  let enc = Snap.Enc.create () in
  Snap.Enc.string enc router;
  Snap.Enc.int enc (Array.length snaps);
  Array.iter (Snap.Enc.string enc) snaps;
  Snap.Enc.to_snap enc

let write_checkpoint st =
  match (st.cfg.checkpoint_dir, st.det, st.universe) with
  | Some dir, Some det, Some (nthreads, nlocks, nlocs) -> (
    let meta =
      {
        Checkpoint.engine = st.cfg.engine;
        sampler = Sampler.name st.cfg.sampler;
        nthreads;
        nlocks;
        nlocs;
        clock_size = st.clock_size;
        next_index = st.expected;
        byte_offset = -1;
      }
    in
    (* A faulted write leaves the previous set on disk: log it, count it,
       keep serving (and keep reporting the previous cut). *)
    try
      let snaps = Sharded.shard_snapshots det in
      let set = encode_set ~router:(Sharded.router_snapshot det) snaps in
      Checkpoint.save (set_file dir) { Checkpoint.meta; detector = set };
      let bytes = String.length set in
      Registry.incr st.tel.checkpoints_total;
      Registry.add st.tel.checkpoint_bytes_total bytes;
      st.ckpt_bytes <- bytes;
      st.applied_since_ckpt <- 0;
      st.durable <- st.expected
    with Fault.Injected _ as e ->
      Registry.incr st.tel.checkpoint_failures;
      Printf.eprintf "racedet serve: checkpoint write faulted (%s); continuing\n%!"
        (Printexc.to_string e))
  | _ -> ()

(* BATCH mode checkpoints every [checkpoint_every] ingested batches: the
   standalone default of 1 makes an acknowledged batch durable. *)
let maybe_checkpoint st =
  st.since_ckpt <- st.since_ckpt + 1;
  if st.since_ckpt >= Stdlib.max 1 st.cfg.checkpoint_every then begin
    st.since_ckpt <- 0;
    write_checkpoint st
  end

(* CBATCH mode checkpoints by size: once the payload bytes newly applied
   since the last set reach that set's snapshot bytes.  The router's WAL
   already makes every acknowledged client batch durable, so a worker
   checkpoint only bounds post-crash replay — to one set's worth of bytes —
   and snapshot work stays amortized O(1) per routed byte.  A fresh worker
   (no set yet) checkpoints after its first batch. *)
let maybe_checkpoint_bytes st applied =
  if applied > 0 then begin
    st.applied_since_ckpt <- st.applied_since_ckpt + applied;
    Registry.add st.tel.cbatch_bytes_total applied;
    if st.applied_since_ckpt >= st.ckpt_bytes then write_checkpoint st
  end

(* Resume from a checkpoint directory.  Any inconsistency (missing file,
   checksum failure, a shard count other than [cfg.shards]) degrades to a
   logged fresh start — clients resend idempotently, so the result is still
   exact. *)
let try_resume (cfg : config) =
  match cfg.resume_dir with
  | None -> None
  | Some dir ->
    let ( let* ) = Result.bind in
    let outcome =
      let* cp = Checkpoint.load (set_file dir) in
      let meta = cp.Checkpoint.meta in
      let* () =
        if meta.Checkpoint.engine = cfg.engine then Ok ()
        else Error "checkpoint engine differs from --engine"
      in
      let* () =
        if meta.Checkpoint.sampler = Sampler.name cfg.sampler then Ok ()
        else Error "checkpoint sampler differs from the configured sampler"
      in
      let config =
        {
          Detector.nthreads = meta.Checkpoint.nthreads;
          nlocks = meta.Checkpoint.nlocks;
          nlocs = meta.Checkpoint.nlocs;
          clock_size = meta.Checkpoint.clock_size;
          sampler = cfg.sampler;
        }
      in
      match
        let dec = Snap.Dec.of_snap cp.Checkpoint.detector in
        let router = Snap.Dec.string dec in
        let k = Snap.Dec.int dec in
        Snap.expect (k = cfg.shards) "checkpoint shard count differs from --shards";
        let snaps = Array.init k (fun _ -> Snap.Dec.string dec) in
        Snap.Dec.finish dec;
        Sharded.restore ~engine:cfg.engine ~shards:cfg.shards ~supervise:true
          ~max_restarts:cfg.max_restarts config ~router snaps
      with
      | det -> Ok (det, meta, String.length cp.Checkpoint.detector)
      | exception Snap.Corrupt msg -> Error msg
    in
    (match outcome with
    | Ok r -> Some r
    | Error msg ->
      Printf.eprintf "racedet serve: cannot resume from %s (%s); starting fresh\n%!" dir
        msg;
      None)

let ensure_detector st (nthreads, nlocks, nlocs) =
  match (st.det, st.universe) with
  | Some det, Some u ->
    if u = (nthreads, nlocks, nlocs) then Ok det
    else Error "batch universe differs from the session's"
  | None, _ ->
    let clock_size =
      match st.cfg.clock_size with
      | None -> nthreads
      | Some s -> Stdlib.max s nthreads
    in
    let config = { Detector.nthreads; nlocks; nlocs; clock_size; sampler = st.cfg.sampler } in
    let det =
      Sharded.create ~engine:st.cfg.engine ~shards:st.cfg.shards ~supervise:true
        ~max_restarts:st.cfg.max_restarts config
    in
    st.det <- Some det;
    st.universe <- Some (nthreads, nlocks, nlocs);
    st.clock_size <- clock_size;
    attach_shard_series st.tel ~shards:st.cfg.shards;
    Ok det
  | Some _, None -> assert false

(* The session speaks either plain BATCH streams (units: events) or cluster
   CBATCH streams (units: messages); [expected] counts stream units, so
   mixing the two would silently corrupt the idempotent-resend arithmetic. *)
let ensure_mode st mode =
  match st.mode with
  | None ->
    st.mode <- Some mode;
    Ok ()
  | Some m when m = mode -> Ok ()
  | Some `Batch -> Error "session already ingests BATCH streams (not a cluster worker)"
  | Some `Cluster -> Error "session already ingests CBATCH streams (cluster worker)"

let feed st det trace base =
  let n = Trace.length trace in
  (* skip any already-ingested prefix: resends are idempotent *)
  for i = Stdlib.max 0 (st.expected - base) to n - 1 do
    Sharded.handle det (base + i) (Trace.get trace i)
  done;
  st.expected <- Stdlib.max st.expected (base + n)

let rec drain_parked st det =
  let eligible =
    Hashtbl.fold
      (fun base _ acc ->
        if base <= st.expected then Some (match acc with None -> base | Some b -> Stdlib.min b base)
        else acc)
      st.parked None
  in
  match eligible with
  | None -> ()
  | Some base ->
    let trace = Hashtbl.find st.parked base in
    Hashtbl.remove st.parked base;
    feed st det trace base;
    drain_parked st det

let reply = Evloop.reply

(* A shard past its restart budget is unrecoverable within this process:
   reply with the diagnostic, then fail fast — clients hold the full stream
   and can replay into a fresh server. *)
let fail_fast st conn msg =
  st.failed <- Some msg;
  st.stop_reason <- "shard failure";
  st.quit <- true;
  reply conn (Printf.sprintf "ERR %s\n" msg)

let handle_batch st conn base payload =
  if base < 0 then reply conn "ERR negative base index\n"
  else
    (* [unsafe_of_string]: [payload] is a fresh private string from
       [Netbuf.take] and the decoder never writes through the reader *)
    match Trace_binary.of_bytes (Bytes.unsafe_of_string payload) with
    | Error msg -> reply conn (Printf.sprintf "ERR bad batch: %s\n" msg)
    | Ok trace -> (
      let u = (trace.Trace.nthreads, trace.Trace.nlocks, trace.Trace.nlocs) in
      match
        match ensure_mode st `Batch with
        | Error _ as e -> e
        | Ok () -> ensure_detector st u
      with
      | Error msg -> reply conn (Printf.sprintf "ERR %s\n" msg)
      | Ok det -> (
        try
          if base > st.expected then
            if Hashtbl.length st.parked >= st.cfg.max_parked then
              reply conn "ERR parked batch limit exceeded\n"
            else begin
              Hashtbl.replace st.parked base trace;
              Registry.incr st.tel.parked_total;
              reply conn (Printf.sprintf "OK %d\n" st.expected)
            end
          else begin
            let before = st.expected in
            let t0 = Clock.now_ns () in
            feed st det trace base;
            drain_parked st det;
            maybe_checkpoint st;
            let ingested = st.expected - before in
            let tel = st.tel in
            if ingested = 0 then Registry.incr tel.duplicate_total
            else begin
              Registry.incr tel.batches_total;
              Registry.add tel.events_total ingested;
              if base < before then Registry.incr tel.resent_total
            end;
            Histogram.observe tel.ingest_ns
              (Int64.to_int (Int64.sub (Clock.now_ns ()) t0));
            reply conn (Printf.sprintf "OK %d\n" st.expected)
          end
        with
        | Failure msg -> reply conn (Printf.sprintf "ERR %s\n" msg)
        | Sharded.Shard_failed msg -> fail_fast st conn msg))

(* A cluster sub-stream batch.  The router is this worker's only client and
   sends sequence-contiguous CBATCHes, so there is no parking here — only
   the idempotent prefix skip that makes post-recovery replays (and a
   restarted router replaying from zero) exact. *)
let handle_cbatch st conn seq payload =
  if seq < 0 then reply conn "ERR negative sequence number\n"
  else
    match Cmsg.decode payload with
    | Error msg -> reply conn (Printf.sprintf "ERR bad cluster batch: %s\n" msg)
    | Ok (u, msgs) -> (
      match
        match ensure_mode st `Cluster with
        | Error _ as e -> e
        | Ok () -> ensure_detector st u
      with
      | Error msg -> reply conn (Printf.sprintf "ERR %s\n" msg)
      | Ok det -> (
        try
          if seq > st.expected then
            reply conn
              (Printf.sprintf "ERR cluster batch from the future (seq %d, expected %d)\n"
                 seq st.expected)
          else begin
            let n = Array.length msgs in
            let before = st.expected in
            let t0 = Clock.now_ns () in
            for j = st.expected - seq to n - 1 do
              Sharded.check det msgs.(j)
            done;
            st.expected <- Stdlib.max st.expected (seq + n);
            let ingested = st.expected - before in
            maybe_checkpoint_bytes st
              (if n = 0 then 0 else String.length payload * ingested / n);
            let tel = st.tel in
            if ingested = 0 then Registry.incr tel.duplicate_total
            else begin
              Registry.incr tel.batches_total;
              Registry.add tel.events_total ingested;
              if seq < before then Registry.incr tel.resent_total
            end;
            Histogram.observe tel.ingest_ns
              (Int64.to_int (Int64.sub (Clock.now_ns ()) t0));
            reply conn (Printf.sprintf "OK %d %d\n" st.expected st.durable)
          end
        with
        | Failure msg -> reply conn (Printf.sprintf "ERR %s\n" msg)
        | Sharded.Shard_failed msg -> fail_fast st conn msg))

(* --- STATS ----------------------------------------------------------------- *)

(* Cheap refresh: registry gauges and router-side mirrors only — safe for
   the heartbeat, which must not stall ingestion behind a shard flush. *)
let refresh_cheap st =
  let tel = st.tel in
  Registry.set tel.parked_now (Hashtbl.length st.parked);
  Registry.set tel.uptime (int_of_float (Clock.elapsed_s ~since:tel.started_ns));
  Registry.set_counter tel.faults_injected (Fault.fired ());
  match st.det with
  | None -> ()
  | Some det ->
    Registry.set_counter tel.shard_restarts (Sharded.restarts_total det);
    Array.iteri
      (fun k occ -> if k < Array.length tel.ring_gauges then Registry.set tel.ring_gauges.(k) occ)
      (Sharded.ring_occupancy det);
    Array.iteri
      (fun k c ->
        if k < Array.length tel.shard_events then Registry.set_counter tel.shard_events.(k) c)
      (Sharded.shard_event_counts det);
    Array.iteri
      (fun k (s : Sharded.supervision) ->
        if k < Array.length tel.restore_points then begin
          Registry.set_counter tel.restore_points.(k) s.Sharded.restore_points;
          Registry.set tel.backlog_bytes.(k) s.Sharded.backlog_bytes
        end)
      (Sharded.supervision det)

(* Full refresh: additionally flush the shards and mirror the merged
   detector metrics.  [Sharded.result] waits for the rings to drain, so this
   runs only on explicit STATS queries and at shutdown, never on the
   heartbeat. *)
let refresh_full st =
  refresh_cheap st;
  match st.det with
  | None -> None
  | Some det ->
    let result = Sharded.result det in
    Array.iteri
      (fun i v ->
        if i < Array.length st.tel.det_fields then
          Registry.set_counter st.tel.det_fields.(i) v)
      (Metrics.to_array result.Detector.metrics);
    Some result

let stats_json st result =
  let events = match st.det with Some det -> Sharded.events det | None -> 0 in
  let per_shard f =
    match st.det with
    | None -> Json.Arr []
    | Some det -> Json.Arr (Array.to_list (Array.map (fun n -> Json.Int n) (f det)))
  in
  let supervision f det = Array.map f (Sharded.supervision det) in
  Json.Obj
    [
      ("engine", Json.Str (Engine.name st.cfg.engine));
      ("sampler", Json.Str (Sampler.name st.cfg.sampler));
      ("shards", Json.Int st.cfg.shards);
      ("events", Json.Int events);
      ("next_index", Json.Int st.expected);
      ("parked", Json.Int (Hashtbl.length st.parked));
      ("uptime_s", Json.Float (Clock.elapsed_s ~since:st.tel.started_ns));
      ("ring_occupancy", per_shard Sharded.ring_occupancy);
      ("shard_events", per_shard Sharded.shard_event_counts);
      ("restore_points", per_shard (supervision (fun s -> s.Sharded.restore_points)));
      ("backlog_bytes", per_shard (supervision (fun s -> s.Sharded.backlog_bytes)));
      ("telemetry", Registry.to_json st.tel.reg);
      ( "metrics",
        match result with
        | None -> Json.Null
        | Some (r : Detector.result) -> metrics_json_value r.Detector.metrics );
      ( "races",
        match result with
        | None -> Json.Null
        | Some r -> Json.Int (List.length r.Detector.races) );
    ]

let stats_payload st format =
  Registry.incr st.tel.stats_total;
  let result = refresh_full st in
  match format with
  | `Prometheus -> Registry.to_prometheus st.tel.reg
  | `Json -> Json.to_string_pretty (stats_json st result)

let heartbeat_line st =
  let tel = st.tel in
  refresh_cheap st;
  Printf.sprintf
    "racedet serve: up %ds, events=%d batches=%d parked=%d conns=%d ingest p99=%.3fms max=%.3fms"
    (Registry.gauge_value tel.uptime)
    (Registry.counter_value tel.events_total)
    (Registry.counter_value tel.batches_total)
    (Hashtbl.length st.parked)
    (Registry.gauge_value tel.conns_active)
    (float_of_int (Histogram.quantile tel.ingest_ns 0.99) /. 1e6)
    (float_of_int (Histogram.max_value tel.ingest_ns) /. 1e6)

let handle_line st conn line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "BATCH"; base; nbytes ] -> (
    match (int_of_string_opt base, int_of_string_opt nbytes) with
    | Some b, Some n when n >= 0 ->
      Evloop.await_blob conn n (fun payload -> handle_batch st conn b payload)
    | _ -> reply conn "ERR malformed BATCH header\n")
  | [ "CBATCH"; seq; nbytes ] -> (
    match (int_of_string_opt seq, int_of_string_opt nbytes) with
    | Some s, Some n when n >= 0 ->
      Evloop.await_blob conn n (fun payload -> handle_cbatch st conn s payload)
    | _ -> reply conn "ERR malformed CBATCH header\n")
  | [ "REPORT" ] -> (
    match st.det with
    | None -> reply conn "ERR no events ingested\n"
    | Some det -> (
      try
        let text = report_text ~events:(Sharded.events det) (Sharded.result det) in
        reply conn (Printf.sprintf "REPORT %d\n%s" (String.length text) text)
      with
      | Failure msg -> reply conn (Printf.sprintf "ERR %s\n" msg)
      | Sharded.Shard_failed msg -> fail_fast st conn msg))
  | [ "RESULT" ] -> (
    (* the raw partial result, for a cluster router's merge *)
    match st.det with
    | None -> reply conn "ERR no events ingested\n"
    | Some det -> (
      try
        let blob = Cmsg.encode_result (Sharded.result det) in
        reply conn (Printf.sprintf "RESULT %d\n%s" (String.length blob) blob)
      with
      | Failure msg -> reply conn (Printf.sprintf "ERR %s\n" msg)
      | Sharded.Shard_failed msg -> fail_fast st conn msg))
  | [ "SEQ" ] ->
    (* where this session's stream stands — what a recovering router uses
       to find the replay point after respawning a worker *)
    reply conn (Printf.sprintf "SEQ %d\n" st.expected)
  | [ "STATS" ] | [ "STATS"; "PROM" ] -> (
    try
      let text = stats_payload st `Prometheus in
      reply conn (Printf.sprintf "STATS %d\n%s" (String.length text) text)
    with
    | Failure msg -> reply conn (Printf.sprintf "ERR %s\n" msg)
    | Sharded.Shard_failed msg -> fail_fast st conn msg)
  | [ "STATS"; "JSON" ] -> (
    try
      let text = stats_payload st `Json in
      reply conn (Printf.sprintf "STATS %d\n%s" (String.length text) text)
    with
    | Failure msg -> reply conn (Printf.sprintf "ERR %s\n" msg)
    | Sharded.Shard_failed msg -> fail_fast st conn msg)
  | [ "SHUTDOWN" ] ->
    write_checkpoint st;
    reply conn "BYE\n";
    st.stop_reason <- "SHUTDOWN command";
    st.quit <- true
  | [ "" ] -> ()
  | _ -> reply conn "ERR unknown command\n"

let write_metrics_json_file st =
  match st.cfg.metrics_json with
  | None -> ()
  | Some path ->
    let result = refresh_full st in
    let doc = stats_json st result in
    let oc = open_out path in
    output_string oc (Json.to_string_pretty doc);
    close_out oc

let run cfg =
  if cfg.shards < 1 then invalid_arg "Serve.run: shards must be positive";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (match cfg.chaos with
  | None -> ()
  | Some c ->
    Fault.arm c;
    Printf.eprintf "racedet serve: chaos armed (%s)\n%!" (Fault.spec_of_config c));
  let listen_fd, actual = listen_socket ~backlog:cfg.backlog cfg.listen in
  (match cfg.ready_file with
  | None -> ()
  | Some path -> write_addr_file path actual);
  let st =
    {
      cfg;
      tel = make_telemetry ();
      det = None;
      universe = None;
      clock_size = 0;
      expected = 0;
      mode = None;
      since_ckpt = 0;
      applied_since_ckpt = 0;
      ckpt_bytes = 0;
      durable = 0;
      parked = Hashtbl.create 16;
      quit = false;
      stop_reason = "";
      failed = None;
    }
  in
  (* Graceful shutdown on SIGTERM/SIGINT: finish the current select round,
     then run the same drain → final checkpoint → metrics dump path as a
     SHUTDOWN command.  (An abrupt SIGKILL stays covered by the crash/resume
     tests — that is what the per-batch checkpoints are for.) *)
  let on_signal name =
    Sys.Signal_handle
      (fun _ ->
        st.stop_reason <- name;
        st.quit <- true)
  in
  Sys.set_signal Sys.sigterm (on_signal "SIGTERM");
  Sys.set_signal Sys.sigint (on_signal "SIGINT");
  (match try_resume cfg with
  | None -> ()
  | Some (det, meta, bytes) ->
    st.det <- Some det;
    st.universe <-
      Some (meta.Checkpoint.nthreads, meta.Checkpoint.nlocks, meta.Checkpoint.nlocs);
    st.clock_size <- meta.Checkpoint.clock_size;
    st.expected <- meta.Checkpoint.next_index;
    st.durable <- st.expected;
    st.ckpt_bytes <- bytes;
    attach_shard_series st.tel ~shards:cfg.shards;
    Printf.eprintf "racedet serve: resumed at event %d\n%!" st.expected);
  let last_beat = ref (Clock.now_ns ()) in
  let tick () =
    match cfg.heartbeat_s with
    | Some period when period > 0.0 && Clock.elapsed_s ~since:!last_beat >= period ->
      last_beat := Clock.now_ns ();
      Printf.eprintf "%s\n%!" (heartbeat_line st)
    | _ -> ()
  in
  let remaining =
    Evloop.run ~listen_fd
      ~quit:(fun () -> st.quit)
      ~on_line:(fun conn line -> handle_line st conn line)
      ~on_accept:(fun _ -> Registry.incr st.tel.conns_total)
      ~on_conns:(fun n -> Registry.set st.tel.conns_active n)
      ~tick ~recv_fault:"serve.recv" ()
  in
  if st.stop_reason <> "" then
    Printf.eprintf "racedet serve: shutting down (%s)\n%!" st.stop_reason;
  (match st.failed with
  | Some _ -> ()  (* fail-fast: the on-disk checkpoint of the last good batch stands *)
  | None ->
    write_checkpoint st;
    (try write_metrics_json_file st
     with Sharded.Shard_failed msg -> st.failed <- Some msg));
  (match st.det with
  | Some det -> ( try Sharded.stop det with Sharded.Shard_failed _ -> ())
  | None -> ());
  List.iter Evloop.close_conn remaining;
  Unix.close listen_fd;
  (match cfg.listen with
  | Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  (match cfg.chaos with
  | None -> ()
  | Some _ ->
    Printf.eprintf "racedet serve: chaos summary: %d faults fired over %d checks, %d shard restarts\n%!"
      (Fault.fired ()) (Fault.checks ())
      (match st.det with Some det -> Sharded.restarts_total det | None -> 0));
  match st.failed with
  | Some msg -> failwith ("racedet serve: " ^ msg)
  | None -> ()

(* --- client side ---------------------------------------------------------- *)

(* Connect with capped exponential backoff: 10ms doubling to 0.8s, plus a
   deterministic jitter drawn from {!Ft_support.Prng} seeded by [?seed] (so
   two emitters racing to the same socket desynchronize, yet a given seed
   replays the exact attempt schedule).  Bounded by [?deadline_s] wall time
   rather than an attempt count — a server that takes 3s to come up costs a
   handful of attempts either way, but a dead one fails at a predictable
   time.  The [emit.connect] injection point makes each attempt chaos-able:
   an injected Exn counts as a failed attempt and backs off like one. *)
let backoff_base_s = 0.01
let backoff_cap_s = 0.8

let connect_stats ?(recv_timeout_s = 0.25) ?deadline_s ?(seed = 0) addr =
  let deadline =
    Clock.now_s () +. Option.value deadline_s ~default:default_deadline_s
  in
  let prng = Prng.create ~seed:(seed lxor 0x5eeed) in
  let rec go ~attempt ~backoff =
    let fd = Unix.socket ~cloexec:true (socket_domain_of_addr addr) Unix.SOCK_STREAM 0 in
    match
      Fault.point ~supports:[ Fault.Exn; Fault.Delay ] "emit.connect";
      Unix.connect fd (sockaddr_of_addr addr)
    with
    | () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO recv_timeout_s;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
      (fd, attempt)
    | exception
        (( Unix.Unix_error
             ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ETIMEDOUT), _, _)
         | Fault.Injected _ ) as e) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if Clock.now_s () +. backoff > deadline then
        match e with
        | Fault.Injected _ ->
          raise
            (Unix.Unix_error (Unix.ECONNREFUSED, "connect (chaos)", addr_to_string addr))
        | e -> raise e
      else begin
        Unix.sleepf (backoff +. Prng.float prng (backoff /. 2.0));
        go ~attempt:(attempt + 1) ~backoff:(Stdlib.min backoff_cap_s (2.0 *. backoff))
      end
  in
  go ~attempt:1 ~backoff:backoff_base_s

let connect ?recv_timeout_s ?deadline_s ?seed addr =
  fst (connect_stats ?recv_timeout_s ?deadline_s ?seed addr)

let deadline_at deadline_s =
  Clock.now_s () +. Option.value deadline_s ~default:default_deadline_s

let deadline_error at = Printf.sprintf "timed out (deadline %.1fs ago)" (Clock.now_s () -. at)

let expect_line ~deadline_at fd =
  match read_line_fd ~deadline_at fd with
  | line -> Ok line
  | exception End_of_file -> Error "server closed the connection"
  | exception Recv_deadline at -> Error (deadline_error at)
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

(* [<verb> <nbytes>\n<blob>] replies: validate the header, then read the
   sized blob under the same overall deadline. *)
let expect_blob ~deadline_at fd ~verb =
  match expect_line ~deadline_at fd with
  | Error _ as e -> e
  | Ok line -> (
    match String.split_on_char ' ' line with
    | [ v; nbytes ] when v = verb -> (
      match int_of_string_opt nbytes with
      | Some n -> (
        try Ok (really_read ~deadline_at fd n) with
        | End_of_file -> Error ("truncated " ^ String.lowercase_ascii verb)
        | Recv_deadline at -> Error (deadline_error at)
        | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))
      | None -> Error ("malformed reply: " ^ line))
    | _ -> Error line)

let expect_ok ~deadline_at fd =
  match expect_line ~deadline_at fd with
  | Error _ as e -> e
  | Ok line -> (
    match String.split_on_char ' ' line with
    | [ "OK"; total ] | [ "OK"; total; _ ] -> (
      match int_of_string_opt total with
      | Some t -> Ok t
      | None -> Error ("malformed reply: " ^ line))
    | _ -> Error line)

let send_batch ?deadline_s fd ~base trace =
  let deadline_at = deadline_at deadline_s in
  let payload = Trace_binary.to_bytes trace in
  match
    write_all fd (Printf.sprintf "BATCH %d %d\n" base (Bytes.length payload));
    write_all fd (Bytes.to_string payload)
  with
  | () -> expect_ok ~deadline_at fd
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

(* Fire-and-forget half of [send_cbatch] for the router's pipelined window:
   the CBATCH goes out now, its "OK <total>" ack is collected later by the
   ack pump.  Raises on write errors — the caller owns worker recovery. *)
let send_cbatch_nowait fd ~seq payload =
  write_all fd (Printf.sprintf "CBATCH %d %d\n" seq (String.length payload));
  write_all fd payload

let send_cbatch ?deadline_s fd ~seq payload =
  let deadline_at = deadline_at deadline_s in
  match
    write_all fd (Printf.sprintf "CBATCH %d %d\n" seq (String.length payload));
    write_all fd payload
  with
  | () -> expect_ok ~deadline_at fd
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let fetch_report ?deadline_s fd =
  let deadline_at = deadline_at deadline_s in
  match write_all fd "REPORT\n" with
  | () -> expect_blob ~deadline_at fd ~verb:"REPORT"
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let fetch_result ?deadline_s fd =
  let deadline_at = deadline_at deadline_s in
  match write_all fd "RESULT\n" with
  | () -> (
    match expect_blob ~deadline_at fd ~verb:"RESULT" with
    | Error _ as e -> e
    | Ok blob -> Cmsg.decode_result blob)
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let fetch_seq ?deadline_s fd =
  let deadline_at = deadline_at deadline_s in
  match write_all fd "SEQ\n" with
  | () -> (
    match expect_line ~deadline_at fd with
    | Error _ as e -> e
    | Ok line -> (
      match String.split_on_char ' ' line with
      | [ "SEQ"; n ] -> (
        match int_of_string_opt n with
        | Some v when v >= 0 -> Ok v
        | _ -> Error ("malformed reply: " ^ line))
      | _ -> Error line))
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let fetch_stats ?deadline_s ?(format = `Prometheus) fd =
  let deadline_at = deadline_at deadline_s in
  let cmd = match format with `Prometheus -> "STATS\n" | `Json -> "STATS JSON\n" in
  match write_all fd cmd with
  | () -> expect_blob ~deadline_at fd ~verb:"STATS"
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let shutdown ?deadline_s fd =
  let deadline_at = deadline_at deadline_s in
  match write_all fd "SHUTDOWN\n" with
  | () -> (
    match expect_line ~deadline_at fd with
    | Ok "BYE" -> Ok ()
    | Ok line -> Error line
    | Error _ as e -> e)
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let migrate ?deadline_s fd worker =
  let deadline_at = deadline_at deadline_s in
  match write_all fd (Printf.sprintf "MIGRATE %d\n" worker) with
  | () -> Result.map (fun _ -> ()) (expect_ok ~deadline_at fd)
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let resize ?deadline_s fd delta =
  let deadline_at = deadline_at deadline_s in
  match write_all fd (Printf.sprintf "RESIZE %+d\n" delta) with
  | () -> expect_ok ~deadline_at fd
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

(* Generalizes [unix_listener_alive] to both address kinds: one connect
   probe, no protocol exchange.  A loopback TCP port with no listener
   refuses immediately, so this stays a fast check for stale ready-files. *)
let addr_alive addr =
  match addr with
  | Unix_path path -> unix_listener_alive path
  | Tcp _ -> (
    let fd = Unix.socket ~cloexec:true (socket_domain_of_addr addr) Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect fd (sockaddr_of_addr addr) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    live)

let close fd = try Unix.close fd with Unix.Unix_error _ -> ()
