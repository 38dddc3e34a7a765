module Trace = Ft_trace.Trace
module Event = Ft_trace.Event
module Trace_binary = Ft_trace.Trace_binary
module Validator = Ft_trace.Validator
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

(* One connect probe, no protocol exchange.  A live daemon accepts; a
   stale socket file left by a crashed one refuses (or the path is gone),
   and a loopback TCP port with no listener refuses at once.  Probing
   before the bind keeps two servers handed the same path from silently
   orphaning each other — the second refuses to start instead of
   unlinking the first's socket. *)
let addr_alive addr =
  (match addr with Unix_path path -> Sys.file_exists path | Tcp _ -> true)
  &&
  let fd = Unix.socket ~cloexec:true (socket_domain_of_addr addr) Unix.SOCK_STREAM 0 in
  let live =
    match Unix.connect fd (sockaddr_of_addr addr) with
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
    if addr_alive addr then
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
  shards : int;  (* must be 1: a BATCH session is a front and one checker *)
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
  max_restarts : int;  (* must be 0: a failed shard fails fast *)
  chaos : Fault.config option;  (* armed at startup when present *)
}

let default_max_parked = 1024
let default_checkpoint_every = 1
let default_deadline_s = 30.0
let default_max_restarts = 0

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
   path").  Checker and detector series are mirrors refreshed on demand:
   the checker's message count lives with the front, the merged Metrics
   with the engines, and both are monotone, so copying them into registry
   counters at STATS time preserves Prometheus counter semantics. *)
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
  checkpoint_failures : Registry.counter;
  ingest_ns : Histogram.t;
  started_ns : int64;
  mutable ring_gauge : Registry.gauge option;  (* BATCH sessions only *)
  mutable shard_events : Registry.counter option;  (* BATCH sessions only, mirrored *)
  mutable det_fields : Registry.counter array;  (* Metrics.field_names order *)
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
    checkpoint_failures =
      Registry.counter reg "serve_checkpoint_failures_total"
        ~help:"Checkpoint sets abandoned because a write faulted";
    ingest_ns =
      Registry.histogram reg "serve_batch_ingest_ns"
        ~help:"Per-batch ingest latency (feed + drain + checkpoint), nanoseconds";
    started_ns = Clock.now_ns ();
    ring_gauge = None;
    shard_events = None;
    det_fields = [||];
  }

(* The checker and per-field series exist once the session does; only a
   BATCH session has a checker ring. *)
let attach_series tel ~pipeline =
  if Array.length tel.det_fields = 0 then begin
    if pipeline then begin
      tel.ring_gauge <-
        Some
          (Registry.gauge tel.reg "serve_shard_ring_occupancy"
             ~help:"Unconsumed messages in the checker's ring");
      tel.shard_events <-
        Some
          (Registry.counter tel.reg "serve_shard_events_total"
             ~help:"Messages pushed to the checker (sampled accesses and view changes)")
    end;
    tel.det_fields <-
      Array.map
        (fun f ->
          Registry.counter tel.reg "racedet_metric"
            ~help:"Merged detector work counters (front + checker)"
            ~labels:[ ("field", f) ])
        Metrics.field_names
  end

(* --- server state -------------------------------------------------------- *)

(* A cluster worker's checker: one engine instance sampling everything,
   applied inline.  Its router is the front (DESIGN.md §6e), so there is
   no pipeline here: the router's respawn is the recovery. *)
type checker = {
  inst : Front.inst;
  vsize : int;  (* view entries per thread *)
  mutable checked : int;  (* accesses checked *)
}

let checker engine ?snap (config : Detector.config) =
  let ((module D : Detector.S) as packed) = Engine.detector engine in
  {
    inst = Front.instance packed ?snap { config with Detector.sampler = Sampler.all };
    vsize = D.view_size config;
    checked = 0;
  }

(* The session speaks either plain BATCH streams (units: events) into a
   front-and-checker pipeline, or cluster CBATCH streams (units: messages)
   into one inline checker; the admitter counts stream units, so mixing the
   two would silently corrupt the idempotent-resend arithmetic. *)
type session = Batch of Sharded.t | Cluster of checker

type state = {
  cfg : config;
  tel : telemetry;
  mutable session : session option;  (* fixed by the first ingested batch, or the resumed set *)
  mutable universe : (int * int * int) option;  (* nthreads, nlocks, nlocs *)
  mutable clock_size : int;
  mutable admit : Admit.t;  (* stream position: events (BATCH) or messages (CBATCH) *)
  mutable since_ckpt : int;  (* BATCH mode: ingested batches since the last checkpoint set *)
  mutable applied_since_ckpt : int;  (* CBATCH mode: payload bytes applied since then *)
  mutable ckpt_bytes : int;  (* snapshot bytes of the newest set, written or resumed from *)
  mutable durable : int;  (* stream position of the newest consistent set on disk *)
  mutable quit : bool;
  mutable stop_reason : string;  (* what ended the serve loop, for the log *)
  mutable failed : string option;  (* fail-fast diagnostic: exit non-zero *)
}

let session_result = function
  | Batch det -> Sharded.result det
  | Cluster c -> c.inst.Front.i_result ()

let session_events = function Batch det -> Sharded.events det | Cluster c -> c.checked

(* A checkpoint set is one file, checksummed and written atomically
   (write-fsync-rename): a crash or a faulted write mid-set leaves the
   previous set whole, so the durable cut a cluster worker reports never
   moves backwards.  It opens with the session kind: a BATCH set holds the
   router snapshot, a checker count that is always 1 and the checker's
   snapshot, a CBATCH set the checked count and the checker's snapshot. *)
let set_file dir = Filename.concat dir "set.ftc"

let batch_set = -1
let cluster_set = -2

let encode_set session =
  let enc = Snap.Enc.create () in
  (match session with
  | Batch det ->
    let snap = Sharded.shard_snapshot det in
    Snap.Enc.int enc batch_set;
    Snap.Enc.string enc (Sharded.router_snapshot det);
    Snap.Enc.int enc 1;
    Snap.Enc.string enc snap
  | Cluster c ->
    Snap.Enc.int enc cluster_set;
    Snap.Enc.int enc c.checked;
    Snap.Enc.string enc (c.inst.Front.i_snapshot ()));
  Snap.Enc.to_snap enc

(* A set with an older layout opens with its router snapshot's length
   instead of a kind, and one written with more than one checker has a
   count above 1; both are refused like any other mismatch. *)
let decode_set (cfg : config) config set =
  let dec = Snap.Dec.of_snap set in
  let kind = Snap.Dec.int dec in
  if kind = cluster_set then begin
    let checked = Snap.Dec.int dec in
    let c = checker cfg.engine ~snap:(Snap.Dec.string dec) config in
    Snap.Dec.finish dec;
    c.checked <- checked;
    Cluster c
  end
  else begin
    Snap.expect (kind = batch_set) "checkpoint set has an older layout";
    let router = Snap.Dec.string dec in
    Snap.expect (Snap.Dec.int dec = 1) "checkpoint set has more than one checker";
    let snap = Snap.Dec.string dec in
    Snap.Dec.finish dec;
    Batch (Sharded.restore ~engine:cfg.engine config ~router snap)
  end

exception Checkpoint_failed of string

(* A failed write leaves the previous set on disk.  A BATCH session acks a
   batch only once it is durable, so the failure raises [Checkpoint_failed]
   (the daemon fails fast).  A CBATCH worker's acks report the durable cut,
   which stays the previous set's: it logs, counts and keeps serving. *)
let write_checkpoint st =
  match (st.cfg.checkpoint_dir, st.session, st.universe) with
  | Some dir, Some session, Some (nthreads, nlocks, nlocs) -> (
    let set = encode_set session in
    let meta =
      {
        Checkpoint.engine = st.cfg.engine;
        sampler = Sampler.name st.cfg.sampler;
        nthreads;
        nlocks;
        nlocs;
        clock_size = st.clock_size;
        next_index = Admit.expected st.admit;
        byte_offset = -1;
      }
    in
    match Checkpoint.save (set_file dir) { Checkpoint.meta; detector = set } with
    | () ->
      let bytes = String.length set in
      Registry.incr st.tel.checkpoints_total;
      Registry.add st.tel.checkpoint_bytes_total bytes;
      st.ckpt_bytes <- bytes;
      st.applied_since_ckpt <- 0;
      st.durable <- Admit.expected st.admit
    | exception e -> (
      Registry.incr st.tel.checkpoint_failures;
      let msg = "checkpoint write failed: " ^ Printexc.to_string e in
      match session with
      | Batch _ -> raise (Checkpoint_failed msg)
      | Cluster _ -> Printf.eprintf "racedet serve: %s; continuing\n%!" msg))
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

let detector_config (cfg : config) (nthreads, nlocks, nlocs) =
  let clock_size =
    match cfg.clock_size with None -> nthreads | Some s -> Stdlib.max s nthreads
  in
  { Detector.nthreads; nlocks; nlocs; clock_size; sampler = cfg.sampler }

(* Resume from a checkpoint directory.  Any inconsistency (missing file,
   checksum failure, a set with more than one checker, an older layout)
   degrades to a logged fresh start — clients resend idempotently, so the
   result is still exact. *)
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
      let u = (meta.Checkpoint.nthreads, meta.Checkpoint.nlocks, meta.Checkpoint.nlocs) in
      let config = { (detector_config cfg u) with clock_size = meta.Checkpoint.clock_size } in
      match decode_set cfg config cp.Checkpoint.detector with
      | session -> Ok (session, config, meta, String.length cp.Checkpoint.detector)
      | exception Snap.Corrupt msg -> Error msg
    in
    (match outcome with
    | Ok r -> Some r
    | Error msg ->
      Printf.eprintf "racedet serve: cannot resume from %s (%s); starting fresh\n%!" dir
        msg;
      None)

let open_session st session (config : Detector.config) =
  st.session <- Some session;
  st.universe <- Some (config.Detector.nthreads, config.Detector.nlocks, config.Detector.nlocs);
  st.clock_size <- config.Detector.clock_size;
  attach_series st.tel ~pipeline:(match session with Batch _ -> true | Cluster _ -> false)

let universe_differs = Error "batch universe differs from the session's"

(* The pipeline a BATCH over universe [u] feeds: the session's, or a fresh
   one that opens it. *)
let batch_session st u =
  match st.session with
  | Some (Cluster _) -> Error "session already ingests CBATCH streams (cluster worker)"
  | Some (Batch det) -> if st.universe = Some u then Ok det else universe_differs
  | None ->
    let config = detector_config st.cfg u in
    let det = Sharded.create ~engine:st.cfg.engine config in
    open_session st (Batch det) config;
    Ok det

(* The checker a CBATCH over universe [u] goes to: the session's, or a
   fresh one that opens it once a batch is applied. *)
let cluster_checker st u =
  match st.session with
  | Some (Batch _) -> Error "session already ingests BATCH streams (not a cluster worker)"
  | Some (Cluster c) -> if st.universe = Some u then Ok c else universe_differs
  | None -> Ok (checker st.cfg.engine (detector_config st.cfg u))

let reply = Evloop.reply

(* A failed checker or BATCH checkpoint write is unrecoverable
   within this process: reply with the diagnostic, then fail fast.  The
   last good checkpoint set stays on disk; a successor resumes from it
   while clients resend. *)
let fail_fast st conn msg =
  st.failed <- Some msg;
  st.stop_reason <- "failed fast";
  st.quit <- true;
  reply conn (Printf.sprintf "ERR %s\n" msg)

let guard st conn f =
  try f () with
  | Failure msg -> reply conn (Printf.sprintf "ERR %s\n" msg)
  | Sharded.Shard_failed msg | Checkpoint_failed msg -> fail_fast st conn msg
  | Validator.Ill_formed msg -> fail_fast st conn ("ill-formed trace: " ^ msg)

(* Feed a due batch through the admitter, run [after] on the count of
   units it newly admitted (the checkpoint step), and count the batch. *)
let ingest st ~base ~len f ~after =
  let before = Admit.expected st.admit in
  let t0 = Clock.now_ns () in
  Admit.feed st.admit ~base ~len f;
  let ingested = Admit.expected st.admit - before in
  after ingested;
  let tel = st.tel in
  if ingested = 0 then Registry.incr tel.duplicate_total
  else begin
    Registry.incr tel.batches_total;
    Registry.add tel.events_total ingested;
    if base < before then Registry.incr tel.resent_total
  end;
  Histogram.observe tel.ingest_ns (Int64.to_int (Int64.sub (Clock.now_ns ()) t0))

let handle_batch st conn base payload =
  if base < 0 then reply conn "ERR negative base index\n"
  else
    (* [unsafe_of_string]: [payload] is a fresh private string from
       [Netbuf.take] and the decoder never writes through the reader *)
    match Trace_binary.of_bytes (Bytes.unsafe_of_string payload) with
    | Error msg -> reply conn (Printf.sprintf "ERR bad batch: %s\n" msg)
    | Ok trace -> (
      match batch_session st (trace.Trace.nthreads, trace.Trace.nlocks, trace.Trace.nlocs) with
      | Error msg -> reply conn (Printf.sprintf "ERR %s\n" msg)
      | Ok det ->
        guard st conn @@ fun () ->
        let len = Trace.length trace in
        let events first =
          for i = first to len - 1 do
            Sharded.handle det (base + i) (Trace.get trace i)
          done
        in
        let ok () = reply conn (Printf.sprintf "OK %d\n" (Admit.expected st.admit)) in
        (match Admit.verdict st.admit base with
        | Admit.Refuse -> reply conn "ERR parked batch limit exceeded\n"
        | Admit.Park ->
          Admit.park st.admit ~base ~len events;
          Registry.incr st.tel.parked_total;
          ok ()
        | Admit.Due ->
          ingest st ~base ~len events ~after:(fun _ -> maybe_checkpoint st);
          ok ()))

(* Why a message does not fit checker [c] over universe [u], if it does
   not.  A batch is checked whole before its first message is applied, so
   a bad one changes nothing. *)
let misfit c (nthreads, _, nlocs) = function
  | Cmsg.View (th, idx, _) ->
    let n = Array.length idx in
    if th < nthreads && (n = 0 || idx.(n - 1) < c.vsize) then None
    else Some (Printf.sprintf "view of thread %d out of range" th)
  | Cmsg.Acc (i, e) -> (
    match e.Event.op with
    | (Event.Read x | Event.Write x) when e.Event.thread < nthreads && x < nlocs -> None
    | _ -> Some (Printf.sprintf "event %d is not a checkable access" i))

(* A [View] goes to the engine's import, which bumps the thread's view
   version even when no entry changes, as the router's sync handler did. *)
let apply c = function
  | Cmsg.View (th, idx, vals) -> c.inst.Front.i_import th idx vals
  | Cmsg.Acc (i, e) ->
    c.inst.Front.i_handle i e;
    c.checked <- c.checked + 1

(* A cluster sub-stream batch.  The router is this worker's only client and
   sends sequence-contiguous CBATCHes, so nothing parks here — a batch
   ahead of the cursor is refused — and only the idempotent prefix skip
   remains, which makes post-recovery replays (and a restarted router
   replaying from zero) exact. *)
let handle_cbatch st conn seq payload =
  if seq < 0 then reply conn "ERR negative sequence number\n"
  else
    match Cmsg.decode payload with
    | Error msg -> reply conn (Printf.sprintf "ERR bad cluster batch: %s\n" msg)
    | Ok (u, msgs) -> (
      match cluster_checker st u with
      | Error msg -> reply conn (Printf.sprintf "ERR %s\n" msg)
      | Ok c -> (
        match (Array.find_map (misfit c u) msgs, Admit.verdict st.admit seq) with
        | Some msg, _ -> reply conn (Printf.sprintf "ERR bad cluster batch: %s\n" msg)
        | None, (Admit.Park | Admit.Refuse) ->
          reply conn
            (Printf.sprintf "ERR cluster batch from the future (seq %d, expected %d)\n" seq
               (Admit.expected st.admit))
        | None, Admit.Due -> (
          if Option.is_none st.session then open_session st (Cluster c) (detector_config st.cfg u);
          let n = Array.length msgs in
          match
            ingest st ~base:seq ~len:n
              (fun first ->
                for j = first to n - 1 do
                  apply c msgs.(j)
                done)
              ~after:(fun ingested ->
                maybe_checkpoint_bytes st
                  (if n = 0 then 0 else String.length payload * ingested / n))
          with
          | () -> reply conn (Printf.sprintf "OK %d %d\n" (Admit.expected st.admit) st.durable)
          | exception e -> fail_fast st conn ("checker failed: " ^ Printexc.to_string e))))

(* --- STATS ----------------------------------------------------------------- *)

(* Cheap refresh: registry gauges and router-side mirrors only — safe for
   the heartbeat, which must not stall ingestion behind a ring flush. *)
let refresh_cheap st =
  let tel = st.tel in
  Registry.set tel.parked_now (Admit.parked st.admit);
  Registry.set tel.uptime (int_of_float (Clock.elapsed_s ~since:tel.started_ns));
  Registry.set_counter tel.faults_injected (Fault.fired ());
  match st.session with
  | None | Some (Cluster _) -> ()
  | Some (Batch det) ->
    Option.iter (fun g -> Registry.set g (Sharded.ring_occupancy det)) tel.ring_gauge;
    Option.iter (fun c -> Registry.set_counter c (Sharded.shard_events det)) tel.shard_events

(* Full refresh: additionally flush the checker and mirror the merged
   detector metrics.  [Sharded.result] waits for the ring to drain, so this
   runs only on explicit STATS queries and at shutdown, never on the
   heartbeat. *)
let refresh_full st =
  refresh_cheap st;
  match st.session with
  | None -> None
  | Some s ->
    let result = session_result s in
    Array.iteri
      (fun i v ->
        if i < Array.length st.tel.det_fields then
          Registry.set_counter st.tel.det_fields.(i) v)
      (Metrics.to_array result.Detector.metrics);
    Some result

let stats_json st result =
  let events = match st.session with Some s -> session_events s | None -> 0 in
  let pipeline f =
    match st.session with Some (Batch det) -> f det | None | Some (Cluster _) -> 0
  in
  Json.Obj
    [
      ("engine", Json.Str (Engine.name st.cfg.engine));
      ("sampler", Json.Str (Sampler.name st.cfg.sampler));
      ("events", Json.Int events);
      ("next_index", Json.Int (Admit.expected st.admit));
      ("parked", Json.Int (Admit.parked st.admit));
      ("uptime_s", Json.Float (Clock.elapsed_s ~since:st.tel.started_ns));
      ("ring_occupancy", Json.Int (pipeline Sharded.ring_occupancy));
      ("shard_events", Json.Int (pipeline Sharded.shard_events));
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
    (Admit.parked st.admit)
    (Registry.gauge_value tel.conns_active)
    (float_of_int (Histogram.quantile tel.ingest_ns 0.99) /. 1e6)
    (float_of_int (Histogram.max_value tel.ingest_ns) /. 1e6)

let handle_line st conn line =
  match String.split_on_char ' ' (String.trim line) with
  | [ ("BATCH" | "CBATCH") as verb; base; nbytes ] -> (
    match (int_of_string_opt base, int_of_string_opt nbytes) with
    | Some b, Some n when n >= 0 ->
      Evloop.await_blob conn n
        ((if verb = "BATCH" then handle_batch else handle_cbatch) st conn b)
    | _ -> reply conn (Printf.sprintf "ERR malformed %s header\n" verb))
  | [ ("REPORT" | "RESULT") as verb ] -> (
    match st.session with
    | None -> reply conn "ERR no events ingested\n"
    | Some s ->
      guard st conn (fun () ->
          let r = session_result s in
          (* RESULT: the raw partial result, for a cluster router's merge *)
          Evloop.reply_blob conn verb
            (if verb = "REPORT" then report_text ~events:(session_events s) r
             else Cmsg.encode_result r)))
  | [ "SEQ" ] ->
    (* where this session's stream stands — what a recovering router uses
       to find the replay point after respawning a worker *)
    reply conn (Printf.sprintf "SEQ %d\n" (Admit.expected st.admit))
  | "STATS" :: (([] | [ "PROM" ] | [ "JSON" ]) as format) ->
    guard st conn (fun () ->
        Evloop.reply_blob conn "STATS"
          (stats_payload st (if format = [ "JSON" ] then `Json else `Prometheus)))
  | [ "SHUTDOWN" ] ->
    guard st conn (fun () ->
        write_checkpoint st;
        reply conn "BYE\n";
        st.stop_reason <- "SHUTDOWN command";
        st.quit <- true)
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
  if cfg.shards <> 1 then
    invalid_arg "Serve.run: shards must be 1 (a BATCH session is a front and one checker)";
  if cfg.max_restarts <> 0 then
    invalid_arg "Serve.run: max_restarts must be 0 (a failed shard fails fast)";
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
      session = None;
      universe = None;
      clock_size = 0;
      admit = Admit.create cfg.max_parked;
      since_ckpt = 0;
      applied_since_ckpt = 0;
      ckpt_bytes = 0;
      durable = 0;
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
  | Some (session, config, meta, bytes) ->
    open_session st session config;
    st.admit <- Admit.create ~expected:meta.Checkpoint.next_index cfg.max_parked;
    st.durable <- meta.Checkpoint.next_index;
    st.ckpt_bytes <- bytes;
    Printf.eprintf "racedet serve: resumed at event %d\n%!" meta.Checkpoint.next_index);
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
  | None -> (
    try
      write_checkpoint st;
      write_metrics_json_file st
    with Sharded.Shard_failed msg | Checkpoint_failed msg -> st.failed <- Some msg));
  (match st.session with
  | Some (Batch det) -> ( try Sharded.stop det with Sharded.Shard_failed _ -> ())
  | Some (Cluster _) | None -> ());
  List.iter Evloop.close_conn remaining;
  Unix.close listen_fd;
  (match cfg.listen with
  | Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  (match cfg.chaos with
  | None -> ()
  | Some _ ->
    Printf.eprintf "racedet serve: chaos summary: %d faults fired over %d checks\n%!"
      (Fault.fired ()) (Fault.checks ()));
  match st.failed with
  | Some msg -> failwith msg
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

(* A [<verb> <n>] reply line ([OK <total>], [SEQ <n>], a blob header):
   [n ≥ 0], or the line itself as the error ([ERR ...]). *)
let expect_count ~verb ~deadline_at fd =
  match expect_line ~deadline_at fd with
  | Error _ as e -> e
  | Ok line -> (
    match String.split_on_char ' ' line with
    | [ v; n ] when v = verb -> (
      match int_of_string_opt n with
      | Some n when n >= 0 -> Ok n
      | _ -> Error ("malformed reply: " ^ line))
    | _ -> Error line)

(* [<verb> <nbytes>\n<blob>] replies: the header, then the sized blob
   under the same overall deadline. *)
let expect_blob ~verb ~deadline_at fd =
  match expect_count ~verb ~deadline_at fd with
  | Error _ as e -> e
  | Ok n -> (
    try Ok (really_read ~deadline_at fd n) with
    | End_of_file -> Error ("truncated " ^ String.lowercase_ascii verb)
    | Recv_deadline at -> Error (deadline_error at)
    | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))

(* One client request: write it, then read the reply under one overall
   deadline. *)
let request ?deadline_s fd msg read =
  let deadline_at = deadline_at deadline_s in
  match write_all fd msg with
  | () -> read ~deadline_at fd
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let send_batch ?deadline_s fd ~base trace =
  (* [unsafe_to_string]: the encoding is fresh and never written again *)
  let payload = Bytes.unsafe_to_string (Trace_binary.to_bytes trace) in
  request ?deadline_s fd
    (Printf.sprintf "BATCH %d %d\n" base (String.length payload) ^ payload)
    (expect_count ~verb:"OK")

(* The router's pipelined window: the CBATCH goes out now, its
   "OK <total> <durable>" ack is collected later by the ack pump.  Raises
   on write errors — the caller owns worker recovery. *)
let send_cbatch_nowait fd ~seq payload =
  write_all fd (Printf.sprintf "CBATCH %d %d\n" seq (String.length payload));
  write_all fd payload

let fetch_report ?deadline_s fd = request ?deadline_s fd "REPORT\n" (expect_blob ~verb:"REPORT")

let fetch_result ?deadline_s fd =
  Result.bind
    (request ?deadline_s fd "RESULT\n" (expect_blob ~verb:"RESULT"))
    Cmsg.decode_result

let fetch_seq ?deadline_s fd = request ?deadline_s fd "SEQ\n" (expect_count ~verb:"SEQ")

let fetch_stats ?deadline_s ?(format = `Prometheus) fd =
  let cmd = match format with `Prometheus -> "STATS\n" | `Json -> "STATS JSON\n" in
  request ?deadline_s fd cmd (expect_blob ~verb:"STATS")

let shutdown ?deadline_s fd =
  request ?deadline_s fd "SHUTDOWN\n" (fun ~deadline_at fd ->
      match expect_line ~deadline_at fd with
      | Ok "BYE" -> Ok ()
      | Ok line -> Error line
      | Error _ as e -> e)

let migrate ?deadline_s fd worker =
  Result.map ignore
    (request ?deadline_s fd (Printf.sprintf "MIGRATE %d\n" worker) (expect_count ~verb:"OK"))

let resize ?deadline_s fd delta =
  request ?deadline_s fd (Printf.sprintf "RESIZE %+d\n" delta) (expect_count ~verb:"OK")

let close fd = try Unix.close fd with Unix.Unix_error _ -> ()
