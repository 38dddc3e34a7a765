(** The [racedet serve] ingestion daemon and its client side.

    A server listens on a Unix-domain socket or a TCP address and feeds a
    {!Sharded} pipeline — a front and one checker on two domains — from
    event batches pushed by any number of client processes.  The wire protocol is line-framed with binary payloads:

    {v
    client → server                      server → client
    BATCH <base> <nbytes>\n  <.ftb blob> OK <total>\n            |  ERR <reason>\n
    CBATCH <seq> <nbytes>\n  <cluster>   OK <total> <durable>\n  |  ERR <reason>\n
    REPORT\n                             REPORT <nbytes>\n <report text>
    RESULT\n                             RESULT <nbytes>\n <partial result>
    SEQ\n                                SEQ <n>\n
    STATS\n                              STATS <nbytes>\n <Prometheus text>
    STATS JSON\n                         STATS <nbytes>\n <JSON document>
    SHUTDOWN\n                           BYE\n
    v}

    Every batch is a complete .ftb file (header + events) whose header
    declares the shared universe; [base] is the {e global} index of the
    batch's first event.  Explicit bases make multi-client ingestion
    deterministic: the server ingests strictly in index order through
    {!Admit}, the one admission rule it shares with the cluster router —
    parking batches that arrive early (at most [max_parked]; one more is
    refused with [ERR parked batch limit exceeded]) and skipping
    already-ingested prefixes idempotently — so a client may blindly
    resend after a crash.
    [OK <total>] reports how many events have been ingested so far.

    [CBATCH]/[RESULT]/[SEQ] are the cluster-worker face of the same daemon
    (see {!Cmsg} and DESIGN.md §6e): a {!Ft_cluster} router streams
    consistent-hash sub-streams of checker messages, sequenced by a dense
    per-worker counter, and merges the workers' [RESULT] blobs.  A session
    speaks either [BATCH] or [CBATCH], fixed by the first ingested batch
    (or the resumed set); mixing them is refused.  A [CBATCH] session is
    one engine instance, applied inline — no domains, no supervisor — and
    a batch is checked whole against the universe before its first message
    is applied, so a bad one answers [ERR] and changes nothing.  [CBATCH] admits through the same
    {!Admit} but never parks — the router is the only client and sends in
    order, so a batch ahead of the cursor is refused — while resent
    prefixes are skipped idempotently, which is what makes post-recovery
    replay exact.  A [CBATCH] ack also reports the worker's durable cut
    [<durable>]: the stream position of its newest whole checkpoint set (0
    without one), which is where a respawned worker's [SEQ] will land.

    [STATS] snapshots the daemon's telemetry ({!Ft_obs.Registry}): ingest
    counters (batches fed / parked / duplicate / resent, events), per-batch
    ingest-latency histogram (p50/p90/p99/max), the checker's ring
    occupancy and message count, connection counts, and the merged detector
    {!Ft_core.Metrics} — as Prometheus text exposition or as one JSON
    document.  Counters are monotone across successive queries; answering
    [STATS] flushes the checker's ring (like [REPORT]) so the merged metrics
    are a consistent prefix snapshot.  Instrumentation is confined to batch
    and command boundaries and never touches the per-event detection loop,
    so [REPORT] output stays byte-identical to [racedet analyze].

    With a checkpoint directory the server persists checkpoint sets: one
    file, [set.ftc], in the {!Ft_snapshot.Checkpoint} container —
    checksummed and written atomically, so a crash mid-write leaves the
    previous set whole.  It opens with the session kind: a [BATCH] set
    holds the router snapshot (sampler state, front engine, tally, shipped
    views), a checker count that is always 1, and the checker's snapshot —
    the bytes a one-shard set of the K-checker daemon this replaced had, so
    such a set resumes and one with more shards starts fresh; a [CBATCH]
    set holds the checked count and the checker's snapshot.  In [BATCH] mode a set is written
    every [checkpoint_every] ingested batches {e before acknowledging}
    (default 1: an acknowledged batch is durable); a failed write answers
    [ERR checkpoint write failed: ...] and fails the daemon fast, keeping
    the previous set.  In [CBATCH] mode the
    cadence is size-driven: a set is written once the payload bytes newly
    applied since the last set reach that set's snapshot bytes, so
    snapshot work is amortized O(1) per routed byte and a crash loses at
    most about one set's worth of stream, which the router replays from
    its log, and a failed write is logged and skipped: the ack keeps
    reporting the previous set's cut.  Both modes write a final set on
    shutdown.  A restarted
    server pointed at the directory resumes exactly; if the set is missing,
    inconsistent or of an older layout it logs the reason and starts
    fresh, which is still correct because clients resend idempotently.

    {2 Robustness}

    A failed checker ({!Sharded.Shard_failed}) fails the daemon fast: the
    request that meets it answers [ERR] with the diagnostic, and the daemon
    exits non-zero without writing another set, so the last good
    checkpoint set stays on disk.  Recovery is the one path every level
    shares: a successor started with [resume_dir] restores that set, and
    the clients' idempotent resend replays the rest, so its [REPORT] is
    byte-identical to an unfaulted run's.  A failed [CBATCH] checker fails
    the daemon fast the same way; its router respawns it from its newest
    set.  [SIGTERM] and
    [SIGINT] trigger the same graceful path as
    a [SHUTDOWN] command — drain the ring, write a final checkpoint set,
    dump [metrics_json] — even when the signal lands inside [accept] or a
    blocking read (both are EINTR-guarded).  A [chaos] config arms the
    deterministic fault-injection layer ({!Ft_fault.Fault}) over the
    daemon's injection points ([serve.recv], [shard.step], [spsc.push],
    [checkpoint.write]) and reports fired faults through the
    [racedet_faults_injected] counter and a shutdown summary line. *)

(** {1 Transport addresses} *)

type addr =
  | Unix_path of string  (** Unix-domain socket path *)
  | Tcp of string * int  (** host (name or dotted quad) and port; port 0 binds ephemeral *)

val addr_to_string : addr -> string
(** ["unix:PATH"] / ["tcp:HOST:PORT"] — the ready-file format. *)

val addr_of_string : string -> (addr, string) result
(** Inverse of {!addr_to_string}; a bare string with no scheme prefix is a
    Unix path (backwards compatible with plain socket paths). *)

val tcp_of_string : string -> (addr, string) result
(** ["HOST:PORT"] → [Tcp] (the [--tcp] argument format). *)

val listen_socket : ?backlog:int -> addr -> Unix.file_descr * addr
(** Bind + listen (close-on-exec), returning the {e actual} address — a TCP
    bind to port 0 resolves to the kernel-chosen port.  For a Unix path the
    stale socket file of a crashed server is unlinked, but a path with a
    {e live} listener (probed with a connect) raises [Failure] instead of
    silently orphaning the running server. *)

val write_addr_file : string -> addr -> unit
(** Atomically (write + rename) publish an address, one
    {!addr_to_string} line — how a server started on an ephemeral port
    advertises itself ([ready_file]). *)

val read_addr_file : string -> (addr, string) result

val default_backlog : int
(** Default listen(2) backlog, 128. *)

type config = {
  listen : addr;
  engine : Ft_core.Engine.id;
  shards : int;
      (** must be 1 ({!run} rejects anything else): a [BATCH] session is a
          front and one checker, and K-way location routing is the cluster
          router's.  Goes with the next change to the benchmark. *)
  sampler : Ft_core.Sampler.t;
  clock_size : int option;  (** default: the batch universe's thread count *)
  checkpoint_dir : string option;
  checkpoint_every : int;
      (** [BATCH] mode only: ingested batches between checkpoint sets
          ({!default_checkpoint_every} = 1: every batch, ack ⇒ durable — the
          standalone-daemon contract).  A [CBATCH] session (cluster worker)
          ignores it and checkpoints by size: the router's WAL already
          makes acknowledged client batches durable, so the worker
          checkpoint is only a bound on post-crash replay.  The shutdown
          checkpoint is unconditional regardless. *)
  resume_dir : string option;
  max_parked : int;  (** bound on batches parked for reordering *)
  backlog : int;  (** listen(2) backlog ({!default_backlog}) *)
  ready_file : string option;
      (** publish the actual listen address here once bound (atomic
          write + rename) — how callers learn an ephemeral TCP port *)
  heartbeat_s : float option;
      (** period of the one-line stderr telemetry heartbeat; [None] (or a
          non-positive period) disables it.  The heartbeat reads only
          front-side counters — it never flushes the checker's ring. *)
  metrics_json : string option;
      (** write the full telemetry + merged-metrics JSON document (the
          [STATS JSON] payload) to this file on shutdown *)
  max_restarts : int;
      (** must be 0 ({!run} rejects anything else): a failed shard fails
          the daemon fast.  Goes with the next change to the benchmark. *)
  chaos : Ft_fault.Fault.config option;
      (** arm this fault-injection schedule at startup ([--chaos]) *)
}

val default_max_parked : int
val default_checkpoint_every : int
val default_max_restarts : int

val default_deadline_s : float
(** Overall per-operation client deadline (30 s) used when [?deadline_s]
    is omitted. *)

val run : config -> unit
(** Serve until a client sends [SHUTDOWN] or the process receives
    [SIGTERM]/[SIGINT] (both shut down gracefully: final checkpoint +
    metrics dump).  Refuses to start when [listen] is a Unix path with a
    live listener; removes the socket file on exit.  Blocking; a [BATCH]
    session spawns the checker's domain — call it from a dedicated (child)
    process.  Raises [Failure] after cleanup if a checker or a [BATCH]
    checkpoint write failed, with the bare diagnostic (the CLI prefixes it
    and exits non-zero), and [Invalid_argument] for [shards <> 1] or
    [max_restarts <> 0]. *)

val report_text : events:int -> Ft_core.Detector.result -> string
(** The analysis report, byte-identical to [racedet analyze]'s output —
    both the CLI and the daemon render through this one function, which is
    what the serve-vs-analyze smoke diffs rely on. *)

val metrics_json_value : Ft_core.Metrics.t -> Ft_obs.Json.t
(** The merged work counters as one flat JSON object, zipping
    {!Ft_core.Metrics.field_names} with [to_array] so a future counter
    cannot be silently dropped from the export. *)

(** {1 Client side}

    Every receive loop retries [EINTR] (signals) and [EAGAIN] (the
    descriptor's receive timeout firing mid-transfer — a slow or busy
    server trickling out a large blob) and fails only once an {e overall}
    per-operation deadline has passed ([?deadline_s], default
    {!default_deadline_s}).  The per-descriptor timeout set by {!connect}
    is just the poll granularity of that deadline check. *)

val connect :
  ?recv_timeout_s:float -> ?deadline_s:float -> ?seed:int -> addr -> Unix.file_descr
(** Connect, retrying with capped exponential backoff (10 ms doubling to
    0.8 s, plus deterministic jitter from {!Ft_support.Prng} seeded by
    [?seed]) while the address does not exist yet or refuses — covers the
    race with server startup without hammering a slow one.  Gives up once
    the next attempt would land past [?deadline_s]
    (default {!default_deadline_s}) of wall time, re-raising the last
    connect error.  [recv_timeout_s] (default 0.25) is the per-[read]
    wakeup used to check operation deadlines; it is {e not} the failure
    timeout. *)

val connect_stats :
  ?recv_timeout_s:float ->
  ?deadline_s:float ->
  ?seed:int ->
  addr ->
  Unix.file_descr * int
(** Like {!connect}, additionally returning how many attempts the backoff
    loop made (1 = connected first try) — surfaced by
    [racedet emit --stats]. *)

val send_batch :
  ?deadline_s:float -> Unix.file_descr -> base:int -> Ft_trace.Trace.t -> (int, string) result
(** Encode the batch as .ftb and send it; [Ok total] echoes the server's
    ingested-events count. *)

val send_cbatch_nowait : Unix.file_descr -> seq:int -> string -> unit
(** Send an already-encoded {!Cmsg} cluster batch without waiting: the
    [OK <total> <durable>] ack is collected asynchronously (the router's
    pipelined in-flight window).  Raises [Unix.Unix_error] on write
    failure instead of returning [Error]: the caller owns worker
    recovery. *)

val fetch_report : ?deadline_s:float -> Unix.file_descr -> (string, string) result

val fetch_result :
  ?deadline_s:float -> Unix.file_descr -> (Ft_core.Detector.result, string) result
(** The decoded [RESULT]: a worker's partial result, or a router's merged
    one. *)

val fetch_seq : ?deadline_s:float -> Unix.file_descr -> (int, string) result
(** The session's stream position ([SEQ]) — the router's replay point after
    respawning a worker. *)

val fetch_stats :
  ?deadline_s:float ->
  ?format:[ `Prometheus | `Json ] ->
  Unix.file_descr ->
  (string, string) result
(** The [STATS] payload (default [`Prometheus]). *)

val shutdown : ?deadline_s:float -> Unix.file_descr -> (unit, string) result

val migrate : ?deadline_s:float -> Unix.file_descr -> int -> (unit, string) result
(** Ask a {e router} to checkpoint-migrate worker [k] onto a fresh process
    ([MIGRATE <k>]); an [ERR] reply is returned as [Error]. *)

val resize : ?deadline_s:float -> Unix.file_descr -> int -> (int, string) result
(** Ask a {e router} to resize its worker ring by [delta] ∈ {[+1], [-1]}
    ([RESIZE +1] / [RESIZE -1]); [Ok k] echoes the new worker count. *)

val addr_alive : addr -> bool
(** One connect probe: is something accepting on this address right now?
    The check {!listen_socket} makes before unlinking a socket path, and
    how the router decides whether an existing [--ready-file] points at a
    live listener (refuse) or a crashed one (remove and take over). *)

val close : Unix.file_descr -> unit
