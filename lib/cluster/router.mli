(** The [racedet route] cluster router.

    One process speaking the plain [BATCH] protocol to clients and the
    [CBATCH] protocol to K worker processes, each worker a [racedet serve]
    daemon whose session is one checker applied inline.  The router is the
    {!Ft_shard.Front}: it runs the sampler and the one sync engine, and
    sends the worker owning a location (consistent hashing, {!Chash}) only
    that location's sampled accesses, each behind the changes to its
    thread's view that worker has not seen ({!Ft_shard.Cmsg.check}).  Sync
    events go nowhere.  A worker's checker imports each view change and
    checks each access, so the partial [RESULT]s add up to a report
    byte-identical to a single-process [racedet analyze] — DESIGN.md §6e.
    The router answers [RESULT] with the merged result, as a worker
    answers with its part.  Client batches reach the front in index order
    through {!Ft_shard.Admit}, the rule a standalone [racedet serve]
    admits by: early batches park (at most [max_parked]), resent prefixes
    are skipped, and WAL replay admits through it too.

    {b Durability} (DESIGN.md §6f): every client batch is appended to a
    routed-event {!Wal} and fsynced {e before} it is acknowledged.  A
    worker's message stream is a deterministic function of the WAL, so the
    router keeps no routed history: per worker only the messages routed
    since its last pump (dropped once pushed) and its routed, pushed and
    acked counts.  One function re-derives any worker's stream from a cut
    by folding the WAL through a scratch front, shipping state and
    admitter; it starts at [dir/router-state.ftc] (the front, the shipping
    state and each worker's routed total, written whenever the WAL has
    grown by twice the previous checkpoint's size — at most half a byte
    of checkpoint per WAL byte) when every requested cut is at or past the totals stored there,
    and at the WAL's first record otherwise.  A router SIGKILLed
    mid-ingest is recovered by [--resume]: respawn the workers against
    their own checkpoint directories, ask each its durable [SEQ], and let
    one fold rebuild the live front and every worker's stream from its
    [SEQ].  Batches whose ack never reached the client are simply not in
    the WAL — the client's blind resend re-ingests them idempotently, so
    the final report is byte-identical to an uninterrupted run.

    {b Ill-formed streams}: the front steps {!Ft_trace.Validator} on every
    event before routing it, so no worker ever sees an event that breaks
    §2.  The first such event answers the batch that feeds it — the batch
    that carries it, or the one whose arrival drains it from the parked
    set — with [ERR ill-formed trace: event <i>: <why>], and the router
    fails fast: no REPORT follows.  A batch is appended to the WAL before
    it is fed, so a [--resume] that folds the same WAL meets the same event
    and fails the same way.

    {b Pipelining}: CBATCH sends stream through a per-worker in-flight
    window ([config.window]) with acks drained asynchronously; the router
    blocks only on a full window (client backpressure) or at explicit
    barriers (RESULT, migration, resize, shutdown).  Per-worker streams
    stay strictly ordered, so §6e is unaffected.

    {b Resizing}: [RESIZE +1]/[RESIZE -1] quiesces, logs the new size in
    the WAL, folds the WAL under the new ring with every cut at 0 — the
    streams and shipping state the new ring would have produced from
    event 0; the scratch shipping state replaces the live one — and
    streams them to a fresh worker epoch.  Reports are byte-identical
    across a resize at any cut.

    Worker death and migration reuse the [.ftc] checkpoint machinery
    end-to-end: workers checkpoint by size (once the CBATCH bytes applied
    since their last set reach that set's size) and report the set's cut
    in every ack ([OK <total> <durable>], validated), and recovery — a
    worker's only one — is respawn → resume from checkpoint → [SEQ] →
    resend from it, bounded by about one set's bytes: out of the unsent
    messages when the [SEQ] is among them, else out of the same fold
    (a migration's drained worker needs none).
    Chaos points [cluster.worker_crash], [cluster.migrate], [router.send]
    (per worker, [lane] = worker id), [router.wal_write], [router.crash]
    (simulates a router SIGKILL on the durability edge) and
    [cluster.resize] make every path deterministically fault-testable.

    Extra protocol verbs over {!Ft_shard.Serve}: [MIGRATE <k>] gracefully
    moves worker [k] onto a fresh process; [RESIZE +1/-1] resizes the
    ring; [SEQ] reports the router's ingested-event count.

    The router never spawns domains (forking a multi-domain OCaml 5
    process is unsafe); its front is a plain in-process detector. *)

type config = {
  listen : Ft_shard.Serve.addr;
  workers : int;
  worker_shards : int;
      (** must be 1 ({!run} rejects anything else): a worker is one inline
          checker.  Goes with the next change to the benchmark. *)
  engine : Ft_core.Engine.id;
  sampler : Ft_core.Sampler.t;
  clock_size : int option;
  dir : string;
      (** run directory: worker sockets, ready files, [worker-<k>.pid]
          files (for external kills), per-worker checkpoint dirs
          [ckpt-<k>/] ([ckpt-<k>-e<epoch>/] after a resize), the
          [router.wal] and [router-state.ftc] *)
  worker_tcp : bool;  (** workers listen on 127.0.0.1 ephemeral TCP ports *)
  checkpoint : bool;
      (** must be [true] ({!run} rejects anything else): workers write
          size-driven checkpoint sets and the router size-driven state
          checkpoints.  Goes with the next change to the benchmark. *)
  max_parked : int;
  backlog : int;
  ready_file : string option;
      (** publish the router's actual address; a stale one (crashed
          predecessor) is removed after a liveness probe, a live one is
          refused, and the file is unlinked on exit *)
  heartbeat_s : float option;  (** periodic one-line liveness log to stderr *)
  metrics_json : string option;  (** dump router telemetry JSON on shutdown *)
  max_respawns : int;
      (** per-worker respawn budget before the router fails fast
          ({!default_max_respawns}) *)
  chaos : Ft_fault.Fault.config option;
      (** armed at startup; worker processes inherit the armed schedule
          through the fork *)
  window : int;
      (** per-worker in-flight CBATCH window ({!default_window}); 1
          restores the lockstep send-then-wait of PR 9 *)
  wal : bool;
      (** must be [true] ({!run} rejects anything else): every batch is
          appended to [dir/router.wal] and fsynced before it is acked.
          Goes with the next change to the benchmark. *)
  resume : bool;
      (** recover the previous session from [dir]'s WAL (and state
          checkpoint) *)
  state_every : int;
      (** must be positive ({!default_state_every}; {!run} rejects
          anything else).  The value itself is unused: a router-state
          checkpoint is written whenever the WAL has grown by twice the
          previous checkpoint's size.  Goes with the next change to the
          benchmark. *)
}

val default_max_respawns : int
val default_window : int
val default_state_every : int

val run : config -> unit
(** Serve until [SHUTDOWN]/[SIGTERM]/[SIGINT]; drains the in-flight
    windows and tears down workers gracefully (each writes its final
    checkpoint set).  Blocking; forks
    worker processes — call from a process that has spawned no domains.
    Raises [Failure] with a bare diagnostic (no program-name prefix)
    after cleanup when a worker exhausted its respawn budget, and
    [Invalid_argument] on a config outside the one durable mode. *)
