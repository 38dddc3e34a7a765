(** Location-sharded parallel online detection: one front, K checkers.

    The {e front} ({!Front}) is the caller's domain: the sampler and the
    one real sync engine.  The {e checkers} are K more instances of the
    same engine, created with {!Ft_core.Sampler.all}, each on its own
    domain behind a bounded SPSC ring ({!Spsc}).  A checker owns the
    locations that hash to it ({!owner_of}) and receives only [Acc (i, e)]
    — an access the front admitted — each right behind a [View] of the
    accessing thread's view entries it has not seen, whenever that
    thread's view version moved ({!Front.ship}).

    A check reads only the location's state, the thread's view
    [C_t[t ↦ e_t]] and the thread's same-epoch cache invalidations, and
    the front holds all three exactly, so the per-checker race lists,
    merged by original event index, are byte-identical to the unsharded
    engine's declarations — for every engine, every sampler, and every K
    (property-tested).  Metrics add up: front (sync work) + Σ checkers
    (checks) + the front's tally of accesses nobody checks.  See
    DESIGN.md §6a.  A cluster worker is the same detector with its front
    idle, fed the router front's messages through {!check} (§6e).

    {2 Supervision}

    With [~supervise:true] the router doubles as a {e supervisor}.  Per
    shard it keeps a {e restore point} — an engine snapshot covering the
    shard's first [c] messages, or the fresh instance, which counts as 0
    bytes — and a {e byte backlog}: every message routed since, in
    {!Cmsg.check}'s varint format (about 8–9 bytes per access, a few per
    changed view entry).

    {b Requests at a cut.}  Once the backlog is as large as the restore
    point, the router pushes a [Snapshot] request into the shard's ring
    right behind message [c' - 1], where [c'] is the shard's message count.
    The ring is FIFO, so the worker meets the request after applying
    exactly [c'] messages and before any later one; it publishes
    [(c', snapshot)] through an atomic slot.  The router adopts that pair as
    the new restore point and drops the backlog bytes it covers (their
    length was noted at the cut).  Requests are not messages of the stream:
    they are not counted and never pass the [shard.step] fault point, so a
    seeded chaos schedule fires at the same messages whatever the requests.

    {b Cost and memory.}  A snapshot of [S] bytes is paid for by the [S]
    backlog bytes routed since the previous one, so restore points cost
    amortized O(1) work per message however large the state grows.  The
    backlog never exceeds its restore point's size plus one ring of
    messages (those routed while a request is in flight).  No knob.

    {b Checkpoints.}  {!shard_snapshots} snapshots every shard anyway; each
    of those snapshots becomes the shard's restore point (empty backlog,
    request dropped), so a checkpointing daemon never serializes the same
    state twice.  A {!restore}d detector starts from its checkpoint
    snapshots as restore points.

    {b Healing.}  When a worker dies — its handler raised, or an injected
    {!Ft_fault.Fault.Crash_domain} killed the domain mid-message — the
    router joins the corpse, adopts a snapshot the worker answered before
    dying, drops any unanswered request, rebuilds the shard's engine from
    the restore point, decodes the backlog and replays it through a fresh
    domain.  A worker whose handler has already raised ignores requests.
    Because replay is exact (same messages, same order), the healed shard
    reaches precisely the state an unfaulted run would have: race verdicts
    and metrics are unaffected, which the chaos suite checks byte-for-byte
    against fault-free runs.  Restarts are bounded per shard
    ([?max_restarts], default 8); past the budget the shard is marked dead
    and every subsequent operation raises {!Shard_failed} — fail fast rather
    than loop forever on a deterministic fault.

    Without supervision (the default) behavior is exactly the pre-supervisor
    one — no backlog, no snapshot requests, worker failures surface as
    [Failure] from {!flush}/{!result}/{!stop} — so existing callers pay
    nothing. *)

type t

exception Shard_failed of string
(** A supervised shard exhausted its restart budget.  The detector is no
    longer usable for routing; {!stop} still joins what is left. *)

val owner_of : shards:int -> Ft_trace.Event.loc -> int
(** The shard that owns a location — a pure hash, independent of trace
    content, so tests can place locations on chosen shards. *)

val create :
  engine:Ft_core.Engine.id ->
  shards:int ->
  ?supervise:bool ->
  ?max_restarts:int ->
  Ft_core.Detector.config ->
  t
(** Spawn [shards] worker domains (K ≥ 1).  Every sharded detector must be
    {!stop}ped, or its domains leak.  [?supervise] (default [false]) enables
    self-healing as described above; [?max_restarts] (default 8) is the
    per-shard restart budget. *)

val handle : t -> int -> Ft_trace.Event.t -> unit
(** Route event [i].  Indices must be fed in increasing order, as with
    {!Ft_core.Detector.S.handle}.  Blocks (backpressure) when a shard's ring
    is full.  Raises [Failure] if called after {!stop}; a supervised call may
    heal a failed shard in-line (replaying its backlog) before returning, and
    raises {!Shard_failed} once a shard is past its restart budget. *)

val check : t -> Cmsg.check -> unit
(** Apply one message of a cluster worker's stream, which its router's
    {!Front} already sampled and synchronized: a [View] updates the
    imported table of per-thread views (and always bumps that thread's
    version, even when it changes no entry); an [Acc] goes to its owner
    behind the imported view changes that shard has not seen, exactly as
    {!handle} ships the front's.  The front stays idle.  Raises [Failure]
    on a thread or view entry outside the universe, a non-access [Acc],
    or after {!stop}. *)

val events : t -> int
(** Events routed so far ({!handle}), or accesses checked ({!check}). *)

val shard_event_counts : t -> int array
(** Messages pushed to each shard's ring so far — sampled accesses and view
    changes; no sync event ever reaches a checker — the per-shard
    throughput series of the serve daemon's [STATS].  Router-domain callers
    only, like {!handle}. *)

val ring_occupancy : t -> int array
(** Instantaneous unconsumed-message count of each shard's ring, readable
    from any domain.  A telemetry snapshot: concurrent workers may have
    drained (or the router filled) slots by the time the array returns. *)

val restart_counts : t -> int array
(** Supervisor restarts performed per shard so far (all zeros when
    unsupervised or fault-free) — the [racedet_shard_restarts] series. *)

val restarts_total : t -> int

type supervision = {
  restore_points : int;  (** restore points adopted: answered requests and checkpoints *)
  restore_bytes : int;  (** its snapshot's size (0 for a fresh instance) *)
  backlog_bytes : int;  (** encoded messages routed since it *)
  snapshot_heals : int;  (** heals that restored a snapshot rather than a fresh instance *)
}

val supervision : t -> supervision array
(** Per-shard restore-point state (all zeros when unsupervised) — the
    [racedet_supervisor_restore_points_total] and
    [serve_supervisor_backlog_bytes] series.  Router-domain mirrors: reading
    them never waits for a worker. *)

val ring_capacity : int
(** Messages each shard's ring holds. *)

val flush : t -> unit
(** Wait until every shard has fully processed everything routed so far.
    Unsupervised: re-raises (as [Failure]) the first exception any shard
    worker hit.  Supervised: heals failed shards (restoring and replaying)
    until every ring is drained cleanly, raising {!Shard_failed} only past
    the restart budget. *)

val result : t -> Ft_core.Detector.result
(** {!flush}, then merge: races from all checkers sorted by declaration
    index (each event declares at most one race, so the order is total and
    equals the unsharded declaration order), metrics as the field-wise sum
    of the front's, the checkers' and the tally.  The detector stays usable
    — serving a report mid-stream is allowed. *)

val stop : t -> unit
(** Drain and join the worker domains.  Idempotent.  {!result},
    {!shard_snapshots} and {!router_snapshot} remain valid afterwards.
    Supervised: heals pending failures first, so the joined state is the
    exact prefix state; every domain is joined before a {!Shard_failed} from
    an exhausted budget propagates (no leaks on the fail-fast path). *)

(** {1 Snapshots}

    A sharded detector checkpoints as K checker snapshots (each a regular
    {!Ft_core.Detector.S.snapshot} of an instance sampling everything) plus
    one router snapshot holding the event count, the front, per shard and
    thread the view version and view last shipped, and the imported view
    table.  [restore] rebuilds the whole ensemble; shard count and universe
    must match the snapshots. *)

val shard_snapshots : t -> Ft_core.Snap.t array
(** Flushes first; index [k] is checker [k]'s engine snapshot.  Supervised,
    each snapshot also becomes its shard's restore point. *)

val router_snapshot : t -> Ft_core.Snap.t

val restore :
  engine:Ft_core.Engine.id ->
  shards:int ->
  ?supervise:bool ->
  ?max_restarts:int ->
  Ft_core.Detector.config ->
  router:Ft_core.Snap.t ->
  Ft_core.Snap.t array ->
  t
(** Raises [Ft_core.Snap.Corrupt] on malformed or mismatched payloads
    (wrong shard count, wrong universe, a router snapshot written before
    the imported view table).  Spawns worker domains like {!create}. *)
