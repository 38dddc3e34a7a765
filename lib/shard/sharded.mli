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
    DESIGN.md §6a.  The cluster router is the same front one level up; a
    cluster worker is one inline checker, not this module (§6e).

    {b Failure.}  A checker that raises — a bug, or an injected
    [shard.step] fault ({!Ft_fault.Fault}) — fails the whole detector
    fast: its worker records the first failure and leaves its loop, and
    the next {!handle}, {!flush}, {!result} or {!stop} raises
    {!Shard_failed}.  There is no in-process repair.  Recovery is the one
    path every level shares: rebuild from the newest checkpoint
    ({!shard_snapshots} + {!router_snapshot}, then {!restore}) and replay
    the events after it — a serve daemon's successor [--resume]s from its
    set while clients resend.  Replay is exact, so the recovered result is
    byte-identical to an unfaulted run's (the chaos suite checks this). *)

type t

exception Shard_failed of string
(** A checker failed; the payload is a one-line diagnostic naming the
    shard and the exception.  The detector is no longer usable; {!stop}
    still joins every domain before raising it. *)

val owner_of : shards:int -> Ft_trace.Event.loc -> int
(** The shard that owns a location — a pure hash, independent of trace
    content, so tests can place locations on chosen shards. *)

val create : engine:Ft_core.Engine.id -> shards:int -> Ft_core.Detector.config -> t
(** Spawn [shards] worker domains (K ≥ 1).  Every sharded detector must be
    {!stop}ped, or its domains leak. *)

val handle : t -> int -> Ft_trace.Event.t -> unit
(** Route event [i].  Indices must be fed in increasing order, as with
    {!Ft_core.Detector.S.handle}.  Blocks (backpressure) when a shard's ring
    is full.  Raises [Failure] if called after {!stop}, and {!Shard_failed}
    once a checker has failed. *)

val events : t -> int
(** Events routed so far ({!handle}). *)

val shard_event_counts : t -> int array
(** Messages pushed to each shard's ring so far — sampled accesses and view
    changes; no sync event ever reaches a checker — the per-shard
    throughput series of the serve daemon's [STATS].  Router-domain callers
    only, like {!handle}. *)

val ring_occupancy : t -> int array
(** Instantaneous unconsumed-message count of each shard's ring, readable
    from any domain.  A telemetry snapshot: concurrent workers may have
    drained (or the router filled) slots by the time the array returns. *)

val ring_capacity : int
(** Messages each shard's ring holds. *)

val flush : t -> unit
(** Wait until every shard has fully processed everything routed so far;
    raises {!Shard_failed} if a checker failed. *)

val result : t -> Ft_core.Detector.result
(** {!flush}, then merge: races from all checkers sorted by declaration
    index (each event declares at most one race, so the order is total and
    equals the unsharded declaration order), metrics as the field-wise sum
    of the front's, the checkers' and the tally.  The detector stays usable
    — serving a report mid-stream is allowed. *)

val stop : t -> unit
(** Drain and join the worker domains.  Idempotent.  {!result},
    {!shard_snapshots} and {!router_snapshot} remain valid afterwards.  If
    a checker failed, every domain is joined first and then {!Shard_failed}
    is raised (no leaks on the fail-fast path). *)

(** {1 Snapshots}

    A sharded detector checkpoints as K checker snapshots (each a regular
    {!Ft_core.Detector.S.snapshot} of an instance sampling everything) plus
    one router snapshot holding the event count, the front, and per shard
    and thread the view version and view last shipped.  [restore] rebuilds the whole ensemble; shard count and universe
    must match the snapshots. *)

val shard_snapshots : t -> Ft_core.Snap.t array
(** Flushes first; index [k] is checker [k]'s engine snapshot. *)

val router_snapshot : t -> Ft_core.Snap.t

val restore :
  engine:Ft_core.Engine.id ->
  shards:int ->
  Ft_core.Detector.config ->
  router:Ft_core.Snap.t ->
  Ft_core.Snap.t array ->
  t
(** Raises [Ft_core.Snap.Corrupt] on malformed or mismatched payloads
    (wrong shard count, wrong universe, a router snapshot with an older
    layout).  Spawns worker domains like {!create}. *)
