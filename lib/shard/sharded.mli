(** Pipelined online detection: a front and one checker on two domains.

    The {e front} ({!Front}) is the caller's domain: the sampler and the
    one real sync engine.  The {e checker} is one more instance of the
    same engine, created with {!Ft_core.Sampler.all}, on its own domain
    behind a bounded SPSC ring ({!Spsc}).  It receives only [Acc (i, e)]
    — an access the front admitted — each right behind a [View] of the
    accessing thread's view entries it has not seen, whenever that
    thread's view version moved ({!Front.ship}).  The two stages overlap:
    the front runs the sync handlers while the checker runs the access
    checks.

    A check reads only the location's state, the thread's view
    [C_t[t ↦ e_t]] and the thread's same-epoch cache invalidations, and
    the front holds all three exactly, so the checker's race list is
    byte-identical to the plain engine's declarations — for every engine
    and every sampler (property-tested).  Metrics add up: front (sync
    work) + checker (checks) + the front's tally of accesses nobody
    checks.  See DESIGN.md §6a.  Splitting locations across K checkers is
    the cluster router's job (§6e), with the same {!Front} algebra; a
    cluster worker is one inline checker, not this module.

    {b Failure.}  A checker that raises — a bug, or an injected
    [shard.step] fault ({!Ft_fault.Fault}) — fails the whole detector
    fast: its worker records the failure and leaves its loop, and the next
    {!handle}, {!flush}, {!result} or {!stop} raises {!Shard_failed}.
    There is no in-process repair.  Recovery is the one path every level
    shares: rebuild from the newest checkpoint ({!shard_snapshot} +
    {!router_snapshot}, then {!restore}) and replay the events after it —
    a serve daemon's successor [--resume]s from its set while clients
    resend.  Replay is exact, so the recovered result is byte-identical to
    an unfaulted run's (the chaos suite checks this). *)

type t

exception Shard_failed of string
(** The checker failed; the payload is a one-line diagnostic naming the
    shard (always [shard 0]) and the exception.  The detector is no longer
    usable; {!stop} still joins the checker's domain before raising it. *)

val create : engine:Ft_core.Engine.id -> Ft_core.Detector.config -> t
(** Spawn the checker's domain.  Every detector must be {!stop}ped, or its
    domain leaks. *)

val handle : t -> int -> Ft_trace.Event.t -> unit
(** Feed event [i].  Indices must be fed in increasing order, as with
    {!Ft_core.Detector.S.handle}.  Blocks (backpressure) when the ring is
    full.  Raises [Failure] if called after {!stop}, and {!Shard_failed}
    once the checker has failed. *)

val events : t -> int
(** Events fed so far ({!handle}). *)

val shard_events : t -> int
(** Messages pushed to the checker's ring so far — sampled accesses and
    view changes; no sync event ever reaches the checker — the throughput
    series of the serve daemon's [STATS].  Front-domain callers only, like
    {!handle}. *)

val ring_occupancy : t -> int
(** Instantaneous unconsumed-message count of the ring, readable from any
    domain.  A telemetry snapshot: the checker may have drained (or the
    front filled) slots by the time it returns. *)

val ring_capacity : int
(** Messages the ring holds. *)

val flush : t -> unit
(** Wait until the checker has processed everything fed so far; raises
    {!Shard_failed} if it failed. *)

val result : t -> Ft_core.Detector.result
(** {!flush}, then merge ({!Front.merge}): the checker's races, which are
    in declaration order, and metrics as the field-wise sum of the
    front's, the checker's and the tally.  The detector stays usable —
    serving a report mid-stream is allowed. *)

val stop : t -> unit
(** Drain and join the checker's domain.  Idempotent.  {!result},
    {!shard_snapshot} and {!router_snapshot} remain valid afterwards.  If
    the checker failed, its domain is joined first and then
    {!Shard_failed} is raised (no leaks on the fail-fast path). *)

(** {1 Snapshots}

    A detector checkpoints as the checker's snapshot (a regular
    {!Ft_core.Detector.S.snapshot} of an instance sampling everything)
    plus one router snapshot holding the event count, the front, and per
    thread the view version and view last shipped.  The router snapshot
    keeps the layout of the K-checker detector this module replaced, with
    K written as a literal 1, so a set from that detector run with one
    checker still restores and one run with more is refused. *)

val shard_snapshot : t -> Ft_core.Snap.t
(** Flushes first; the checker's engine snapshot. *)

val router_snapshot : t -> Ft_core.Snap.t

val restore :
  engine:Ft_core.Engine.id ->
  Ft_core.Detector.config ->
  router:Ft_core.Snap.t ->
  Ft_core.Snap.t ->
  t
(** [restore ~engine config ~router checker].  Raises
    [Ft_core.Snap.Corrupt] on malformed or mismatched payloads (a router
    snapshot taken with more than one checker, a wrong universe, an older
    layout).  Spawns the checker's domain like {!create}. *)
