(** Access histories for the vector-clock detectors (Alg 1/2, read/write
    handlers), stored in flat per-location arrays with a same-epoch
    fast-path cache on top.

    Per memory location we keep the write history [C_x^w] (timestamp of the
    last recorded write) and the read history [C_x^r] (per-thread local time
    of the last recorded read), lazily allocated on first touch, together
    with the trace indices of the events behind the entries so that race
    reports can name the concrete earlier access.  Each history is as wide
    as the threads that ran, not [clock_size]: a write history spans the
    recorded clock's nonzero prefix (or the ordered list's watermark) and
    the writer, a read history grows when a higher thread reads, and
    entries past the end read as 0.  With TSan's 256-entry clocks and a
    dozen live threads a location's three arrays take a few dozen words,
    not 771.  The per-location tables themselves grow by doubling up to
    the highest location recorded, so {!create} costs O(clock_size), not
    O(nlocs).

    The race checks compare a history against the *current event's*
    timestamp, which for the sampling detectors is the thread clock with its
    own component replaced by the local epoch [e_t] — the clock's own entry
    only holds the time of the last {e sampled} event flushed at a release,
    so comparing against it directly would mis-order same-thread accesses.
    (DJIT+ passes [e_t = C_t(t)], making the check the plain pointwise
    comparison.)

    The [stale_*] checks return the trace index of a conflicting earlier
    event when the history is {e not} ordered before the current access, and
    [-1] when it is ordered (no race).

    {1 Same-epoch fast path}

    [read_hit]/[write_hit] answer an access in O(1) when the location's last
    clean check was made by the same thread at the same epoch and no sync
    operation has touched that thread's clock since ([bump] advances the
    thread's version counter; the engines call it from every sync handler
    that mutates a thread's timestamp).  A hit updates the remembered trace
    index — the only state the skipped slow path would have changed — so
    verdicts, history contents and race reports are bit-identical to the
    slow path.  The engines must bump every counter the slow path would
    have bumped; only [Metrics.same_epoch_hits] is extra. *)

type t

val create : nlocs:int -> clock_size:int -> t

val bump : t -> int -> unit
(** [bump t tid]: thread [tid]'s clock (or local epoch binding) is about to
    change; invalidate its cache entries.  O(1). *)

val version : t -> int -> int
(** Thread [tid]'s version: the number of {!bump}s so far, plus one. *)

val read_hit : t -> Ft_trace.Event.loc -> tid:int -> epoch:int -> index:int -> bool
(** O(1) same-epoch fast path for a read: [true] iff the last clean read
    check on this location was [(tid, epoch)] and still valid, in which case
    the recorded read index is moved to [index] and the caller must skip
    both {!stale_write} and {!record_read}. *)

val write_hit : t -> Ft_trace.Event.loc -> tid:int -> epoch:int -> index:int -> bool
(** O(1) same-epoch fast path for a write: [true] iff the last clean write
    on this location was [(tid, epoch)] and still valid, in which case the
    recorded write index is moved to [index] and the caller must skip the
    checks and {!record_write_vc}/{!record_write_ol}. *)

val stale_write : t -> Ft_trace.Event.loc -> Vector_clock.t -> tid:int -> epoch:int -> int
(** Is [C_x^w ⊑ clock[tid ↦ epoch]]?  [-1] if so, otherwise the index of
    the recorded write. *)

val stale_read : t -> Ft_trace.Event.loc -> Vector_clock.t -> tid:int -> epoch:int -> int
(** Is [C_x^r ⊑ clock[tid ↦ epoch]]?  [-1] if so, otherwise the index of
    the offending thread's recorded read. *)

val ol_stale_write : t -> Ft_trace.Event.loc -> Ordered_list.t -> tid:int -> epoch:int -> int
val ol_stale_read : t -> Ft_trace.Event.loc -> Ordered_list.t -> tid:int -> epoch:int -> int
(** As above, when the thread clock is an ordered list whose own entry is
    externalized (Alg 4 with the local-epoch optimization). *)

val stale_both :
  t -> Ft_trace.Event.loc -> Vector_clock.t -> tid:int -> epoch:int -> int * int
(** [(stale_read, stale_write)] in one fused traversal — the write-handler
    pair, evaluating the bound once per clock entry instead of once per
    loop.  Results are exactly those of the two separate calls. *)

val ol_stale_both :
  t -> Ft_trace.Event.loc -> Ordered_list.t -> tid:int -> epoch:int -> int * int

val stale_write_plain : t -> Ft_trace.Event.loc -> Vector_clock.t -> int
val stale_both_plain : t -> Ft_trace.Event.loc -> Vector_clock.t -> int * int
(** For callers whose clock already carries the current epoch at its own
    component (DJIT+): the bound is the clock itself, so the substitution
    branch disappears from the loop.  Equivalent to the [~tid ~epoch]
    versions with [epoch = clock(tid)]. *)

val record_write_vc :
  t -> Ft_trace.Event.loc -> Vector_clock.t -> tid:int -> epoch:int -> index:int ->
  clean:bool -> unit
(** [C_x^w ← C_t[t ↦ e_t]], remembering the event's trace [index].  [clean]
    is the outcome of the checks the caller just ran: a clean write arms the
    location's write cache for (tid, epoch); a racy one disarms it so the
    next same-epoch access re-checks (and re-declares) exactly as the seed
    engines did. *)

val record_write_ol :
  t -> Ft_trace.Event.loc -> Ordered_list.t -> tid:int -> epoch:int -> index:int ->
  clean:bool -> unit

val record_read :
  t -> Ft_trace.Event.loc -> tid:int -> epoch:int -> index:int -> clean:bool -> unit
(** [C_x^r ← C_x^r[t ↦ e_t]], remembering the event's trace [index].
    [clean] as for {!record_write_vc}, arming the read cache. *)

val encode : Snap.Enc.t -> t -> unit
(** Every history is written padded to [clock_size] entries, so the bytes
    do not depend on how wide the arrays have grown. *)

val decode : Snap.Dec.t -> nlocs:int -> clock_size:int -> t
(** Raises [Snap.Corrupt] on dimension mismatch against the stated
    universe.  The payload includes the fast-path cache state, so a restored
    run skips (and counts) exactly what the uninterrupted run would.  Each
    history is trimmed of its padding, so a restored run keeps no more
    state than an uninterrupted one. *)
