(** SO — Algorithm 4: ordered lists plus lazy copy.

    Thread clocks are {!Ordered_list}s whose node order records update
    recency.  A release performs only an O(1) shallow copy — the lock shares
    the thread's list, remembering the releaser, its freshness scalar
    [U_ℓ = U_t(t)] and (local-epoch optimization, §6.1) the releaser's own
    clock component as a scalar, so that flushing the local epoch never
    forces a deep copy.  The thread deep-copies its list lazily, the first
    time it must mutate a shared list — which happens at most once per
    change of the sampling timestamp, i.e. O(|S|) times overall.

    An acquire that is not skipped traverses only the first
    [d = U_ℓ − U_t(LR_ℓ)] list entries: by Proposition 6 every entry the
    acquirer lacks was updated within the releaser's last [d] clock updates,
    and move-to-front keeps exactly those in the list prefix.

    Generic (non-nested) acquire/release pairs — release-stores — need no
    special case: lock state is a snapshot reference, never joined into. *)

include Detector.S

val check_pool : t -> bool
(** The list-recycling invariants, for tests: every list's reference count
    equals the number of threads and locks holding it, no list on the free
    stack is held, and at most [clock_size + nlocks] lists were ever
    created.  O(clock_size + nlocks). *)
