(** Ordered admission: the one rule both daemons ingest by.

    Every engine is defined over one totally ordered trace, so a served or
    routed report equals [racedet analyze]'s only if units (events, or a
    cluster worker's messages) reach the detector in index order, each
    once.  An admitter holds the expected cursor and decides each offered
    batch [\[base, base + len)]:

    - [Due] ([base <= cursor]): {!feed} it — the already-admitted prefix
      is skipped, so a resend is idempotent;
    - [Park] (ahead of the cursor, fewer than [max_parked] parked): the
      caller {!park}s it until the gap fills;
    - [Refuse] (ahead of the cursor, parked set full): nothing changes.
      With [max_parked = 0] every offer ahead of the cursor is refused.

    The parked set is ordered by base, so draining costs O(log parked) per
    batch.  No domains: the cluster router, which forks, uses it too. *)

type t

val create : ?expected:int -> int -> t
(** [create ?expected max_parked]: an empty parked set and the cursor at
    [expected] (default 0; a resumed session passes its checkpoint's). *)

val expected : t -> int
(** The cursor: every unit below it has been fed. *)

val parked : t -> int
(** Batches parked now. *)

type verdict = Due | Park | Refuse

val verdict : t -> int -> verdict
(** The decision for a batch based at the given index; changes nothing. *)

val park : t -> base:int -> len:int -> (int -> unit) -> unit
(** Hold a batch and its feeder until the cursor reaches [base]; a batch
    parked at the same base replaces the earlier one.  The bound is the
    caller's {!verdict}: a WAL replay re-parks what a live run
    acknowledged, whatever [max_parked] is now. *)

val feed : t -> base:int -> len:int -> (int -> unit) -> unit
(** Admit a [Due] batch: call the feeder once with the batch's first new
    offset (not at all when every unit was admitted before), move the
    cursor to [base + len] once it returns, then feed every parked batch
    the cursor has reached, lowest base first.  The per-unit loop stays in
    the feeder, so admission adds one call per batch, not per unit.
    Raises [Invalid_argument] when [base] is ahead of the cursor. *)
