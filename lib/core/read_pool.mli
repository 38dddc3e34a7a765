(** The shared-mode read clocks of {!Fasttrack} and {!Sampling_o1}.

    Both engines keep FastTrack's adaptive read state per location in two
    flat arrays: [repoch] (the last read's epoch while one thread reads the
    location) and [rindex] (that read's trace index).  A location read
    concurrently by several threads needs a full read clock plus, per
    thread, the trace index of that read, for the race report.  Such
    locations are rare, so their clocks live out of line in one pool of
    numbered slots.  While a location is shared, its [repoch] is {!marker}
    and its [rindex] cell, unused in shared mode, holds its slot: finding
    the read clock is one array load, with no table to probe.

    A slot holds, for each of [nthreads] threads, a (time, trace index)
    pair, interleaved in a flat int array.  Storage grows in chunks of
    {!chunk_slots} slots that never move, and freed slots are reused before
    any fresh one, so the pool never holds more than the peak number of
    shared locations, rounded up to a chunk.  Reads, writes and scans of a
    slot allocate nothing. *)

type t

val marker : Epoch.t
(** The [repoch] of a shared location.  No real epoch equals it: its time
    is 0, and thread clocks and local epochs start at 1.  Never pass it to
    an ordering check — its tid indexes past any clock. *)

val chunk_slots : int
(** Slots per chunk of storage (64). *)

val create : nthreads:int -> t

val time : t -> int -> int -> int
(** [time p s i]: thread [i]'s read time in slot [s]. *)

val set : t -> int -> int -> time:int -> index:int -> unit
(** [set p s i ~time ~index] records thread [i]'s read at [time], trace
    index [index]. *)

val stale : t -> int -> Vector_clock.t -> tid:int -> epoch:int -> int
(** [stale p s c ~tid ~epoch] is the trace index of the first thread's read
    in slot [s] that is not ordered before [c[tid ↦ epoch]], or [-1] when
    every read is.  One loop over the slot. *)

val inflate :
  t -> repoch:Epoch.t array -> rindex:int array -> int -> tid:int -> time:int -> index:int -> unit
(** [inflate p ~repoch ~rindex x ~tid ~time ~index] moves location [x] to
    shared mode: a cleared slot gets [x]'s exclusive read and thread
    [tid]'s read at [time]/[index], and [x]'s cells become {!marker} and
    the slot. *)

val deflate : t -> repoch:Epoch.t array -> rindex:int array -> int -> unit
(** Back to exclusive mode with no reads recorded ([Epoch.none], [-1]);
    the slot returns to the pool. *)

val live : t -> int
(** Slots in use: the number of shared locations. *)

val capacity : t -> int
(** Slots the chunks allocated so far can hold. *)

val encode_reads : Snap.Enc.t -> t -> repoch:Epoch.t array -> rindex:int array -> unit
(** The read state of every location: [repoch], [rindex] with [-1] in
    each shared location's cell (its slot number depends on the order
    slots were freed, not on the detector's state), then the shared
    locations in ascending order, each with its times (as a
    {!Vector_clock.encode}) and its indices (as an int array). *)

val decode_reads : Snap.Dec.t -> t -> repoch:Epoch.t array -> rindex:int array -> unit
(** Fill the arrays and an empty pool from {!encode_reads}' bytes.  Raises
    [Snap.Corrupt] unless the listed locations ascend and are exactly the
    ones marked shared, every other read epoch names a thread below
    [nthreads], and every clock is well formed. *)

val check : t -> repoch:Epoch.t array -> rindex:int array -> bool
(** The pool invariants, for tests: the slots named by shared locations
    and the free stack together are exactly the slots handed out, each
    once, and the chunks hold them all.  O(nlocs + slots). *)
