(** The router's routed-event write-ahead log.

    An append-only file of checksummed records, fsynced before any client
    [BATCH] is acknowledged, so a router SIGKILLed mid-ingest can be
    resumed ([racedet route --resume]) with its exact pre-crash state.
    Every worker's routed-message stream is a deterministic function of
    the log: the router's one replay folds the [Events] records through a
    scratch front, shipping state and admitter, which rebuilds the front
    (sampler, sync engine, tally) and any worker's stream from a given
    cut — for a resume, a respawned worker and a resize alike
    (DESIGN.md §6f).

    Framing reuses the [.ftc] container's primitives: each record is a
    4-byte little-endian payload length, the payload's
    {!Ft_snapshot.Checkpoint.fnv64} checksum (8 bytes LE), then a
    {!Ft_core.Snap} varint payload.  Decoding is total and
    torn-tail-tolerant: scanning stops at the first incomplete, corrupt or
    unparseable frame and reports the byte length of the valid prefix, so
    a crash mid-append never poisons the records before it.  A torn tail
    is unacknowledged by construction (the ack waits for the fsync), so
    truncating it loses nothing a client will not blindly resend.

    Appends carry the [router.wal_write] injection point
    ({!Ft_fault.Fault.torn_len}): a scheduled torn write persists a prefix
    of the frame and raises, after which {!rollback} restores the last
    good offset. *)

type record =
  | Session of {
      nthreads : int;
      nlocks : int;
      nlocs : int;
      engine : string;  (** {!Ft_core.Engine.name} *)
      sampler : string;  (** {!Ft_core.Sampler.name} *)
      workers : int;  (** initial ring size *)
    }
      (** Written once, when the first batch fixes the universe; validated
          against the resuming router's configuration. *)
  | Events of int * Ft_trace.Event.t array
      (** A client batch: base global index and its events, exactly as
          received (parked and partially-duplicate batches included —
          replay re-runs the same park/dedup logic). *)
  | Resize of int  (** the ring was resized to this many workers *)

type t

val path : dir:string -> string
(** [dir/router.wal]. *)

val open_append : string -> t
(** Open (creating if missing) for appending.  An existing file is
    scanned first and a torn tail is truncated away (with a stderr note),
    so the write position is always a record boundary. *)

val offset : t -> int
(** Current end-of-log byte offset (a record boundary). *)

val append : t -> record -> int
(** Append one frame, returning its byte size.  Not yet durable — call
    {!sync}.  Visits [router.wal_write]; on an injected torn write the
    frame prefix is written and the injection exception re-raised: call
    {!rollback} before the next append. *)

val sync : t -> unit
(** [fsync] the log — the durability point a client ack rides on. *)

val rollback : t -> unit
(** Truncate back to the last good record boundary after a failed
    {!append}. *)

val close : t -> unit

val decode_all : string -> (record * int) list * int
(** Scan raw bytes: the records of the valid prefix (each with its end
    offset) and the prefix's byte length.  Total — never raises, any
    malformed or incomplete suffix simply ends the scan. *)

val replay : string -> ((record * int) list * int, string) result
(** {!decode_all} over a file's contents; [Error] only if the file cannot
    be read at all (a missing file is an error — test with
    [Sys.file_exists] first). *)

val fold : string -> init:'a -> ('a -> record -> int -> 'a) -> ('a, string) result
(** Fold the valid prefix of a file's records in file order, each with
    its end offset, decoding one record at a time (no record list is
    built); [Error] as for {!replay}. *)
