(** Compact binary trace format.

    The textual format of {!Trace_format} is convenient but costs ~15 bytes
    per event; executions in the paper's setting run to billions of events.
    This format stores one varint-encoded tag+payload pair per event
    (typically 2–4 bytes) behind a small header with a magic number,
    a version, and the universe sizes.

    Layout (all integers LEB128 varints unless noted):
    {v
    "FTRB"  version  nthreads  nlocks  nlocs  nevents
    nevents × ( tag | thread << 3 , payload )
    v}
    where [tag] is the operation (0=read … 7=join) packed below the thread
    id, and [payload] is the location / lock / thread operand.

    Decoding is hardened against hostile input: the event count in the
    header is checked against the byte budget actually present (each event
    costs at least two bytes) before any allocation proportional to it, so
    a corrupt 10-byte file cannot demand a multi-GiB array.

    Two access paths are provided: whole-trace conversion ({!of_bytes},
    {!of_file}), and a streaming layer ({!open_channel}/{!next},
    {!fold_channel}, {!iter_file}, {!create_writer}) that reads and writes
    in fixed-size chunks — memory stays O(chunk), never O(file), so .ftb
    traces larger than RAM can be scanned event by event. *)

type header = {
  nthreads : int;
  nlocks : int;
  nlocs : int;
  nevents : int;
}

val write_channel : out_channel -> Trace.t -> unit

val read_channel : in_channel -> (Trace.t, string) result
(** Fails with a description on bad magic, unsupported version, truncated
    input, or out-of-range ids (the result is well-formed {e dimensionally};
    combine with {!Trace.well_formed} for semantic checks).  Implemented on
    the streaming reader: the input is consumed chunk by chunk, never
    slurped whole. *)

val to_file : string -> Trace.t -> unit
val of_file : string -> (Trace.t, string) result

val to_bytes : Trace.t -> bytes
val of_bytes : bytes -> (Trace.t, string) result

(** {1 Streaming reader} *)

type reader

val open_channel : ?chunk_size:int -> in_channel -> (reader, string) result
(** Parse and validate the header; events are then pulled with {!next}.
    [chunk_size] (default 64 KiB) bounds resident memory.  On seekable
    channels the event count is checked against the channel length up
    front; on pipes it cannot be, but the reader never allocates
    proportionally to it either way. *)

val header : reader -> header

val events_read : reader -> int
(** Events already delivered by {!next}. *)

val byte_pos : reader -> int
(** Channel offset of the next undelivered byte.  Recording this alongside
    {!events_read} in a checkpoint lets a resumed analysis {!seek} straight
    to where it left off instead of re-decoding the prefix. *)

val seek : reader -> byte_offset:int -> next_index:int -> (unit, string) result
(** Position the reader so the next {!next} decodes the event at
    [next_index], whose encoding starts at [byte_offset] (both previously
    obtained from {!byte_pos}/{!events_read}).  Fails on non-seekable
    channels and out-of-range indices; offsets into the middle of an event
    surface later as a decode error. *)

val next : reader -> (Event.t option, string) result
(** The next event, [Ok None] once [nevents] have been delivered, or an
    error describing the corruption (truncation, bad tag, out-of-range
    operand).  Events are validated against the header's universe as they
    are decoded. *)

val open_bytes : bytes -> (reader, string) result
(** A reader over an in-memory payload (e.g. a network batch), sharing the
    validation and decode machinery of {!open_channel}.  {!seek} works by
    direct offset; {!byte_pos} counts from the start of the buffer.  The
    buffer is not copied — do not mutate it while the reader is live. *)

val open_string : string -> (reader, string) result

(** {1 Batch decoding}

    {!next} boxes every event twice ([Some] under [Ok]) before the consumer
    sees it.  The batch decoder instead fills reusable parallel int arrays,
    with no box per event, and consumers reconstruct only what they
    dispatch on.  It still allocates per event: the varint reader's local
    closure, twice per event (80 bytes), plus 40 bytes for each
    {!batch_event}.  Hot loops (the resumable runner, the shard
    router, the network daemon) stream .ftb input through this path. *)

type batch

val create_batch : ?capacity:int -> unit -> batch
(** A reusable decode buffer ([capacity] events per {!read_batch} call,
    default 8192). *)

val read_batch : reader -> batch -> (int, string) result
(** Decode up to one batch worth of events, validated against the header
    exactly as {!next}.  Returns how many were decoded; [Ok 0] means the
    trace is exhausted.  On [Error] the reader is mid-event and unusable
    without a {!seek}. *)

val batch_length : batch -> int
(** Events decoded by the last {!read_batch} (same as its [Ok] payload). *)

val batch_capacity : batch -> int

val batch_event : batch -> int -> Event.t
(** Reconstruct event [j] of the last batch ([0 <= j < batch_length]).
    Raises [Invalid_argument] out of range. *)

val batch_end : batch -> int -> int
(** Byte offset just past event [j] — exactly the {!byte_pos} a checkpoint
    taken after that event must record, letting the runner checkpoint at
    any point {e inside} a batch without offset drift. *)

val fold_channel :
  ?chunk_size:int ->
  in_channel ->
  init:'a ->
  f:('a -> int -> Event.t -> 'a) ->
  (header * 'a, string) result
(** [fold_channel ic ~init ~f] folds [f acc index event] over every event
    in constant memory. *)

val iter_channel :
  ?chunk_size:int ->
  in_channel ->
  f:(int -> Event.t -> unit) ->
  (header * unit, string) result

val iter_file :
  ?chunk_size:int ->
  string ->
  f:(int -> Event.t -> unit) ->
  (header * unit, string) result
(** Open, iterate, close (also on error). *)

(** {1 Streaming writer} *)

type writer

val create_writer :
  out_channel -> nthreads:int -> nlocks:int -> nlocs:int -> nevents:int -> writer
(** Write the header immediately; events follow via {!write_event}.  The
    event count must be known up front (it leads the event block), exactly
    as a recording instrumentation run knows its buffer's length. *)

val write_event : writer -> Event.t -> unit
(** Append one event, validating it against the declared universe.  Raises
    [Invalid_argument] on out-of-range operands or when more than [nevents]
    events are written. *)

val close_writer : writer -> unit
(** Flush buffered bytes.  Raises [Invalid_argument] if fewer events were
    written than the header promised (the file would be truncated for every
    reader).  Does not close the underlying channel. *)
