(** Checkpoint files (.ftc) for resumable analyses.

    A checkpoint packages one engine snapshot ({!Ft_core.Detector.S.snapshot})
    together with the metadata needed to resume: which engine and sampler
    strategy produced it, the universe it was sized for, how many trace
    events it has consumed, and — for .ftb streaming analyses — the byte
    offset of the next undecoded event so a resumed run can seek instead of
    re-reading the prefix.

    Container layout:
    {v
    "FTCK"  version-byte  checksum(8 bytes, LE FNV-1a 64 of payload)  payload
    v}
    The payload is a {!Ft_core.Snap} encoding of the metadata followed by
    the caller's snapshot ([detector]): for {!Runner}, the
    {!Ft_trace.Validator} state and the engine snapshot; for serve and the
    router, their own tagged layouts.  Version 2 is the first whose
    snapshots carry the validator; a version-1 file is refused, and every
    caller falls back as for any other unusable checkpoint.  Decoding never raises: bit flips are caught by the
    checksum, truncation by the checksum or the length-checked decoders, and
    format drift by the version byte — each yields [Error] with a
    description. *)

type meta = {
  engine : Ft_core.Engine.id;
  sampler : string;  (** {!Ft_core.Sampler.name} of the strategy in use *)
  nthreads : int;
  nlocks : int;
  nlocs : int;
  clock_size : int;
  next_index : int;  (** events already consumed; the resume point *)
  byte_offset : int;
      (** .ftb offset of the next undecoded event, or [-1] when the source
          is not a seekable binary trace *)
}

type t = { meta : meta; detector : Ft_core.Snap.t }

val fnv64 : string -> int64
(** The container's checksum primitive (FNV-1a 64) — shared with the
    cluster router's WAL framing so both on-disk formats validate bytes
    the same way. *)

val to_string : t -> string

val of_string : string -> (t, string) result
(** Never raises; any corruption yields [Error]. *)

val save : string -> t -> unit
(** Write atomically {e and durably}: temp file, [fsync], rename, then
    [fsync] of the containing directory — so an interrupted checkpoint
    never clobbers the previous good one, and a completed one survives a
    power cut (a rename published without syncing the data first could
    leave a complete-looking name over page-cache-only bytes).  Carries the
    [checkpoint.write] injection point: a scheduled {!Ft_fault.Fault.Torn_write}
    writes a prefix of the temp file, skips the rename and raises
    {!Ft_fault.Fault.Injected}, leaving [path] untouched.  Raises
    [Sys_error]/[Unix.Unix_error] on real I/O failure. *)

val load : string -> (t, string) result
