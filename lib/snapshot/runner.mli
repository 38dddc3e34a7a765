(** Resumable analyses: run a detection engine over a trace with periodic
    checkpoints, or resume one from a {!Checkpoint} written earlier.

    Both entry points share the contract that matters: an analysis that is
    checkpointed at event [k] and resumed produces {e exactly} the races,
    race order, and metrics of an uninterrupted run — snapshots capture all
    detector state, including sampler counting tables and the ordered-list
    sharing structure.

    A checkpoint that fails to load or validate (corrupt bytes, wrong
    engine/sampler/universe, truncation) is reported on stderr and the
    analysis {e falls back to a full replay}; the failure reason is surfaced
    in [resume_error].  The result is correct either way.

    Every event meets {!Ft_trace.Validator} before the engine: the first
    one that breaks §2 ends the analysis with
    [Error "ill-formed trace: event <i>: <why>"].  A checkpoint carries the
    validator's state next to the engine's, so a resumed run checks the
    suffix exactly as a straight one does. *)

type outcome = {
  result : Ft_core.Detector.result;
  resumed_at : int option;  (** event index the run resumed from, if any *)
  resume_error : string option;
      (** why a requested resume fell back to full replay, if it did *)
  checkpoints_written : int;
}

val analyze_file :
  engine:Ft_core.Engine.id ->
  ?sampler:Ft_core.Sampler.t ->
  ?clock_size:int ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?resume:string ->
  string ->
  (outcome, string) result
(** Stream a .ftb file through [engine] without materializing the trace.
    With [checkpoint] and a positive [checkpoint_every], a checkpoint is
    (re)written after every [checkpoint_every]-th event, recording the .ftb
    byte offset so [resume] can seek directly to the suffix.  [sampler]
    must be the same strategy the checkpoint was taken with (validated by
    name).  [Error] is reserved for unusable inputs: unreadable or corrupt
    trace files, an ill-formed trace, or a clock size below the thread
    count. *)

val analyze_trace :
  engine:Ft_core.Engine.id ->
  ?sampler:Ft_core.Sampler.t ->
  ?clock_size:int ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?resume:string ->
  Ft_trace.Trace.t ->
  (outcome, string) result
(** Same contract over an in-memory trace (e.g. parsed from the textual
    format).  Checkpoints record no byte offset ([-1]); resuming skips the
    prefix by index. *)
