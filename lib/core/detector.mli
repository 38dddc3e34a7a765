(** Common interface of all race-detection engines.

    A detector is created for a fixed universe (threads/locks/locations) and
    a sampler, consumes events in streaming fashion, and exposes its race
    reports and work counters.  The first-class-module plumbing keeps the
    per-event dispatch identical across engines, which matters for the
    latency experiments. *)

type config = {
  nthreads : int;
  nlocks : int;
  nlocs : int;
  clock_size : int;
      (** Number of entries in every vector clock / ordered list; at least
          [nthreads].  ThreadSanitizer v3 uses a fixed 256-entry clock
          (§6.2.6) regardless of the live thread count, which is what makes
          full traversals expensive and skipping them worthwhile; setting
          this reproduces that cost model.  Detection results are unaffected
          (padding entries stay 0 — checked by the test suite). *)
  sampler : Sampler.t;
}

val config_of_trace :
  ?sampler:Sampler.t -> ?clock_size:int -> Ft_trace.Trace.t -> config
(** Universe sizes from the trace; [sampler] defaults to {!Sampler.all} and
    [clock_size] to the trace's thread count. *)

type result = {
  engine : string;
  races : Race.t list;    (** in declaration order *)
  metrics : Metrics.t;
}

val racy_locations : result -> Ft_trace.Event.loc list

module type S = sig
  type t

  val name : string

  val create : config -> t

  val handle : t -> int -> Ft_trace.Event.t -> unit
  (** [handle d index event].  Indices must be fed in increasing order; they
      key the sampling decision. *)

  val result : t -> result

  val races_rev : t -> Race.t list
  (** Races declared so far, newest first, without copying — O(1).  The
      online monitor peels freshly declared races off the head instead of
      re-walking the full (reversed) list of {!result}. *)

  val note_sampled : t -> Ft_trace.Event.tid -> unit
  (** [note_sampled d t] applies the {e thread-local} state effect of a
      sampled access by thread [t] without touching any location state: for
      the sampling engines (ST/SU/SO and ablations) it sets the thread's
      pending bit, so the next release/fork/join flushes the local epoch
      exactly as if the access had been handled; for engines whose access
      handlers only touch per-location state (DJIT+, FastTrack, the lockset
      baseline) it is a no-op.  This is the hook a sync-only instance rests
      on: fed every sync event plus one [note_sampled] per sampled access
      (the bit is idempotent until the next flush), it evolves exactly the
      clocks of the full run without seeing a single access — the front of
      a pipelined detector or of the cluster router.
      Never called by single-stream runners. *)

  (** {2 Views}

      A thread's {e view} is everything an access handler reads about the
      accessing thread: its timestamp with the own entry replaced by the
      current epoch — [C_t[t ↦ e_t]], the bound every race check compares
      a location's history against — or, for the lockset baseline, the set
      of locks it holds.  An access handler reads only the location's
      state and the view, so an instance fed nothing but accesses (with
      {!Sampler.all}) checks them exactly as the full engine would, once
      it is told each view change.  This is the hook every checker behind a
      front rests on ([Ft_shard.Front]). *)

  val view_size : config -> int
  (** Entries of a view: [clock_size], or [nlocks] for the lockset
      baseline (one 0/1 entry per lock). *)

  val view_version : t -> Ft_trace.Event.tid -> int
  (** Changes whenever the thread's view may have changed — only sync
      handlers move it — and, for the engines with a same-epoch cache,
      whenever the thread's cache entries were invalidated.  O(1). *)

  val export_view : t -> Ft_trace.Event.tid -> int array -> unit
  (** [export_view d t buf] writes thread [t]'s view into [buf.(0 ..
      view_size - 1)]. *)

  val import_view : t -> Ft_trace.Event.tid -> int array -> int array -> unit
  (** [import_view d t idx vals] sets view entry [idx.(j)] to [vals.(j)]
      for every [j] and invalidates the thread's same-epoch cache entries,
      as the sync handler that moved the exporter's version did.  Called
      on checkers, which handle no sync events. *)

  val snapshot : t -> Snap.t
  (** Serialize the complete detector state — clocks, epochs, access
      histories, sampler state, metrics, race reports, and (for SO) the
      ordered lists' recency order and the lazy-copy sharing structure — so
      that [restore]d state is behaviourally indistinguishable from the
      original on any event suffix. *)

  val restore : config -> Snap.t -> t
  (** Rebuild a detector from a snapshot taken with the same configuration.
      The sampler in [config] must be the same strategy the snapshotted run
      used (samplers are specifications, not serializable closures — the
      snapshot carries only their mutable per-instance state).  Raises
      [Snap.Corrupt] when the payload is malformed or does not fit the
      configuration's universe sizes. *)
end

type packed = (module S)

val run :
  packed ->
  ?sampler:Sampler.t ->
  ?clock_size:int ->
  ?limit:int ->
  Ft_trace.Trace.t ->
  result
(** Create, feed the whole trace (or its first [limit] events), collect the
    result.  [limit] models the paper's fixed-time-budget runs: a slower
    configuration gets through a shorter prefix of the workload (§6.2.5). *)

val run_instrumented :
  packed -> ?sampler:Sampler.t -> ?clock_size:int -> Ft_trace.Trace.t -> result
(** Like {!run}, but every event additionally pays the simulated
    instrumentation cost ({!Instrumentation}); this is how the latency
    harness times detectors so that [latency − ET] isolates analysis cost. *)

val replay_only : Ft_trace.Trace.t -> int
(** Iterate the trace calling no handlers (the NT baseline of §6.2.2);
    returns a checksum so the loop cannot be optimized away. *)

val replay_instrumented : Ft_trace.Trace.t -> int
(** Iterate the trace paying only the instrumentation cost (the ET
    baseline: instrumented, no detection). *)
