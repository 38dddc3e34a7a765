(** Deterministic, seed-driven fault injection.

    The pipeline around the detectors — shard domains, SPSC rings, the serve
    daemon's socket loop, checkpoint writes — is threaded with {e named
    injection points} ([Fault.point "shard.step"], [Fault.torn_len
    "checkpoint.write"], …).  By default every point is pass-through: one
    atomic load and nothing else, so a binary that never arms the layer
    behaves byte-identically to one compiled without it.

    Arming installs a {e schedule}: at each hit of a point the layer draws
    from a PRNG stream derived {e statelessly} from [(seed, point, lane,
    hit)] (splitmix64 via {!Ft_support.Prng}), so whether the n-th hit of a
    point fires — and which fault it fires — is a pure function of the seed
    and the hit count.  No [Random], no wall clock: a chaos run is replayable
    from its seed even though shard workers hit their points from different
    domains in racy order, because every [(point, lane)] pair counts its own
    hits.  [lane] separates instances of one point that run concurrently
    (shard workers pass their shard index).

    The paper's equivalence results (ST ≡ SU ≡ SO on every trace) make the
    surrounding harness unusually testable: after {e any} injected fault and
    recovery, the final REPORT must be byte-identical to a fault-free run.
    The chaos suite ([test_fault]) and the CI chaos smoke assert exactly
    that. *)

type kind =
  | Exn  (** raise {!Injected} at the point — a handler/worker failure *)
  | Partial_io  (** an I/O operation transfers fewer bytes than asked *)
  | Torn_write  (** a file write stops partway — a power cut mid-checkpoint *)
  | Delay  (** sleep a few hundred microseconds — scheduling jitter *)

val kind_to_string : kind -> string
val kind_of_string : string -> kind option

type incident = {
  point : string;
  lane : int;
  kind : kind;
  hit : int;  (** 1-based hit count of [(point, lane)] at which this fired *)
  ordinal : int;  (** 1-based global fire number *)
}

exception Injected of incident
(** Raised at a point when the schedule fires {!Exn} there (and carried by the exception returned from {!torn_len}). *)

val describe : incident -> string
(** One log line, e.g.
    [fault #3: point=shard.step lane=2 kind=exn hit=47]. *)

type config = {
  seed : int;
  prob : float;  (** per-hit fire probability (default 0.01) *)
  points : string list option;  (** [None] = every point *)
  kinds : kind list option;
      (** [None] = every kind the point supports; otherwise the
          intersection with the point's supported kinds *)
  max_fires : int option;  (** stop firing after this many faults *)
  delay_s : float;  (** base duration of {!Delay} faults (default 1 ms) *)
  log : bool;  (** print {!describe} to stderr as faults fire *)
}

val default : seed:int -> config

val parse : string -> (config, string) result
(** Parse a [--chaos] argument: [SEED] or [SEED:opt,opt,...] with options
    [p=FLOAT], [points=a+b+c], [kinds=exn+delay+...], [max=N],
    [delay=FLOAT].  Parsed configs log to stderr ([log = true]). *)

val spec_of_config : config -> string
(** Render a config back to [SEED:...] form (for diagnostics). *)

(** {1 Arming} *)

val arm : config -> unit
(** Install a schedule (replacing any previous one) and reset the hit
    counters, fire counters and incident log. *)

val arm_exact : ?lane:int -> point:string -> hit:int -> kind -> unit
(** Single-shot injection for tests: fire exactly [kind] at the [hit]-th
    check of [(point, lane)] (1-based), once, and nothing else. *)

val disarm : unit -> unit
val armed : unit -> bool

(** {1 Telemetry} *)

val fired : unit -> int
(** Faults fired since the last {!arm} — the [racedet_faults_injected]
    counter of the serve daemon. *)

val checks : unit -> int
(** Point checks since the last {!arm} (counted only while armed) — proves
    the injection points are actually exercised when a pass-through run
    ([prob = 0]) reports zero fires. *)

val incidents : unit -> incident list
(** Chronological. *)

(** {1 Injection points}

    Each entry point supports a fixed set of kinds; the schedule only fires
    kinds in the intersection of that set, the point's [?supports]
    refinement, and the armed config's [kinds]. *)

val point : ?lane:int -> ?supports:kind list -> string -> unit
(** A control-flow point.  Supported kinds default to
    [[Exn; Delay]]; pass [?supports] to narrow them ([[Delay]] where an
    exception could lose data).  Fires {!Exn} by raising {!Injected};
    {!Delay} sleeps and returns. *)

val io_len : ?lane:int -> string -> int -> int
(** [io_len p n] — an I/O point about to transfer [n] bytes.  Returns a
    possibly smaller positive length ({!Partial_io}); may also raise
    ({!Exn}) or sleep ({!Delay}).  Returns [n] unchanged when nothing
    fires (or [n <= 1], which cannot be shortened). *)

val torn_len : ?lane:int -> string -> int -> (int * exn) option
(** [torn_len p n] — a durability point about to write [n] bytes.
    [Some (keep, e)] means a {!Torn_write} fired: the caller must write
    only the first [keep] bytes ([0 <= keep < n]) and then [raise e],
    simulating a crash mid-write.  May also raise ({!Exn}) or sleep
    ({!Delay}).  [None] = write everything. *)
