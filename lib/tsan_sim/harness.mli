(** The online-detection latency harness — the substitute for the paper's
    ThreadSanitizer + MySQL experiments (§6.2).

    Baselines (§6.2.2):
    - NT: replaying the trace with no handlers at all;
    - ET: replaying through a no-op handler behind the same dispatch as real
      detectors — the pure instrumentation cost;
    - FT: FastTrack on every event.

    Configurations: ST / SU / SO at each sampling rate.  All configurations
    replay the {e same} trace (one per benchmark and seed), so differences
    are purely algorithmic.  [AO(S) = latency(S) − latency(ET)] exactly as
    in the paper; latency here is wall-clock analysis time for the trace
    (the workload volume is fixed, so per-request latency is proportional).
    Every configuration of one trace is timed in one {!Timing.run} call, so
    each AO subtracts an ET measured in the same rounds. *)

type rate_result = {
  rate : float;
  st_time : Timing.t;
  su_time : Timing.t;
  so_time : Timing.t;
  st_locs : int;   (** racy locations exposed *)
  su_locs : int;
  so_locs : int;
  su_metrics : Ft_core.Metrics.t;
  so_metrics : Ft_core.Metrics.t;
}

type measurement = {
  benchmark : string;
  events : int;
  nt : Timing.t;
  et : Timing.t;
  ft : Timing.t;
  ft_locs : int;
  per_rate : rate_result list;
}

val default_rates : float list
(** [0.003; 0.03; 0.10] — the paper's 0.3%, 3% and 10%. *)

val default_clock_size : int
(** 64 — the machine width of §6.2.2; use 256 to match TSan v3's fixed
    vector-clock size exactly (slower). *)

val run_all :
  ?repeats:int ->
  ?rates:float list ->
  ?seed:int ->
  ?clock_size:int ->
  ?nseeds:int ->
  ?jobs:int ->
  ?on_error:(Ft_par.error -> unit) ->
  ?report:(Ft_par.stats -> unit) ->
  ?profiles:Ft_workloads.Db_sim.profile list ->
  target_events:int ->
  unit ->
  measurement list
(** Measures every profile: generates each benchmark trace and times every
    configuration on it in [repeats] alternating rounds (default 3).  With
    [nseeds > 1] (default 1) each round's walls are averaged over that many
    independently generated traces (seeds [seed .. seed+nseeds−1]), while
    detection counts come from the first.  The (profile × seed) grid fans
    out over [jobs] domains (default 1 = inline sequential); cells are
    merged back per profile in seed order, so detection counts and work
    metrics are identical for any [jobs].  Wall-clock timings are {e not}:
    concurrent cells contend for cores, so use [jobs = 1] for publishable
    latency numbers and [jobs > 1] for quick iterations.  A crashed cell
    goes to [on_error] (default: one line on stderr) and is dropped from
    its profile's average; a profile with no surviving cell is omitted.
    [report] receives the runner's wall/busy-time statistics. *)

(** {1 Figure tables} — rendered tables matching the paper's plots. *)

val fig5a : measurement list -> string
(** Latency of ET, FT and ST at each rate, relative to NT. *)

val fig5b : measurement list -> string
(** Algorithmic-overhead improvement [1 − AO(S)/AO(ST)] for SU and SO. *)

val fig6a : measurement list -> string
(** Racy locations exposed by ST/SU/SO relative to FT. *)

val fig6b : measurement list -> string
(** Share of acquire/release events on which SU performed an O(T)
    traversal. *)

val fig6c : measurement list -> string
(** Mean ordered-list entries traversed per acquire under SO. *)

val summary : measurement list -> string
(** Mean relative latencies and AO improvements across benchmarks —
    the headline numbers of §6.2.3–6.2.4. *)

val ao : measurement -> time:float -> float
(** [ao m ~time = time − m.et.median], clamped at a small positive
    epsilon. *)
