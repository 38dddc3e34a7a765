(** Offline analysis experiments in the style of the paper's RAPID study
    (§A.1): run each engine over the same traces with the same seeds, count
    fine-grained work metrics, and aggregate over repeated runs.

    The four engines of the appendix are SU-(3%), SO-(3%), SU-(100%) and
    SO-(100%): Algorithm 3 and Algorithm 4 at a 3% Bernoulli sampling rate
    and with every access marked. *)

type engine_cfg = {
  engine : Ft_core.Engine.id;
  rate : float;  (** 1.0 means {!Ft_core.Sampler.all} *)
  label : string;
}

val appendix_engines : engine_cfg list
(** [SU-(3%); SO-(3%); SU-(100%); SO-(100%)], in the paper's bar order. *)

type row = {
  benchmark : string;
  label : string;
  runs : int;          (** seeded runs that completed (failed cells are dropped) *)
  metrics : Ft_core.Metrics.t;     (** summed over runs *)
  racy_locations : float;          (** mean distinct racy locations per run *)
  peak_sampled : int;  (** largest per-run sampled-set size across the runs *)
}

val run :
  ?benchmarks:Ft_workloads.Classic.benchmark list ->
  ?engines:engine_cfg list ->
  ?runs:int ->
  ?scale:int ->
  ?base_seed:int ->
  ?jobs:int ->
  ?on_error:(Ft_par.error -> unit) ->
  ?report:(Ft_par.stats -> unit) ->
  unit ->
  row list
(** [run ()] analyses every classic benchmark with every appendix engine,
    [runs] times each (default 30, as in §A.1.1), with seeds
    [base_seed + 0 … base_seed + runs − 1] shared across engines.  The trace
    for seed s is generated once and fed to all engines.

    The (benchmark × seed) grid fans out over [jobs] domains (default 1 =
    run inline sequentially); results are merged in task order, so the rows
    — and every figure rendered from them — are identical for any [jobs].
    A crashed cell is passed to [on_error] (default: one line on stderr) and
    excluded from that benchmark's aggregates instead of aborting the grid;
    [report] receives the runner's wall/busy-time statistics. *)

(** {1 Figure tables}

    Each returns the rendered table and prints nothing. *)

val fig7 : row list -> string
(** Ratio of acquires skipped over total acquires, per benchmark × engine. *)

val fig8 : row list -> string
(** Ratio of releases processed (SU) or deep copies created (SO) over total
    releases. *)

val fig9 : row list -> string
(** Ordered-list saving ratio SavedTraversals/AllTraversals for the SO
    engines. *)

val summary : row list -> string
(** Aggregate means of the three figures' quantities per engine — the
    headline numbers quoted in §A.1.2. *)

val eraser_comparison :
  ?benchmarks:Ft_workloads.Classic.benchmark list ->
  ?scale:int ->
  ?seed:int ->
  unit ->
  string
(** Precision table: ground-truth racy locations (oracle) vs the HB engine
    (SO, exact by construction) vs the Eraser lockset baseline, with
    Eraser's false positives and false negatives called out per benchmark —
    the soundness gap §7 attributes to lockset detectors.  Uses small traces
    (the oracle is quadratic). *)
