(** Ablation studies backing the design choices DESIGN.md calls out.

    - {!engines_table}: every engine on one workload — shows the ordering
      DJIT+ > FastTrack ≳ FastTrack-TC ≫ ST > SU > SL > SO under sampling,
      and that tree clocks, optimal for full HB, do not help the sampling
      partial order (paper §7);
    - {!clock_sweep}: the same engines as the vector-clock width T grows —
      the O(|S|·T²) vs O(|S|·T) separation;
    - {!lock_sweep}: clock operations as the number of locks L grows — the
      O(|S|·T(T+L)) (SU) vs O(|S|·T) (SO) separation of Lemmas 7 and 8;
    - {!sampler_table}: detection recall and cost across sampling
      strategies (Bernoulli, Pacer-style windows, LiteRace-style cold
      regions) — the Analysis Problem is agnostic to how S is chosen (§3).

    Every table accepts [?jobs] (default 1 = inline sequential): its
    independent cells fan out over that many domains, and rows are
    reassembled by task index, so non-timing columns are identical for any
    [jobs].  Timing columns are medians of [repeats] alternating
    {!Timing.run} rounds: one call over all engines in {!engines_table},
    one per width in {!clock_sweep}.  The widths contend for cores under
    [jobs > 1] — keep [jobs = 1] when the milliseconds matter.  A crashed
    cell raises [Failure] (an incomplete ablation table would be
    misleading). *)

val engines_table :
  ?repeats:int -> ?seed:int -> ?rate:float -> ?clock_size:int -> ?jobs:int ->
  target_events:int -> unit -> string

val clock_sweep :
  ?repeats:int -> ?seed:int -> ?rate:float -> ?sizes:int list -> ?jobs:int ->
  target_events:int -> unit -> string

val lock_sweep :
  ?seed:int -> ?rate:float -> ?stripes:int list -> ?jobs:int -> target_events:int -> unit ->
  string

val sampler_table :
  ?seed:int -> ?clock_size:int -> ?jobs:int -> target_events:int -> unit -> string
