(** FastTrack — DJIT+ with the epoch optimization on access histories.

    Write histories are single epochs; read histories adaptively switch
    between an epoch (exclusive reading) and a full vector clock (shared
    reading).  Synchronization handlers are identical to DJIT+ — the paper's
    innovations are orthogonal to this optimization (§2.1) and FastTrack is
    the FT baseline of the evaluation.  The sampler is ignored.

    FastTrack's per-event race declarations can differ from DJIT+ on
    same-epoch fast paths, but the set of racy locations coincides (this is
    checked by the test suite). *)

include Detector.S

val read_pool : t -> Read_pool.t
(** The shared-mode read clocks, for tests. *)

val check_pool : t -> bool
(** {!Read_pool.check} over this detector's locations, for tests. *)
