(** Registry of the detection engines evaluated in the paper (§6.2.2).

    - ["djit"]      — Algorithm 1 (full detection, no sampling);
    - ["fasttrack"] — FT, DJIT+ with the epoch optimization;
    - ["fasttrack-tc"] — FastTrack over tree clocks (§7 comparison);
    - ["st"]        — Algorithm 2, naïve sampling;
    - ["su"]        — Algorithm 3, freshness timestamps;
    - ["so"]        — Algorithm 4, ordered lists + lazy copy;
    - ["sl"]        — ablation: Algorithm 4 without the ordered list;
    - ["su-noskip"] — ablation: Algorithm 3 without the release-side skip;
    - ["o1"]        — the follow-up paper: O(1) state retained per sampled
      location ({!Sampling_o1});
    - ["o1-u"]      — O1 carrying Algorithm 3's freshness clocks;
    - ["eraser"]    — the unsound lockset baseline ({!Lockset}); resolvable
      by name but deliberately {e not} in {!all}, whose members share exact
      HB semantics. *)

type id = Djit | Fasttrack | Fasttrack_tc | St | Su | So | Sl | Sn | O1 | O1u | Eraser

val all : id list
(** The HB-exact engines (everything except [Eraser]). *)

val name : id -> string
val of_name : string -> id option

val detector : ?racy_fastpath:bool -> id -> Detector.packed
(** [racy_fastpath] (default [false]) wraps the engine in {!Racy_gate}:
    once a location races, later accesses to it are skipped.  Changes the
    verdict set — keep it off anywhere byte-identity matters. *)

val sampling_engines : id list
(** [St; Su; So; O1; O1u] — the engines that honour the sampler. *)

val honours_sampler : id -> bool
(** Does the engine check only the accesses its sampler selects?  Every
    engine but DJIT+ and the two FastTracks, which check every access
    whatever the sampler — the ablations and the lockset baseline
    included, which is why this is not membership of {!sampling_engines}. *)

val run :
  id ->
  ?racy_fastpath:bool ->
  ?sampler:Sampler.t ->
  ?clock_size:int ->
  ?limit:int ->
  Ft_trace.Trace.t ->
  Detector.result
(** Convenience wrapper around {!Detector.run}. *)

val run_instrumented :
  id -> ?sampler:Sampler.t -> ?clock_size:int -> Ft_trace.Trace.t -> Detector.result
(** Wrapper around {!Detector.run_instrumented}. *)
