(** O1 — the O(1)-samples detector (the authors' follow-up paper).

    Keeps FastTrack's adaptive per-location state — last-write epoch,
    exclusive-read epoch, a full read clock only while a location is
    genuinely read-shared — but records only {e sampled} accesses in it, and
    orders them with the sampling clocks of Alg 2: ⊥-initialized [C_t], the
    local epoch [e_t] externalized out of the clock's own component, and the
    pending bit flushed at the first release after a sampled access.  State
    retained per location is O(1) in the common case regardless of how many
    samples were taken, where ST/SU/SO retain a full clock (or list) per
    location.

    Ordering checks substitute the current thread's component:
    [c@u ⊑ C_t[t ↦ e_t]].  On a fully sampled trace this coincides with
    FastTrack's epoch checks access by access, so the race report is
    byte-identical to FastTrack's; on a sub-sampled trace its race indices
    are a subset of ST's over the same sample set, and it still reports at
    least one race per racy location (FastTrack's per-variable coverage
    argument, restricted to the sampled subsequence). *)

module type S = sig
  include Detector.S

  val read_pool : t -> Read_pool.t
  (** The shared-mode read clocks, for tests. *)

  val check_pool : t -> bool
  (** {!Read_pool.check} over this detector's locations, for tests. *)
end

include S

(** The implementation, parameterized by the freshness-clock policy; used to
    derive the {!Sampling_o1_uclock} variant without duplication. *)
module Make (_ : sig
  val name : string
  val uclock : bool
end) : S
