(** Fine-grained work counters (§6.2.6, §A.1.2).

    Every detector owns one of these and bumps the counters relevant to it;
    the experiment harnesses read them to reproduce Figs 6–9.  All counters
    start at zero. *)

type t = {
  mutable events : int;          (** events processed *)
  mutable reads : int;
  mutable writes : int;
  mutable sampled_accesses : int;  (** |S| as realized on this trace *)
  mutable acquires : int;          (** acquire + acquire-load + join edges *)
  mutable releases : int;          (** release + release-store + fork edges *)
  mutable acquires_skipped : int;
      (** acquires whose freshness check avoided the O(T) join
          (Alg 3 line 7 false; Alg 4 line 7 false) *)
  mutable releases_processed : int;
      (** SU: releases that performed the O(T) copy; copy semantics makes
          this the Fig 8 numerator for SU *)
  mutable deep_copies : int;       (** SO: lazy copies materialized *)
  mutable shallow_copies : int;    (** SO: O(1) release hand-offs *)
  mutable vc_full_ops : int;       (** O(T) vector-clock traversals performed *)
  mutable entries_traversed : int; (** SO: ordered-list entries examined at acquires *)
  mutable entries_saved : int;
      (** SO: T − traversed, summed over non-skipped acquires (Fig 9) *)
  mutable race_checks : int;       (** access-history comparisons *)
  mutable races : int;             (** race declarations *)
  mutable same_epoch_hits : int;
      (** accesses answered by the same-epoch fast path: the location's last
          recorded check by this thread carries the same epoch and no sync
          has touched the thread's clock since, so the full history
          comparison is provably redundant and skipped.  Purely additive —
          every other counter is bumped exactly as if the slow path ran. *)
}

val create : unit -> t

val copy : t -> t

val field_count : int
(** Number of record fields, as seen by {!to_array}. *)

val to_array : t -> int array
(** Every counter, in declaration order — the serialization contract used by
    snapshots.  The guard test checks its length against the record's actual
    arity so that field drift breaks the suite, not the checkpoints. *)

val field_names : string array
(** Field names parallel to {!to_array} — the JSON/STATS renderers zip the
    two arrays, so every counter (including future ones) appears in every
    export or the startup assertion fires. *)

val to_json : t -> string
(** One flat JSON object, [{"events": 1, ...}], keys from {!field_names} in
    {!to_array} order. *)

val of_array : int array -> t option
(** Inverse of {!to_array}; [None] on arity mismatch. *)

val encode : Snap.Enc.t -> t -> unit
val decode : Snap.Dec.t -> t
(** Snapshot (de)serialization; [decode] raises [Snap.Corrupt] on arity
    mismatch. *)

val add : into:t -> t -> unit
(** Pointwise accumulation over every field: repeated runs, or the parts
    of one sharded run that did disjoint work (front, checkers, tally) —
    how the sharded detector and the cluster router merge. *)

val acquire_total : t -> int
val release_total : t -> int

val acquires_skipped_ratio : t -> float
(** Skipped / total acquires (Fig 7). 0 when no acquires. *)

val releases_processed_ratio : t -> float
(** Processed (SU) / total releases (Fig 8). *)

val deep_copy_ratio : t -> float
(** Deep copies (SO) / total releases (Fig 8). *)

val saved_traversal_ratio : t -> float
(** SavedTraversals / AllTraversals over non-skipped acquires (Fig 9). *)

val sync_full_work_ratio : t -> float
(** Fraction of acquire+release events that triggered an O(T) traversal
    (Fig 6b). *)

val mean_entries_per_acquire : t -> float
(** Ordered-list entries examined per acquire, averaged over all acquires
    (Fig 6c). *)

val pp : Format.formatter -> t -> unit
