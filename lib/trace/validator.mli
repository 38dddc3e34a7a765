(** The semantics of §2, checked one event at a time.

    Every timestamp the engines compute assumes a well-formed trace:
    - lock events per lock form a prefix of [(acq^t rel^t)*] — at most one
      holder, releases by the holder, no double acquire (re-entrancy is not
      modelled);
    - a forked thread performs no event before the fork and is forked at most
      once; threads that are never forked may act freely (initial threads);
    - a joined thread performs no event after the join;
    - atomic sync variables ([Release_store]/[Acquire_load]) are disjoint
      from mutex ids — a sync object must not mix the two styles.

    This is the one implementation of those rules: {!Trace.well_formed} folds
    it over a whole trace, and every streaming consumer (the resumable runner,
    the serve and route fronts) steps it before the engine sees an event.
    The first failure ends the stream, so a rejected step promises nothing
    about the state it leaves.

    Event ids must lie in the universe the validator was created for; the
    decoders ({!Trace.make}, {!Trace_binary}) check that before an event gets
    here.  An access costs one byte load and one compare. *)

type t

exception Ill_formed of string
(** ["event <i>: <why>"], where [i] is the index passed to {!step}. *)

val create : nthreads:int -> nlocks:int -> t
(** Fresh state: no lock held, no sync object used, thread 0 running (the
    initial thread needs no fork). *)

val step : t -> int -> Event.t -> unit
(** [step v i e] checks event [i] against the state and records it.
    Raises {!Ill_formed} if [e] violates §2. *)

val to_ints : t -> int array
(** The state as [nthreads + nlocks] small integers, for snapshots. *)

val of_ints : nthreads:int -> nlocks:int -> int array -> (t, string) result
(** Inverse of {!to_ints}: [Error] unless the array has the universe's
    length and every entry is in range. *)
