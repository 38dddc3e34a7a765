(** Bounded single-producer single-consumer ring.

    {!Sharded}'s front owns the producer side of its ring; the checker's
    domain owns the consumer side.  Capacity is fixed at
    creation: a {!push} into a full ring spins until the consumer frees a
    slot, which is the backpressure that keeps a fast producer from
    buffering an unbounded prefix of the trace.

    Memory-safety across domains follows the standard publication idiom:
    the producer writes the slot and then advances [tail] (an atomic), the
    consumer reads [tail] before reading the slot; symmetrically the
    consumer advances [head] only {e after} it is done with a slot, so a
    producer that observes the freed slot — or a router that observes
    [is_empty] — has a happens-before edge to everything the consumer did
    with the messages so far.  That last property is what makes
    [is_empty] usable as the front's flush barrier. *)

type 'a t

val create : capacity:int -> dummy:'a -> 'a t
(** [dummy] fills the backing array; it is never handed out. *)

val push : 'a t -> 'a -> unit
(** Producer only.  Spins (with [Domain.cpu_relax]) while the ring is
    full. *)

val try_push : 'a t -> 'a -> bool
(** Producer only.  Push without blocking; [false] when the ring is full.
    {!Sharded}'s push loop uses this so a producer facing a {e dead}
    consumer (a failed checker no longer draining) can notice the failure
    instead of spinning in {!push} forever. *)

val peek : 'a t -> 'a option
(** Consumer only.  The oldest unconsumed element, without removing it;
    [None] when the ring is empty. *)

val advance : 'a t -> unit
(** Consumer only.  Drop the element {!peek} returned.  Call it {e after}
    acting on the element: the gap is what lets [is_empty] mean
    "everything pushed so far has been fully processed". *)

val is_empty : 'a t -> bool
(** Callable from any domain. *)

val length : 'a t -> int
(** Unconsumed elements, callable from any domain.  Racing a concurrent
    push/advance it may be off by the in-flight operations — an occupancy
    telemetry reading, not a synchronization primitive. *)
