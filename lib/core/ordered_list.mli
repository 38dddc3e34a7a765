(** The ordered-list timestamp of §5.

    An ordered list stores a vector timestamp in a doubly linked list whose
    node order records *recency of update*: {!set} and {!increment} move the
    touched node to the head in O(1).  By Proposition 6, if a reader's
    freshness lag behind the writer is [d], only the first [d] nodes can hold
    entries the reader does not already know — so an acquire traverses a
    [d]-prefix instead of the whole vector (Alg 4, line 10).

    Representation: each thread owns exactly one node, so nodes are indexed
    by thread id and the list is two int arrays plus head and tail indices.
    A shallow copy is O(1) reference sharing, resolved lazily by the
    detector (the [shared] flag lives in the detector, not here).

    A deep copy preserves the recency order and costs O(hi), not O(T): each
    list keeps a watermark [hi], one past the highest node ever moved to
    the head, and every node at or above it still has time 0 and its
    initial place.  {!copy_into} writes only nodes [0, max hi hi'] of a
    list that already exists, so a detector that recycles its unreferenced
    lists (SO keeps a free stack, counted with {!refs}) copies without
    allocating and in time proportional to the threads that ever ran, not
    to the clock width. *)

type t

val create : int -> t
(** [create n]: the ⊥ timestamp over [n] threads.  Initial order is
    [0 < 1 < … < n−1] from head to tail (arbitrary, as all entries are 0). *)

val size : t -> int

val get : t -> int -> int
(** O(1); does not change the order. *)

val set : t -> int -> int -> unit
(** [set o t v] stores [v] and moves [t]'s node to the head. O(1). *)

val increment : t -> int -> int -> unit
(** [increment o t k] adds [k] and moves [t]'s node to the head. O(1). *)

val deep_copy : t -> t
(** Fresh structure with identical values *and identical order*. O(T). *)

val copy_into : into:t -> t -> unit
(** [copy_into ~into src] makes [into] equal to [src] — values, order and
    watermark — writing only the nodes below both watermarks and the one
    at the higher of them.  Allocates nothing.  Both lists must have the
    same size.  The reference count of [into] is left alone. *)

val values_into : t -> int array -> unit
(** [values_into o dst] writes thread [i]'s value to [dst.(i)] for every
    [i], in index order.  [dst] must be at least [size o] long.  O(T). *)

val refs : t -> int
val set_refs : t -> int -> unit
(** A reference count for the list's owner to maintain; [0] after
    {!create}, {!deep_copy} and {!decode}.  Nothing in this module reads
    it. *)

val iter_prefix : t -> int -> (int -> int -> unit) -> unit
(** [iter_prefix o d f] applies [f tid time] to the first [min d T] nodes,
    head first — the [O_ℓ[0:d]] traversal of Alg 4. *)

val iter : t -> (int -> int -> unit) -> unit
(** All nodes, head first. *)

val leq_vc : t -> Vector_clock.t -> bool
(** Pointwise [⊑] against a plain vector clock. O(T). *)

val vc_leq : Vector_clock.t -> t -> bool
(** [vc_leq v o] is [v ⊑ o]. O(T). *)

val to_vc : t -> Vector_clock.t
(** Snapshot as a plain vector clock. O(T). *)

val order : t -> int list
(** Thread ids from head to tail (tests and pretty-printing). *)

val check_invariants : t -> bool
(** Structural sanity: the node chain is a permutation of all thread ids,
    forward/backward links agree, and every node at or above the watermark
    sits at its own index with time 0.  For tests. *)

val hash : t -> int
(** Hash of every thread's value, for {!Snap.Enc.shared}. O(T). *)

val encode : Snap.Enc.t -> t -> unit

val decode : Snap.Dec.t -> size:int -> t
(** Rebuilds the list from its values and head-to-tail permutation; the
    recency order is restored exactly, and the watermark is recomputed as
    the least one the restored list satisfies.  Raises [Snap.Corrupt] on length
    mismatch, negative entries, or a non-permutation order. *)

val pp : Format.formatter -> t -> unit
(** Renders head-to-tail as [[t3:7 t0:2 …]]. *)
