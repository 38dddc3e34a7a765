(** Tree clocks (Mathur, Pavlogiannis, Tunç, Viswanathan, ASPLOS 2022) — the
    data structure the paper's §7 contrasts with ordered lists.

    A tree clock stores a vector timestamp as a tree rooted at the owning
    thread; every node remembers the owner's clock value at the moment its
    subtree was attached ([aclk]).  A join then traverses only the parts of
    the source tree the target has not seen: children are kept in
    decreasing-[aclk] order, so the scan of a node's children stops at the
    first subtree attached before the target's knowledge of that node.
    Joins are therefore "vt-work optimal" for computing the {e full}
    happens-before relation — but, as the paper argues, they cannot exploit
    the redundancy created by sampling timestamps, which is why the ordered
    list of §5 wins in that setting (this repository's ablation benchmarks
    measure exactly that).

    The implementation is array-based: node [t] is thread [t]'s entry and
    sibling lists are intrusive, so no allocation happens during joins. *)

type t

val create : int -> owner:int -> t
(** [create n ~owner]: the ⊥ timestamp over [n] threads, rooted at
    [owner]. *)

val size : t -> int

val root : t -> int

val get : t -> int -> int
(** O(1). *)

val inc : t -> int -> unit
(** [inc tc k] advances the owner's (root's) component by [k > 0]. *)

val join : into:t -> t -> unit
(** [join ~into src]: pointwise maximum, traversing only updated subtrees of
    [src].  [into]'s root is unchanged. *)

val join_count : into:t -> t -> int
(** Like {!join}; returns the number of components that changed. *)

val raise_entry : t -> int -> int -> unit
(** [raise_entry tc v w] lifts entry [v] to [max (get tc v) w], keeping
    every structural invariant — a join with a timestamp that knows only
    that entry.  O(1). *)

val monotone_copy : into:t -> t -> unit
(** [monotone_copy ~into src] makes [into] an exact copy of [src] — values,
    shape and root — under the precondition [into ⊑ src] pointwise (which
    lock clocks satisfy at a release, since the releasing thread joined the
    lock at its acquire).  Traverses only updated subtrees. *)

val force_copy : into:t -> t -> unit
(** Unconditional structural copy (values, shape, root), O(T).  Used where
    {!monotone_copy}'s precondition fails — release-stores on sync variables
    that the releasing thread never acquired (appendix A.2). *)

val leq : t -> t -> bool
(** Pointwise [⊑]. O(T). *)

val to_vc : t -> Vector_clock.t
(** Snapshot (tests, histories). O(T). *)

val check_invariants : t -> bool
(** Structural sanity: parent/child links consistent, children in
    decreasing-[aclk] order, every attached node's [aclk] at most its
    parent's clock, no cycles.  For tests. *)

val encode : Snap.Enc.t -> t -> unit

val decode : Snap.Dec.t -> size:int -> t
(** Raises [Snap.Corrupt] on wrong arity, out-of-range links, or a shape
    that fails {!check_invariants}. *)

val pp : Format.formatter -> t -> unit
