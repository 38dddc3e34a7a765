(** The front of a detector split into a front and checkers, and the one
    module that ships views to checkers.

    A {e front} runs the sampler and the one real sync engine: the engine
    itself, fed every synchronization event plus one
    {!Ft_core.Detector.S.note_sampled} per sampled access, never an access.
    It tallies the accesses nobody checks.  Every access it {!admit}s goes
    to a {e checker} — {!Sharded}'s one checker domain, or the cluster
    worker that owns the location ({!Ft_cluster.Chash}), each one inline
    {!instance} — right behind the changes to the accessing thread's view
    that checker has not seen yet ({!ship}, one destination per checker).
    Domain-free, so a forking process can hold one (DESIGN.md §6a, §6e). *)

type inst = {
  i_handle : int -> Ft_trace.Event.t -> unit;
  i_note : Ft_trace.Event.tid -> unit;
  i_version : Ft_trace.Event.tid -> int;
  i_export : Ft_trace.Event.tid -> int array -> unit;
  i_import : Ft_trace.Event.tid -> int array -> int array -> unit;
  i_result : unit -> Ft_core.Detector.result;
  i_snapshot : unit -> Ft_core.Snap.t;
}
(** One engine instance behind closures. *)

val instance :
  Ft_core.Detector.packed -> ?snap:Ft_core.Snap.t -> Ft_core.Detector.config -> inst
(** A fresh instance, or one restored from [snap]. *)

type t

val create : engine:Ft_core.Engine.id -> Ft_core.Detector.config -> t

val admit : t -> int -> Ft_trace.Event.t -> bool
(** Feed event [i].  It first meets the front's {!Ft_trace.Validator},
    which raises {!Ft_trace.Validator.Ill_formed} if it breaks §2: neither
    the engine nor a checker ever sees such an event.  A sync event goes to
    the engine; an access the engine must check (a sampled one, or any for
    the engines that ignore the sampler — {!Ft_core.Engine.honours_sampler})
    is noted and answers [true]: the caller ships it to its owner.  Any
    other access is tallied. *)

val merge : t -> Ft_core.Detector.result array -> Ft_core.Detector.result
(** The plain engine's result from the checkers' parts: races sorted by
    declaration index, metrics the field-wise sum of the front's, the
    parts' and the tally ({!Ft_core.Metrics.add}). *)

val save : Ft_core.Snap.Enc.t -> t -> unit
(** Validator state, sampler state, engine snapshot, tally. *)

val load : Ft_core.Snap.Dec.t -> engine:Ft_core.Engine.id -> Ft_core.Detector.config -> t

(** {1 Shipping views} *)

type ship
(** Per destination and thread: the view version last shipped and a shadow
    of the view the destination holds. *)

val ship_create : t -> dests:int -> nthreads:int -> ship
(** Every destination holds the front's current views — right for fresh
    checkers fed by a fresh front. *)

val ship : ship -> t -> int -> Ft_trace.Event.tid -> (int array * int array) option
(** [ship s front d t]: if [t]'s version in the front's engine moved since
    destination [d] last saw it, the entries of [t]'s view that changed
    (strictly increasing indices, values) — possibly none, which still
    must reach the checker: its import invalidates same-epoch cache
    entries exactly as the sync handler that moved the version did.
    [None] when nothing moved. *)

val ship_save : Ft_core.Snap.Enc.t -> ship -> unit
val ship_load : Ft_core.Snap.Dec.t -> t -> dests:int -> nthreads:int -> ship
(** Reads what {!ship_save} wrote; the front gives the view size. *)
