(** The front of a location-sharded detector, and the one module that ships
    views to checkers.

    A {e front} runs the sampler and the one real sync engine: the engine
    itself, fed every synchronization event plus one
    {!Ft_core.Detector.S.note_sampled} per sampled access, never an access.
    It tallies the accesses nobody checks.  Every access it {!admit}s goes
    to a {e checker} that owns the location — a domain of {!Sharded}, or a
    worker process of the cluster router — right behind the changes to the
    accessing thread's view that checker has not seen yet ({!ship}).
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

type source = {
  version : Ft_trace.Event.tid -> int;  (** moves whenever the view may have *)
  export : Ft_trace.Event.tid -> int array -> unit;  (** writes [C_t\[t ↦ e_t\]] *)
}
(** Where shipped views come from: a front's engine, or the table of views
    a cluster worker imported from its router. *)

type t

val create : engine:Ft_core.Engine.id -> Ft_core.Detector.config -> t

val source : t -> source
(** The engine's own views. *)

val view_size : t -> int

val admit : t -> int -> Ft_trace.Event.t -> bool
(** Feed event [i].  A sync event goes to the engine; an access the engine
    must check (a sampled one, or any for the engines that ignore the
    sampler — {!Ft_core.Engine.honours_sampler}) is noted and answers
    [true]: the caller ships it to its owner.  Any other access is
    tallied. *)

val merge : t -> Ft_core.Detector.result array -> Ft_core.Detector.result
(** The unsharded engine's result from the checkers' parts: races sorted by
    declaration index, metrics the field-wise sum of the front's, the
    parts' and the tally ({!Ft_core.Metrics.add}). *)

val save : Ft_core.Snap.Enc.t -> t -> unit
(** Sampler state, engine snapshot, tally. *)

val load : Ft_core.Snap.Dec.t -> engine:Ft_core.Engine.id -> Ft_core.Detector.config -> t

(** {1 Shipping views} *)

type ship
(** Per destination and thread: the view version last shipped and a shadow
    of the view the destination holds. *)

val ship_create : source -> dests:int -> nthreads:int -> vsize:int -> ship
(** Every destination holds [source]'s current views — right for fresh
    checkers fed by a fresh source. *)

val ship : ship -> source -> int -> Ft_trace.Event.tid -> (int array * int array) option
(** [ship s src d t]: if [t]'s version moved since destination [d] last saw
    it, the entries of [t]'s view that changed (strictly increasing
    indices, values) — possibly none, which still must reach the checker:
    its import invalidates same-epoch cache entries exactly as the sync
    handler that moved the version did.  [None] when nothing moved. *)

val ship_save : Ft_core.Snap.Enc.t -> ship -> unit
val ship_load : Ft_core.Snap.Dec.t -> dests:int -> nthreads:int -> vsize:int -> ship
