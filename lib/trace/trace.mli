(** Program executions as finite event sequences (§2).

    A trace owns its event array together with the (dense) universe sizes for
    threads, locks and memory locations.  Traces produced by the workload
    generators are well-formed by construction; traces read from files should
    be checked with {!well_formed}. *)

type t = private {
  events : Event.t array;
  nthreads : int;
  nlocks : int;
  nlocs : int;
}

val of_events : Event.t array -> t
(** Builds a trace, inferring universe sizes from the events (size = 1 + the
    largest id mentioned; threads also count fork targets). *)

val make : nthreads:int -> nlocks:int -> nlocs:int -> Event.t array -> t
(** Builds a trace with explicit universe sizes. Raises [Invalid_argument]
    if an event mentions an id outside the declared universe. *)

val length : t -> int
val get : t -> int -> Event.t
val iteri : (int -> Event.t -> unit) -> t -> unit

val well_formed : t -> (unit, string) result
(** Checks the semantics of §2 ({!Validator}) over the whole trace: [Error]
    carries the first violation, ["event <i>: <why>"]. *)

val validate : t -> t
(** [validate t] is [t] if well-formed, otherwise raises [Invalid_argument]
    with the explanation. *)

(** Per-operation counts of a trace, used by the experiment harnesses. *)
type stats = {
  n_events : int;
  n_reads : int;
  n_writes : int;
  n_acquires : int;
  n_releases : int;
  n_forks : int;
  n_joins : int;
  n_release_stores : int;
  n_acquire_loads : int;
  n_accesses : int;  (** reads + writes *)
  n_syncs : int;     (** everything else *)
  locs_touched : int;  (** distinct memory locations accessed *)
  locks_touched : int; (** distinct lock/sync ids used *)
}

val stats : t -> stats

val pp : Format.formatter -> t -> unit
(** One event per line, prefixed with its index. *)

(** Imperative construction of well-formed traces.

    The builder hands out fresh ids and enforces nothing: generators are
    expected to respect lock semantics themselves (they model schedulers that
    do). [build] validates the result. *)
module Builder : sig
  type trace := t
  type t

  val create : unit -> t

  val fresh_thread : t -> Event.tid
  (** First call returns thread 0 (the implicit main thread needs no fork). *)

  val fresh_lock : t -> Event.lock
  val fresh_loc : t -> Event.loc

  val add : t -> Event.t -> unit
  val read : t -> Event.tid -> Event.loc -> unit
  val write : t -> Event.tid -> Event.loc -> unit
  val acquire : t -> Event.tid -> Event.lock -> unit
  val release : t -> Event.tid -> Event.lock -> unit
  val fork : t -> Event.tid -> Event.tid -> unit
  (** [fork b parent child] *)

  val join : t -> Event.tid -> Event.tid -> unit
  val release_store : t -> Event.tid -> Event.lock -> unit
  val acquire_load : t -> Event.tid -> Event.lock -> unit

  val size : t -> int
  (** Number of events added so far. *)

  val build : t -> trace
  (** Finalizes and validates; raises [Invalid_argument] on ill-formed
      traces. *)

  val build_unchecked : t -> trace
  (** Finalizes without the well-formedness check (for tests that need
      ill-formed traces, and for very large generated traces whose generator
      is validated separately). *)
end
