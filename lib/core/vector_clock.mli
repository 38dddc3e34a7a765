(** Vector clocks over a fixed thread universe (§2.1).

    A vector clock is a timestamp [Threads → ℕ]; [⊥] maps every thread to 0.
    All operations that traverse the full vector are O(T); the point of the
    paper is to avoid calling them. *)

type t

val create : int -> t
(** [create n] is [⊥] over [n] threads. *)

val size : t -> int

val get : t -> int -> int
val set : t -> int -> int -> unit

val inc : t -> int -> unit
(** [inc c t] bumps component [t] by one. *)

val join : into:t -> t -> unit
(** Pointwise maximum (Eq 4), written into [into]. O(T). *)

val join_count : into:t -> t -> int
(** Like {!join} but returns how many components of [into] changed — the
    quantity the freshness timestamp accumulates (Alg 3, line 12). O(T). *)

val copy_into : into:t -> t -> unit
(** [copy_into ~into src] overwrites [into] with [src]. O(T). *)

val blit_into : t -> int array -> unit
(** [blit_into c dst] copies every entry of [c] into the prefix of [dst]
    (a single memmove — the history record hot path). [dst] must be at
    least [size c] long. *)

val copy : t -> t

val leq : t -> t -> bool
(** Pointwise comparison [⊑] (Eq 3). O(T), with early exit. *)

val reset : t -> unit
(** Back to [⊥]. *)

val to_array : t -> int array
(** Fresh array snapshot (tests and pretty-printing). *)

val of_array : int array -> t

val hash : t -> int
(** Hash of every entry, for {!Snap.Enc.shared}. O(n). *)

val encode : Snap.Enc.t -> t -> unit

val decode : Snap.Dec.t -> size:int -> t
(** Raises [Snap.Corrupt] unless exactly [size] non-negative entries. *)

val pp : Format.formatter -> t -> unit
(** Renders as [⟨a,b,…⟩]. *)
