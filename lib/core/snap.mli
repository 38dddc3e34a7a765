(** Binary codec for detector snapshots.

    A snapshot is an opaque byte payload; engines build one with {!Enc} and
    rebuild their state with {!Dec}.  The versioned, checksummed container
    around a payload (the [.ftc] format) lives in [Ft_snapshot.Checkpoint] —
    this module only defines the wire primitives shared by every engine.

    All integers are zigzag-mapped LEB128 varints, so the [-1] sentinels
    pervading detector state cost one byte.  Decoding is total: any
    malformed input raises {!Corrupt} (which the container layer converts
    into a clean [Error]) — never an out-of-bounds access, and never an
    allocation larger than the input itself (lengths are validated against
    the bytes remaining before [Array.init] trusts them). *)

exception Corrupt of string

val expect : bool -> string -> unit
(** [expect cond msg] raises [Corrupt msg] unless [cond] — for engine-side
    consistency checks during decoding. *)

type t = string
(** A snapshot payload. *)

module Enc : sig
  type t

  val create : unit -> t
  val int : t -> int -> unit
  val bool : t -> bool -> unit
  val string : t -> string -> unit
  val int_array : t -> int array -> unit
  val bool_array : t -> bool array -> unit

  val option : t -> ('a -> unit) -> 'a option -> unit
  (** [option enc f v] writes a presence tag, then [f] on the contents. *)

  val list : t -> ('a -> unit) -> 'a list -> unit
  (** Length-prefixed, elements in list order. *)

  val shared :
    t -> roots:'a array -> hash:('a -> int) -> 'a option array -> ('a -> unit) -> unit
  (** [shared enc ~roots ~hash slots inline] writes [slots] so that decoding
      rebuilds their physical sharing with [roots] and with each other.  A
      slot physically equal ([==]) to a root is written as a reference to
      the first such root (tag 1); else, one equal to an earlier slot as a
      reference to the lowest such slot (tag 2); else inline through
      [inline] (tag 3); [None] is tag 0.  [hash] must hash contents, so
      physically equal values hash alike; lookups go through a table keyed
      by it, making the encoding linear in the number of slots rather than
      quadratic.  The engines' lazily shared lock clocks use this. *)

  val length : t -> int
  (** Bytes written so far. *)

  val to_snap : t -> string
end

module Dec : sig
  type t

  val of_snap : string -> t
  val int : t -> int
  val bool : t -> bool
  val string : t -> string
  val int_array : t -> int array

  val int_array_n : t -> int -> int array
  (** Decode an int array and check its length is exactly [n]. *)

  val bool_array : t -> bool array

  val bool_array_n : t -> int -> bool array
  (** Decode a bool array and check its length is exactly [n]. *)

  val option : t -> (unit -> 'a) -> 'a option
  val list : t -> (unit -> 'a) -> 'a list

  val shared : t -> what:string -> roots:'a array -> 'a option array -> (unit -> 'a) -> unit
  (** Inverse of {!Enc.shared}: fills [slots] in place, resolving references
      to the same physical [roots] and earlier slots, and decoding inline
      values with the callback.  [what] names the slots in {!Corrupt}
      messages. *)

  val remaining : t -> int
  (** Payload bytes not yet consumed. *)

  val finish : t -> unit
  (** Raise {!Corrupt} unless every payload byte has been consumed. *)
end
