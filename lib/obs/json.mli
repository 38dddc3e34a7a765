(** Minimal JSON values: rendering for the telemetry exports
    ([STATS], [--metrics-json], [BENCH_*.json]) and a small parser so the
    test suite can validate what the renderers and the daemon emit without
    an external JSON dependency.

    Rendering is total: every value produced by {!to_string} is valid JSON
    (non-finite floats render as [null] — RFC 8259 has no encoding for
    them).  A finite float renders with enough digits to read back exactly
    and always with a fraction or exponent, so every value {!parse}
    returns renders and parses back to itself.  The parser accepts
    standard JSON with arbitrary whitespace and [\uXXXX] escapes
    (surrogate pairs included); it rejects trailing garbage and numbers
    outside the float range. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering. *)

val to_string_pretty : t -> string
(** Two-space indented rendering, for files meant to be read and diffed
    ([--metrics-json], [BENCH_*.json]). *)

val escape : string -> string
(** The JSON string-literal encoding of a string, {e without} the
    surrounding quotes — shared with the Prometheus label renderer. *)

val parse : string -> (t, string) result
(** Parse a complete JSON document; [Error] carries a byte offset and
    reason.  Numbers without fraction or exponent that fit in [int] parse
    as {!Int}, everything else as {!Float}. *)

(** {1 Accessors} — total lookups used by tests and consumers. *)

val member : string -> t -> t option
(** Field of an object; [None] on missing field or non-object. *)

val index : int -> t -> t option
(** Element of an array. *)

val to_int : t -> int option
(** [Int n] and integral [Float]s. *)

val to_float : t -> float option
(** Any number, as float. *)

val to_str : t -> string option
