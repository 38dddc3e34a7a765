(** Wire codec for cluster sub-streams (router → worker) and worker partial
    results (worker → router).

    A cluster batch is a varint-encoded array of {!check} messages
    prefixed by the trace universe, carried by the [CBATCH <seq> <nbytes>]
    command where [seq] is the dense per-worker sequence number of the
    first message.  The router is the {!Front}: it runs the sampler and
    the one sync engine, so a worker (one engine instance, applied inline)
    sees only the accesses it must check and the view changes they need.
    Accesses keep their original {e global} indices, which order the
    merged race list (DESIGN.md §6e). *)

val op_tag : Ft_trace.Event.op -> int
(** Stable wire tag of an event operation — shared with the cluster
    router's WAL so both codecs agree byte-for-byte. *)

val op_operand : Ft_trace.Event.op -> int

val op_of : tag:int -> operand:int -> Ft_trace.Event.op
(** Inverse of {!op_tag}/{!op_operand}; raises {!Ft_core.Snap.Corrupt} on an
    unknown tag. *)

val encode_ev : Ft_core.Snap.Enc.t -> int -> Ft_trace.Event.t -> unit
(** Append one [Acc (i, e)] (about 8–9 bytes for a typical access). *)

(** {1 Checker messages}

    What a front sends a checker — in a cluster batch, and in a supervised
    shard's byte backlog ({!Sharded}): sampled accesses, and the entries
    of a thread's view that changed since that checker last saw it. *)

type check =
  | Acc of int * Ft_trace.Event.t
      (** a sampled access (every access, for engines that ignore the
          sampler), with its original index — written by {!encode_ev} *)
  | View of Ft_trace.Event.tid * int array * int array
      (** [View (t, idx, vals)]: thread [t]'s view entries [idx] (strictly
          increasing) now hold [vals] ({!Ft_core.Detector.S.import_view}) *)

val encode_view : Ft_core.Snap.Enc.t -> Ft_trace.Event.tid -> int array -> int array -> unit
(** Append one [View]; [idx] must be strictly increasing and every value
    non-negative. *)

val decode_check : Ft_core.Snap.Dec.t -> check
(** Read one message written by {!encode_check}; raises
    {!Ft_core.Snap.Corrupt} on malformed input, never allocates more than
    the remaining input justifies. *)

val encode_check : Ft_core.Snap.Enc.t -> check -> unit
(** {!encode_ev} or {!encode_view}. *)

val encode :
  nthreads:int -> nlocks:int -> nlocs:int -> check array -> off:int -> len:int -> string
(** Encode the slice [\[off, off+len)] of a routed-message log. *)

val decode : string -> ((int * int * int) * check array, string) result
(** [(nthreads, nlocks, nlocs), messages]; total — malformed input is an
    [Error], never an exception or oversized allocation. *)

val encode_result : Ft_core.Detector.result -> string
(** Worker partial result for the [RESULT] command: engine name, race list
    (original indices) and internally merged metrics. *)

val decode_result : string -> (Ft_core.Detector.result, string) result
