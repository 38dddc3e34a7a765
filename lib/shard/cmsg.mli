(** Wire codec for cluster sub-streams (router → worker) and worker partial
    results (worker → router).

    A cluster batch is a varint-encoded message array prefixed by the trace
    universe, carried by the [CBATCH <seq> <nbytes>] command where [seq] is
    the dense per-worker sequence number of the first message.  Events keep
    their original {e global} indices: every sampling strategy is a pure
    function of the index or of per-location state, and the router
    partitions locations whole, so each worker's own sampler replays
    exactly the global run's decisions (DESIGN.md §6e). *)

type msg =
  | Ev of int * Ft_trace.Event.t
      (** an event this worker owns (accesses) or must see (sync), tagged
          with its original global index *)
  | Mark of Ft_trace.Event.tid
      (** a false→true pending-bit transition whose triggering access is
          owned by another worker — applied via {!Sharded.note_sampled} *)

val op_tag : Ft_trace.Event.op -> int
(** Stable wire tag of an event operation — shared with the cluster
    router's WAL so both codecs agree byte-for-byte. *)

val op_operand : Ft_trace.Event.op -> int

val op_of : tag:int -> operand:int -> Ft_trace.Event.op
(** Inverse of {!op_tag}/{!op_operand}; raises {!Ft_core.Snap.Corrupt} on an
    unknown tag. *)

val encode_ev : Ft_core.Snap.Enc.t -> int -> Ft_trace.Event.t -> unit
(** Append one [Ev (i, e)] in the per-message format of a cluster batch
    (about 8–9 bytes for a typical event) — also the format of an [Acc] in a
    supervised shard's byte backlog ({!check}). *)

val encode_mark : Ft_core.Snap.Enc.t -> Ft_trace.Event.tid -> unit
(** Append one [Mark th] (2 bytes for a small thread id). *)

val decode_msg : Ft_core.Snap.Dec.t -> msg
(** Read one message written by {!encode_ev} or {!encode_mark}; raises
    {!Ft_core.Snap.Corrupt} on malformed input. *)

(** {1 Checker messages}

    What the sharded detector's front sends a checker ({!Sharded}), in the
    supervisor's byte backlog: sampled accesses, and the entries of a
    thread's view that changed since that checker last saw it. *)

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
(** Read one message written by {!encode_ev} or {!encode_view}; raises
    {!Ft_core.Snap.Corrupt} on malformed input, never allocates more than
    the remaining input justifies. *)

val encode :
  nthreads:int -> nlocks:int -> nlocs:int -> msg array -> off:int -> len:int -> string
(** Encode the slice [\[off, off+len)] of a routed-message log. *)

val decode : string -> ((int * int * int) * msg array, string) result
(** [(nthreads, nlocks, nlocs), messages]; total — malformed input is an
    [Error], never an exception or oversized allocation. *)

val encode_result : Ft_core.Detector.result -> string
(** Worker partial result for the [RESULT] command: engine name, race list
    (original indices) and internally merged metrics. *)

val decode_result : string -> (Ft_core.Detector.result, string) result
