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
    (about 8–9 bytes for a typical event) — also the format of a supervised
    shard's byte backlog in {!Sharded}. *)

val encode_mark : Ft_core.Snap.Enc.t -> Ft_trace.Event.tid -> unit
(** Append one [Mark th] (2 bytes for a small thread id). *)

val decode_msg : Ft_core.Snap.Dec.t -> msg
(** Read one message written by {!encode_ev} or {!encode_mark}; raises
    {!Ft_core.Snap.Corrupt} on malformed input. *)

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
