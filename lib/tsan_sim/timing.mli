(** Alternating wall-clock timing — the one method behind every timed
    figure outside the end-to-end benchmark ([bench/e2e], which keeps its
    own paired method).

    [run ~rounds thunks] runs every thunk once per round, in array order on
    even rounds and in reverse order on odd rounds.  Drift on a shared host
    (frequency scaling, a neighbour's load, heap growth) then falls on every
    thunk alike, and numbers that are subtracted or divided — the paper's
    AO(S) = latency(S) − latency(ET), a cell's throughput relative to NT —
    come from the same rounds. *)

type t = {
  walls : float array;  (** seconds, one per round, in round order *)
  median : float;
  q1 : float;  (** first quartile of [walls] *)
  q3 : float;  (** third quartile of [walls] *)
}

val of_walls : float array -> t
(** Median and quartiles ({!Ft_support.Stats.percentile}) of [walls]. *)

val run : rounds:int -> (unit -> unit) array -> t array
(** One {!t} per thunk, in thunk order.  Each wall is read from the
    monotonic clock ({!Ft_support.Clock}).
    @raise Invalid_argument if [rounds <= 0]. *)
