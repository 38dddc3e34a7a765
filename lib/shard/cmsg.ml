module Event = Ft_trace.Event
module Detector = Ft_core.Detector
module Race = Ft_core.Race
module Metrics = Ft_core.Metrics
module Snap = Ft_core.Snap

(* Wire codec for the cluster router → worker sub-streams and for worker
   partial results.  Events keep their ORIGINAL global indices: worker-side
   sampler decisions are pure functions of (index) or of per-location state
   (and locations are partitioned whole onto workers), so re-running the
   sampler inside each worker reproduces exactly the global run's
   decisions — the soundness argument of DESIGN.md §6e.  Sequencing across
   a worker's stream uses a separate dense per-worker counter carried by
   the CBATCH header, not these indices. *)

type msg =
  | Ev of int * Event.t  (* original global index *)
  | Mark of Event.tid  (* pending-bit transition owned by another worker *)

let op_tag = function
  | Event.Read _ -> 0
  | Event.Write _ -> 1
  | Event.Acquire _ -> 2
  | Event.Release _ -> 3
  | Event.Fork _ -> 4
  | Event.Join _ -> 5
  | Event.Release_store _ -> 6
  | Event.Acquire_load _ -> 7

let op_operand = function
  | Event.Read x | Event.Write x -> x
  | Event.Acquire l | Event.Release l | Event.Release_store l | Event.Acquire_load l -> l
  | Event.Fork t | Event.Join t -> t

let op_of ~tag ~operand =
  match tag with
  | 0 -> Event.Read operand
  | 1 -> Event.Write operand
  | 2 -> Event.Acquire operand
  | 3 -> Event.Release operand
  | 4 -> Event.Fork operand
  | 5 -> Event.Join operand
  | 6 -> Event.Release_store operand
  | 7 -> Event.Acquire_load operand
  | _ -> raise (Snap.Corrupt "cluster message: unknown event op tag")

(* One message: tag 0 + index, thread, op tag, operand for an event; tag 1
   + thread for a mark.  Shared by the CBATCH payload and the supervisor's
   per-shard byte backlog ({!Sharded}). *)
let encode_ev enc i (e : Event.t) =
  Snap.Enc.int enc 0;
  Snap.Enc.int enc i;
  Snap.Enc.int enc e.Event.thread;
  Snap.Enc.int enc (op_tag e.Event.op);
  Snap.Enc.int enc (op_operand e.Event.op)

let encode_mark enc th =
  Snap.Enc.int enc 1;
  Snap.Enc.int enc th

(* The body of an event message, after its tag 0. *)
let decode_ev dec =
  let i = Snap.Dec.int dec in
  let thread = Snap.Dec.int dec in
  let tag = Snap.Dec.int dec in
  let operand = Snap.Dec.int dec in
  Snap.expect (i >= 0 && thread >= 0 && operand >= 0) "cluster batch: negative field";
  (i, { Event.thread; op = op_of ~tag ~operand })

let decode_msg dec =
  match Snap.Dec.int dec with
  | 0 ->
    let i, e = decode_ev dec in
    Ev (i, e)
  | 1 ->
    let th = Snap.Dec.int dec in
    Snap.expect (th >= 0) "cluster batch: negative thread";
    Mark th
  | _ -> raise (Snap.Corrupt "cluster batch: unknown message tag")

(* Checker messages: an access keeps the event format (tag 0); a view
   delta is tag 2, the thread, the entry count, then per entry the gap to
   the previous index and the value.  Indices therefore strictly increase,
   and every entry costs at least two bytes, which bounds the count a
   hostile payload can claim. *)
type check =
  | Acc of int * Event.t
  | View of Event.tid * int array * int array

let encode_view enc th idx vals =
  Snap.Enc.int enc 2;
  Snap.Enc.int enc th;
  Snap.Enc.int enc (Array.length idx);
  let prev = ref (-1) in
  Array.iteri
    (fun j i ->
      Snap.Enc.int enc (i - !prev - 1);
      Snap.Enc.int enc vals.(j);
      prev := i)
    idx

let decode_check dec =
  match Snap.Dec.int dec with
  | 0 ->
    let i, e = decode_ev dec in
    Acc (i, e)
  | 2 ->
    let th = Snap.Dec.int dec in
    let n = Snap.Dec.int dec in
    Snap.expect (th >= 0) "shard backlog: negative thread";
    Snap.expect (n >= 0 && n <= Snap.Dec.remaining dec / 2) "shard backlog: bad view length";
    let idx = Array.make n 0 and vals = Array.make n 0 in
    let prev = ref (-1) in
    for j = 0 to n - 1 do
      let gap = Snap.Dec.int dec in
      let v = Snap.Dec.int dec in
      Snap.expect (gap >= 0 && v >= 0) "shard backlog: negative view field";
      idx.(j) <- !prev + gap + 1;
      vals.(j) <- v;
      prev := idx.(j)
    done;
    View (th, idx, vals)
  | _ -> raise (Snap.Corrupt "shard backlog: unknown message tag")

let encode ~nthreads ~nlocks ~nlocs msgs ~off ~len =
  let enc = Snap.Enc.create () in
  Snap.Enc.int enc nthreads;
  Snap.Enc.int enc nlocks;
  Snap.Enc.int enc nlocs;
  Snap.Enc.int enc len;
  for j = off to off + len - 1 do
    match msgs.(j) with
    | Ev (i, e) -> encode_ev enc i e
    | Mark th -> encode_mark enc th
  done;
  Snap.Enc.to_snap enc

let decode payload =
  match
    let dec = Snap.Dec.of_snap payload in
    let nthreads = Snap.Dec.int dec in
    let nlocks = Snap.Dec.int dec in
    let nlocs = Snap.Dec.int dec in
    Snap.expect (nthreads > 0 && nlocks >= 0 && nlocs >= 0)
      "cluster batch: bad universe";
    let n = Snap.Dec.int dec in
    (* every message takes at least two bytes *)
    Snap.expect (n >= 0 && n <= Snap.Dec.remaining dec / 2) "cluster batch: bad message count";
    let msgs = Array.init n (fun _ -> decode_msg dec) in
    Snap.Dec.finish dec;
    ((nthreads, nlocks, nlocs), msgs)
  with
  | v -> Ok v
  | exception Snap.Corrupt msg -> Error msg

(* Worker partial result — everything the router needs to merge: the engine
   name (one worker speaks for all, they run the same engine), the races
   declared by the worker's shards (with original indices, so the global
   sort order is recoverable) and its internally merged metrics. *)

let encode_result (r : Detector.result) =
  let enc = Snap.Enc.create () in
  Snap.Enc.string enc r.Detector.engine;
  Race.encode_list enc r.Detector.races;
  Metrics.encode enc r.Detector.metrics;
  Snap.Enc.to_snap enc

let decode_result payload =
  match
    let dec = Snap.Dec.of_snap payload in
    let engine = Snap.Dec.string dec in
    let races = Race.decode_list dec in
    let metrics = Metrics.decode dec in
    Snap.Dec.finish dec;
    { Detector.engine; races; metrics }
  with
  | v -> Ok v
  | exception Snap.Corrupt msg -> Error msg
