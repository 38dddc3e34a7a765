(* Shared by the byte-identity grids: the two ways this repository splits
   one engine into a front and checkers.

   - [run ~k]: the cluster router's routing algebra on one domain — one
     front ({!Ft_shard.Front}), K inline checkers, the owner of a location
     chosen by the router's own map ({!Ft_cluster.Chash.owner}), the
     accessing thread's view shipped to that owner before each access,
     and the parts merged.  What [Router.route_core] does across worker
     processes, with no sockets, WAL or domains.
   - [run_pipeline]: {!Ft_shard.Sharded}, a front and one checker domain. *)

module Event = Ft_trace.Event
module Trace = Ft_trace.Trace
module Engine = Ft_core.Engine
module Detector = Ft_core.Detector
module Sampler = Ft_core.Sampler
module Front = Ft_shard.Front
module Sharded = Ft_shard.Sharded
module Chash = Ft_cluster.Chash
module Snap = Ft_core.Snap

type split = {
  front : Front.t;
  ship : Front.ship;  (* per checker and thread: the view it holds *)
  checkers : Front.inst array;
}

(* Route the first [n] events of [trace] (default: all of them). *)
let feed ?n id ~k (config : Detector.config) trace =
  let front = Front.create ~engine:id config in
  let ring = Chash.create ~workers:k in
  let ship = Front.ship_create front ~dests:k ~nthreads:config.Detector.nthreads in
  let checkers =
    Array.init k (fun _ ->
        Front.instance (Engine.detector id) { config with Detector.sampler = Sampler.all })
  in
  for i = 0 to Option.value n ~default:(Trace.length trace) - 1 do
    let e = Trace.get trace i in
    if Front.admit front i e then
      match e.Event.op with
      | Event.Read x | Event.Write x ->
        let o = Chash.owner ring x in
        (match Front.ship ship front o e.Event.thread with
        | Some (idx, vals) -> checkers.(o).Front.i_import e.Event.thread idx vals
        | None -> ());
        checkers.(o).Front.i_handle i e
      | _ -> ()
  done;
  { front; ship; checkers }

let run id ~k config trace =
  let s = feed id ~k config trace in
  Front.merge s.front (Array.map (fun (c : Front.inst) -> c.Front.i_result ()) s.checkers)

(* A router snapshot in the layout of the K-checker detector the pipeline
   replaced, after [n] events: format tag, K, event count, front, and the
   views shipped to each checker — with today's format tag and front, so
   that at K = 1 it is the pipeline's own layout. *)
let k_checker_router s ~n =
  let enc = Snap.Enc.create () in
  Snap.Enc.int enc (-5);
  Snap.Enc.int enc (Array.length s.checkers);
  Snap.Enc.int enc n;
  Front.save enc s.front;
  Front.ship_save enc s.ship;
  Snap.Enc.to_snap enc

(* A serve BATCH checkpoint payload in that daemon's layout: the set kind,
   the router snapshot, K, and the K checker snapshots. *)
let k_checker_set s ~n =
  let enc = Snap.Enc.create () in
  Snap.Enc.int enc (-1);
  Snap.Enc.string enc (k_checker_router s ~n);
  Snap.Enc.int enc (Array.length s.checkers);
  Array.iter (fun (c : Front.inst) -> Snap.Enc.string enc (c.Front.i_snapshot ())) s.checkers;
  Snap.Enc.to_snap enc

(* The smallest location ≥ [from] that [owner] owns among [k] checkers. *)
let loc_on ~k owner ~from =
  let ring = Chash.create ~workers:k in
  let rec go x = if Chash.owner ring x = owner then x else go (x + 1) in
  go from

let run_pipeline id config trace =
  let sh = Sharded.create ~engine:id config in
  Fun.protect ~finally:(fun () -> Sharded.stop sh) @@ fun () ->
  Trace.iteri (fun i e -> Sharded.handle sh i e) trace;
  Sharded.result sh
