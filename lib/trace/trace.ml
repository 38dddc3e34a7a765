type t = {
  events : Event.t array;
  nthreads : int;
  nlocks : int;
  nlocs : int;
}

let dims_of_events events =
  let nthreads = ref 0 and nlocks = ref 0 and nlocs = ref 0 in
  let bump r v = if v + 1 > !r then r := v + 1 in
  Array.iter
    (fun (e : Event.t) ->
      bump nthreads e.thread;
      match e.op with
      | Event.Read x | Event.Write x -> bump nlocs x
      | Event.Acquire l | Event.Release l | Event.Release_store l | Event.Acquire_load l ->
        bump nlocks l
      | Event.Fork u | Event.Join u -> bump nthreads u)
    events;
  (!nthreads, !nlocks, !nlocs)

let of_events events =
  let nthreads, nlocks, nlocs = dims_of_events events in
  { events; nthreads = Stdlib.max 1 nthreads; nlocks; nlocs }

let make ~nthreads ~nlocks ~nlocs events =
  let t, l, x = dims_of_events events in
  if t > nthreads then invalid_arg "Trace.make: thread id out of range";
  if l > nlocks then invalid_arg "Trace.make: lock id out of range";
  if x > nlocs then invalid_arg "Trace.make: location id out of range";
  { events; nthreads; nlocks; nlocs }

let length t = Array.length t.events
let get t i = t.events.(i)
let iteri f t = Array.iteri f t.events

let well_formed t =
  let v = Validator.create ~nthreads:t.nthreads ~nlocks:t.nlocks in
  match Array.iteri (Validator.step v) t.events with
  | () -> Ok ()
  | exception Validator.Ill_formed msg -> Error msg

let validate t =
  match well_formed t with Ok () -> t | Error msg -> invalid_arg ("Trace.validate: " ^ msg)

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
  n_accesses : int;
  n_syncs : int;
  locs_touched : int;
  locks_touched : int;
}

let stats t =
  let r = ref 0 and w = ref 0 and a = ref 0 and rl = ref 0 in
  let f = ref 0 and j = ref 0 and rs = ref 0 and al = ref 0 in
  let locs = Array.make (Stdlib.max 1 t.nlocs) false in
  let locks = Array.make (Stdlib.max 1 t.nlocks) false in
  Array.iter
    (fun (e : Event.t) ->
      match e.op with
      | Event.Read x -> incr r; locs.(x) <- true
      | Event.Write x -> incr w; locs.(x) <- true
      | Event.Acquire l -> incr a; locks.(l) <- true
      | Event.Release l -> incr rl; locks.(l) <- true
      | Event.Fork _ -> incr f
      | Event.Join _ -> incr j
      | Event.Release_store l -> incr rs; locks.(l) <- true
      | Event.Acquire_load l -> incr al; locks.(l) <- true)
    t.events;
  let count_true arr = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 arr in
  let n_accesses = !r + !w in
  let n_events = Array.length t.events in
  {
    n_events;
    n_reads = !r;
    n_writes = !w;
    n_acquires = !a;
    n_releases = !rl;
    n_forks = !f;
    n_joins = !j;
    n_release_stores = !rs;
    n_acquire_loads = !al;
    n_accesses;
    n_syncs = n_events - n_accesses;
    locs_touched = (if t.nlocs = 0 then 0 else count_true locs);
    locks_touched = (if t.nlocks = 0 then 0 else count_true locks);
  }

let pp fmt t =
  Array.iteri (fun i e -> Format.fprintf fmt "%4d: %a@." i Event.pp e) t.events

module Builder = struct
  type trace = t

  type t = {
    mutable events : Event.t array;
    mutable len : int;
    mutable next_thread : int;
    mutable next_lock : int;
    mutable next_loc : int;
  }

  let create () =
    { events = Array.make 64 (Event.mk 0 (Event.Read 0)); len = 0; next_thread = 0;
      next_lock = 0; next_loc = 0 }

  let fresh_thread b =
    let id = b.next_thread in
    b.next_thread <- id + 1;
    id

  let fresh_lock b =
    let id = b.next_lock in
    b.next_lock <- id + 1;
    id

  let fresh_loc b =
    let id = b.next_loc in
    b.next_loc <- id + 1;
    id

  let add b e =
    if b.len = Array.length b.events then begin
      let bigger = Array.make (2 * b.len) e in
      Array.blit b.events 0 bigger 0 b.len;
      b.events <- bigger
    end;
    b.events.(b.len) <- e;
    b.len <- b.len + 1

  let read b t x = add b (Event.mk t (Event.Read x))
  let write b t x = add b (Event.mk t (Event.Write x))
  let acquire b t l = add b (Event.mk t (Event.Acquire l))
  let release b t l = add b (Event.mk t (Event.Release l))
  let fork b t u = add b (Event.mk t (Event.Fork u))
  let join b t u = add b (Event.mk t (Event.Join u))
  let release_store b t l = add b (Event.mk t (Event.Release_store l))
  let acquire_load b t l = add b (Event.mk t (Event.Acquire_load l))

  let size b = b.len

  let finalize b : trace =
    let events = Array.sub b.events 0 b.len in
    let nthreads, nlocks, nlocs = dims_of_events events in
    {
      events;
      nthreads = Stdlib.max b.next_thread (Stdlib.max 1 nthreads);
      nlocks = Stdlib.max b.next_lock nlocks;
      nlocs = Stdlib.max b.next_loc nlocs;
    }

  let build b = validate (finalize b)
  let build_unchecked b = finalize b
end
