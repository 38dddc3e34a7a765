exception Ill_formed of string

(* Thread lifecycle, one byte per thread. *)
let fresh = '\000' (* never forked, never acted *)
let forked = '\001' (* forked, not yet acted *)
let running = '\002' (* acted, or the initial thread *)
let joined = '\003'

(* Sync object state, one int per object: the holder of a held mutex, or
   one of these. *)
let unused = -1
let free = -2 (* a mutex nobody holds *)
let atomic = -3 (* an atomic sync variable *)

type t = { life : Bytes.t; lock : int array }

let create ~nthreads ~nlocks =
  let life = Bytes.make nthreads fresh in
  if nthreads > 0 then Bytes.set life 0 running;
  { life; lock = Array.make nlocks unused }

let bad i fmt = Printf.ksprintf (fun msg -> raise (Ill_formed msg)) ("event %d: " ^^ fmt) i

let mixes i l = bad i "sync object %d mixes mutex and atomic use" l

(* Everything but an access by a running thread. *)
let slow v i (e : Event.t) =
  let tid = e.Event.thread in
  if Bytes.get v.life tid <> running then begin
    if Bytes.get v.life tid = joined then bad i "thread %d acts after being joined" tid;
    Bytes.set v.life tid running
  end;
  match e.Event.op with
  | Event.Read _ | Event.Write _ -> ()
  | Event.Acquire l ->
    let h = v.lock.(l) in
    if h = atomic then mixes i l;
    if h >= 0 then bad i "thread %d acquires lock %d held by thread %d" tid l h;
    v.lock.(l) <- tid
  | Event.Release l ->
    let h = v.lock.(l) in
    if h = atomic then mixes i l;
    if h <> tid then bad i "thread %d releases lock %d it does not hold" tid l;
    v.lock.(l) <- free
  | Event.Release_store l | Event.Acquire_load l ->
    let h = v.lock.(l) in
    if h = unused then v.lock.(l) <- atomic else if h <> atomic then mixes i l
  | Event.Fork u ->
    if u = tid then bad i "thread %d forks itself" tid;
    if Bytes.get v.life u <> fresh then bad i "thread %d forked twice or already running" u;
    Bytes.set v.life u forked
  | Event.Join u ->
    if u = tid then bad i "thread %d joins itself" tid;
    let s = Bytes.get v.life u in
    if s = joined then bad i "thread %d joined twice" u;
    if s = fresh then bad i "thread %d joined before being forked or started" u;
    Bytes.set v.life u joined

(* The fast path, inlined into each caller's loop: an access by a running
   thread costs one byte load and one compare. *)
let[@inline] step v i (e : Event.t) =
  match e.Event.op with
  | (Event.Read _ | Event.Write _) when Bytes.get v.life e.Event.thread = running -> ()
  | _ -> slow v i e

let to_ints v =
  let nthreads = Bytes.length v.life in
  Array.init
    (nthreads + Array.length v.lock)
    (fun k -> if k < nthreads then Char.code (Bytes.get v.life k) else v.lock.(k - nthreads))

let of_ints ~nthreads ~nlocks a =
  if Array.length a <> nthreads + nlocks then Error "validator state has the wrong size"
  else if not (Array.for_all (fun s -> s >= 0 && s <= Char.code joined) (Array.sub a 0 nthreads))
  then Error "thread lifecycle out of range"
  else if not (Array.for_all (fun h -> h >= atomic && h < nthreads) (Array.sub a nthreads nlocks))
  then Error "lock holder out of range"
  else
    Ok
      {
        life = Bytes.init nthreads (fun k -> Char.chr a.(k));
        lock = Array.sub a nthreads nlocks;
      }
