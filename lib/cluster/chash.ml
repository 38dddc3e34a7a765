(* Consistent-hash location → worker map.  Plain [mod] would reshuffle
   almost every location when K changes; the vnode ring moves only ~1/K of
   them, which is what keeps a future elastic-membership extension from
   migrating the whole keyspace.  Everything is a pure function of
   (workers, input) — no randomness, no host state — so the router, a
   restarted router, and the differential tests all agree on ownership. *)

let vnodes = 64

(* splitmix-style finalizer *)
let mix h =
  let h = h * 0x9E3779B1 in
  let h = (h lxor (h lsr 16)) * 0x85EBCA6B in
  let h = (h lxor (h lsr 13)) * 0xC2B2AE35 in
  (h lxor (h lsr 16)) land max_int

type t = {
  workers : int;
  keys : int array;  (* sorted vnode keys *)
  owners : int array;  (* owners.(j) owns keys.(j) *)
}

let workers t = t.workers

let create ~workers =
  if workers < 1 then invalid_arg "Chash.create: workers must be positive";
  let pts =
    Array.init (workers * vnodes) (fun i ->
        let w = i / vnodes and v = i mod vnodes in
        (* salt the vnode keyspace away from the location keyspace *)
        (mix ((((w + 1) * 0x01000193) lxor (v * 0x85EBCA77)) lxor 0x5bd1e995), w))
  in
  (* ties (astronomically unlikely) break deterministically on worker id *)
  Array.sort compare pts;
  { workers; keys = Array.map fst pts; owners = Array.map snd pts }

let owner t x =
  if t.workers = 1 then 0
  else begin
    let key = mix (x lxor 0x27d4eb2f) in
    (* first vnode clockwise of [key], wrapping to the ring's start *)
    let n = Array.length t.keys in
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.keys.(mid) < key then lo := mid + 1 else hi := mid
    done;
    t.owners.(if !lo = n then 0 else !lo)
  end
