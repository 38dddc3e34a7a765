(* Node [i] is thread [i]'s entry.  The doubly linked list is intrusive and
   packed: [links.(i)] holds both sibling pointers, biased by one so that
   "none" (-1) encodes as 0 — a deep copy is then just two array blits,
   which matters because Algorithm 4 trades per-release O(T) copies for
   occasional deep copies and their constant factor shows up directly in
   the latency experiments. *)

let bits = 21
let mask = (1 lsl bits) - 1

type t = {
  time : int array;
  links : int array;  (* (prev+1) lsl bits lor (next+1) *)
  mutable head : int;
  mutable tail : int;
}

let prev_of o i = ((o.links.(i) lsr bits) land mask) - 1
let next_of o i = (o.links.(i) land mask) - 1

let set_links o i ~prev ~next = o.links.(i) <- (((prev + 1) land mask) lsl bits) lor ((next + 1) land mask)
let set_prev o i prev = o.links.(i) <- (o.links.(i) land mask) lor (((prev + 1) land mask) lsl bits)
let set_next o i next = o.links.(i) <- (o.links.(i) land (mask lsl bits)) lor ((next + 1) land mask)

let create n =
  assert (n > 0 && n <= mask);
  let o = { time = Array.make n 0; links = Array.make n 0; head = 0; tail = n - 1 } in
  for i = 0 to n - 1 do
    set_links o i ~prev:(i - 1) ~next:(if i = n - 1 then -1 else i + 1)
  done;
  o

let size o = Array.length o.time

let get o tid = Array.unsafe_get o.time tid

let move_to_front o tid =
  if o.head <> tid then begin
    let p = prev_of o tid and n = next_of o tid in
    (* unlink *)
    if p >= 0 then set_next o p n;
    if n >= 0 then set_prev o n p else o.tail <- p;
    (* relink at head *)
    set_links o tid ~prev:(-1) ~next:o.head;
    set_prev o o.head tid;
    o.head <- tid
  end

let set o tid v =
  o.time.(tid) <- v;
  move_to_front o tid

let increment o tid k =
  o.time.(tid) <- o.time.(tid) + k;
  move_to_front o tid

let deep_copy o =
  { time = Array.copy o.time; links = Array.copy o.links; head = o.head; tail = o.tail }

let iter_prefix o d f =
  let rec loop node remaining =
    if remaining > 0 && node >= 0 then begin
      f node o.time.(node);
      loop (next_of o node) (remaining - 1)
    end
  in
  loop o.head d

let iter o f = iter_prefix o (size o) f

let leq_vc o v =
  let n = size o in
  let rec loop i = i >= n || (o.time.(i) <= Vector_clock.get v i && loop (i + 1)) in
  loop 0

let vc_leq v o =
  let n = size o in
  let rec loop i = i >= n || (Vector_clock.get v i <= o.time.(i) && loop (i + 1)) in
  loop 0

let to_vc o =
  let v = Vector_clock.create (size o) in
  Array.iteri (fun i t -> Vector_clock.set v i t) o.time;
  v

let order o =
  let acc = ref [] in
  iter o (fun tid _ -> acc := tid :: !acc);
  List.rev !acc

let check_invariants o =
  let n = size o in
  let seen = Array.make n false in
  let ok = ref true in
  let count = ref 0 in
  let rec walk node prev_node =
    if node >= 0 then begin
      if seen.(node) then ok := false
      else begin
        seen.(node) <- true;
        incr count;
        if prev_of o node <> prev_node then ok := false;
        walk (next_of o node) node
      end
    end
    else if prev_node <> o.tail then ok := false
  in
  walk o.head (-1);
  !ok && !count = n

let hash o = Array.fold_left (fun h v -> (h * 31) + v) (Array.length o.time) o.time land max_int

(* Serialized as values plus the head-to-tail permutation; the links are
   rebuilt from the permutation on decode, so a snapshot roundtrip restores
   exactly the move-to-front order (which governs which prefix an acquire
   traverses — Alg 4, line 10). *)
let encode enc o =
  Snap.Enc.int_array enc o.time;
  let ord = Array.make (size o) 0 in
  let k = ref 0 in
  iter o (fun tid _ ->
      ord.(!k) <- tid;
      incr k);
  Snap.Enc.int_array enc ord

let decode dec ~size:n =
  let time = Snap.Dec.int_array_n dec n in
  let ord = Snap.Dec.int_array_n dec n in
  Array.iter (fun v -> Snap.expect (v >= 0) "negative ordered-list entry") time;
  let seen = Array.make n false in
  Array.iter
    (fun tid ->
      Snap.expect (tid >= 0 && tid < n && not seen.(tid)) "ordered-list order not a permutation";
      seen.(tid) <- true)
    ord;
  let o = { time; links = Array.make n 0; head = ord.(0); tail = ord.(n - 1) } in
  for k = 0 to n - 1 do
    set_links o ord.(k)
      ~prev:(if k = 0 then -1 else ord.(k - 1))
      ~next:(if k = n - 1 then -1 else ord.(k + 1))
  done;
  o

let pp fmt o =
  Format.fprintf fmt "[";
  let first = ref true in
  iter o (fun tid time ->
      if !first then first := false else Format.fprintf fmt " ";
      Format.fprintf fmt "t%d:%d" tid time);
  Format.fprintf fmt "]"
