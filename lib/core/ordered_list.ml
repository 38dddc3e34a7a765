(* Node [i] is thread [i]'s entry.  The doubly linked list is intrusive and
   packed: [links.(i)] holds both sibling pointers, biased by one so that
   "none" (-1) encodes as 0.

   The watermark [hi] bounds the part of the list that was ever reordered:
   the first [hi] positions hold exactly the nodes [0, hi), and every node
   [j >= hi] still sits at position [j] with time 0, as {!create} left it.
   Moving node [k] to the head keeps this true once [hi > k]: the nodes
   [0, k] then fill the first [k + 1] positions and the rest keep their
   places.  Two lists can therefore differ only in nodes [0, max hi hi'] —
   the last one included, as its [prev] link names whichever node ends
   the reordered prefix — which is all {!copy_into} writes.  With T
   threads in a wider clock (TSan's 256 entries, §6.2.6) a copy touches
   T + 1 nodes. *)

let bits = 21
let mask = (1 lsl bits) - 1

type t = {
  time : int array;
  links : int array;  (* (prev+1) lsl bits lor (next+1) *)
  mutable head : int;
  mutable tail : int;
  mutable hi : int;   (* nodes >= hi are untouched; see above *)
  mutable refs : int; (* owner-maintained reference count *)
}

let prev_of o i = ((o.links.(i) lsr bits) land mask) - 1
let next_of o i = (o.links.(i) land mask) - 1

let set_links o i ~prev ~next = o.links.(i) <- (((prev + 1) land mask) lsl bits) lor ((next + 1) land mask)
let set_prev o i prev = o.links.(i) <- (o.links.(i) land mask) lor (((prev + 1) land mask) lsl bits)
let set_next o i next = o.links.(i) <- (o.links.(i) land (mask lsl bits)) lor ((next + 1) land mask)

let create n =
  assert (n > 0 && n <= mask);
  let o =
    { time = Array.make n 0; links = Array.make n 0; head = 0; tail = n - 1; hi = 0; refs = 0 }
  in
  for i = 0 to n - 1 do
    set_links o i ~prev:(i - 1) ~next:(if i = n - 1 then -1 else i + 1)
  done;
  o

let size o = Array.length o.time

let get o tid = Array.unsafe_get o.time tid

let move_to_front o tid =
  if tid >= o.hi then o.hi <- tid + 1;
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
  { o with time = Array.copy o.time; links = Array.copy o.links; refs = 0 }

(* Plain int loops rather than [Array.blit]: a recycled [into] lives in the
   major heap, where [Array.blit] goes through the write barrier for every
   element. *)
let copy_into ~into src =
  assert (size into = size src);
  let last = Stdlib.min (size src - 1) (Stdlib.max src.hi into.hi) in
  let st = src.time and sl = src.links and dt = into.time and dl = into.links in
  for i = 0 to last do
    Array.unsafe_set dt i (Array.unsafe_get st i);
    Array.unsafe_set dl i (Array.unsafe_get sl i)
  done;
  into.head <- src.head;
  into.tail <- src.tail;
  into.hi <- src.hi

let values_into o dst =
  let t = o.time in
  for i = 0 to Array.length t - 1 do
    Array.unsafe_set dst i (Array.unsafe_get t i)
  done

let refs o = o.refs
let set_refs o r = o.refs <- r

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
  let ok = ref (o.hi >= 0 && o.hi <= n) in
  let count = ref 0 in
  let rec walk node prev_node pos =
    if node >= 0 then begin
      if seen.(node) then ok := false
      else begin
        seen.(node) <- true;
        incr count;
        if prev_of o node <> prev_node then ok := false;
        (* the watermark: untouched nodes keep their place and time 0 *)
        if (node >= o.hi || pos >= o.hi) && (node <> pos || o.time.(node) <> 0) then ok := false;
        walk (next_of o node) node (pos + 1)
      end
    end
    else if prev_node <> o.tail then ok := false
  in
  walk o.head (-1) 0;
  !ok && !count = n

let hash o = Array.fold_left (fun h v -> (h * 31) + v) (Array.length o.time) o.time land max_int

(* Serialized as values plus the head-to-tail permutation; the links are
   rebuilt from the permutation on decode, so a snapshot roundtrip restores
   exactly the move-to-front order (which governs which prefix an acquire
   traverses — Alg 4, line 10).  The watermark is not serialized: decode
   recomputes the least one the restored list satisfies. *)
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
  let hi = ref n in
  while !hi > 0 && ord.(!hi - 1) = !hi - 1 && time.(!hi - 1) = 0 do
    decr hi
  done;
  let o = { time; links = Array.make n 0; head = ord.(0); tail = ord.(n - 1); hi = !hi; refs = 0 } in
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
