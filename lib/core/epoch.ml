type t = int

let tid_bits = 16
let tid_mask = (1 lsl tid_bits) - 1

let none = 0

(* Twice per sampled access in FastTrack and o1: without the attribute its
   asserts keep it out of line (the compiler has no flambda). *)
let[@inline] make ~time ~tid =
  assert (tid >= 0 && tid <= tid_mask);
  assert (time >= 0);
  (time lsl tid_bits) lor tid

let time e = e lsr tid_bits
let tid e = e land tid_mask

let leq_vc e v = time e <= Vector_clock.get v (tid e)

let of_vc_entry v t = make ~time:(Vector_clock.get v t) ~tid:t

let equal (a : t) (b : t) = a = b

let encode enc (e : t) = Snap.Enc.int enc e

let decode dec =
  let e = Snap.Dec.int dec in
  Snap.expect (e >= 0) "negative epoch";
  e

let pp fmt e = Format.fprintf fmt "%d@@t%d" (time e) (tid e)
