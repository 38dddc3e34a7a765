(* Slot [s] lives in chunk [s / chunk_slots] at offset
   [(s mod chunk_slots) * 2n]; entry [i] of a slot is the pair
   (time at 2i, trace index at 2i + 1).  Only the small array of chunk
   pointers is ever copied on growth.  The access functions below are
   plain array reads, writes and loops: no closure, no option. *)

(* time 0 never occurs in a real epoch: thread clocks and local epochs start
   at 1.  tid 0xFFFF keeps it distinct from [Epoch.none]. *)
let marker = Epoch.make ~time:0 ~tid:0xFFFF

let chunk_slots = 64
let chunk_bits = 6

type t = {
  nthreads : int;
  width : int;  (* ints per slot: 2 * nthreads *)
  mutable chunks : int array array;
  mutable fresh : int;  (* slots ever handed out; the next fresh one *)
  mutable free : int array;  (* stack of freed slots *)
  mutable nfree : int;
}

let create ~nthreads =
  { nthreads; width = 2 * nthreads; chunks = [||]; fresh = 0; free = [||]; nfree = 0 }

let live p = p.fresh - p.nfree
let capacity p = Array.length p.chunks * chunk_slots

(* Every time 0, every index -1. *)
let clear p chunk off =
  for i = 0 to p.nthreads - 1 do
    chunk.(off + (2 * i)) <- 0;
    chunk.(off + (2 * i) + 1) <- -1
  done

let alloc p =
  if p.nfree > 0 then begin
    p.nfree <- p.nfree - 1;
    let s = p.free.(p.nfree) in
    clear p p.chunks.(s lsr chunk_bits) ((s land (chunk_slots - 1)) * p.width);
    s
  end
  else begin
    let s = p.fresh in
    let c = s lsr chunk_bits in
    if c = Array.length p.chunks then begin
      let chunk = Array.make (chunk_slots * p.width) 0 in
      for k = 0 to chunk_slots - 1 do
        clear p chunk (k * p.width)
      done;
      let chunks = Array.make (c + 1) chunk in
      Array.blit p.chunks 0 chunks 0 c;
      p.chunks <- chunks
    end;
    p.fresh <- s + 1;
    s
  end

let release p s =
  if p.nfree = Array.length p.free then begin
    let stack = Array.make (Stdlib.max 16 (2 * p.nfree)) 0 in
    Array.blit p.free 0 stack 0 p.nfree;
    p.free <- stack
  end;
  p.free.(p.nfree) <- s;
  p.nfree <- p.nfree + 1

(* [time] and [set] are the shared-read check and update of every sampled
   read of a shared location; inlined into the engines' access handlers. *)
let[@inline] time p s i =
  Array.unsafe_get p.chunks.(s lsr chunk_bits)
    (((s land (chunk_slots - 1)) * p.width) + (2 * i))

let[@inline] set p s i ~time ~index =
  let chunk = p.chunks.(s lsr chunk_bits) in
  let off = ((s land (chunk_slots - 1)) * p.width) + (2 * i) in
  Array.unsafe_set chunk off time;
  Array.unsafe_set chunk (off + 1) index

let stale p s clock ~tid ~epoch =
  let chunk = p.chunks.(s lsr chunk_bits) in
  let off = (s land (chunk_slots - 1)) * p.width in
  let found = ref (-1) and i = ref 0 in
  while !found < 0 && !i < p.nthreads do
    let bound = if !i = tid then epoch else Vector_clock.get clock !i in
    if Array.unsafe_get chunk (off + (2 * !i)) > bound then
      found := Array.unsafe_get chunk (off + (2 * !i) + 1);
    incr i
  done;
  !found

let inflate p ~repoch ~rindex x ~tid ~time ~index =
  let re : Epoch.t = repoch.(x) in
  let s = alloc p in
  set p s (Epoch.tid re) ~time:(Epoch.time re) ~index:rindex.(x);
  set p s tid ~time ~index;
  repoch.(x) <- marker;
  rindex.(x) <- s

let deflate p ~repoch ~rindex x =
  release p rindex.(x);
  repoch.(x) <- Epoch.none;
  rindex.(x) <- -1

(* A slot is written as a [Vector_clock.encode] of its times followed by a
   [Snap.Enc.int_array] of its indices, the .ftc layout of a read clock and
   its index array. *)
let encode_reads enc p ~repoch ~rindex =
  Array.iter (Epoch.encode enc) repoch;
  Snap.Enc.int enc (Array.length rindex);
  let nshared = ref 0 in
  Array.iteri
    (fun x i ->
      if Epoch.equal repoch.(x) marker then begin
        incr nshared;
        Snap.Enc.int enc (-1)
      end
      else Snap.Enc.int enc i)
    rindex;
  Snap.Enc.int enc !nshared;
  Array.iteri
    (fun x e ->
      if Epoch.equal e marker then begin
        Snap.Enc.int enc x;
        let s = rindex.(x) in
        let chunk = p.chunks.(s lsr chunk_bits) in
        let off = (s land (chunk_slots - 1)) * p.width in
        for field = 0 to 1 do
          Snap.Enc.int enc p.nthreads;
          for i = 0 to p.nthreads - 1 do
            Snap.Enc.int enc chunk.(off + (2 * i) + field)
          done
        done
      end)
    repoch

let decode_reads dec p ~repoch ~rindex =
  let nlocs = Array.length repoch in
  let nshared = ref 0 in
  for x = 0 to nlocs - 1 do
    let e = Epoch.decode dec in
    if Epoch.equal e marker then incr nshared
    else Snap.expect (Epoch.tid e < p.nthreads) "read epoch of an unknown thread";
    repoch.(x) <- e
  done;
  Array.blit (Snap.Dec.int_array_n dec nlocs) 0 rindex 0 nlocs;
  let listed = Snap.Dec.int dec in
  Snap.expect (listed = !nshared) "shared read count disagrees with the marked locations";
  let n = p.nthreads in
  let prev = ref (-1) in
  for _ = 1 to listed do
    let x = Snap.Dec.int dec in
    Snap.expect (x > !prev && x < nlocs && Epoch.equal repoch.(x) marker)
      "shared read location out of order or not marked shared";
    prev := x;
    let times = Vector_clock.decode dec ~size:n in
    let indices = Snap.Dec.int_array_n dec n in
    let s = alloc p in
    for i = 0 to n - 1 do
      set p s i ~time:(Vector_clock.get times i) ~index:indices.(i)
    done;
    rindex.(x) <- s
  done

let check p ~repoch ~rindex =
  let seen = Array.make p.fresh false in
  let mark s =
    if s < 0 || s >= p.fresh || seen.(s) then false
    else begin
      seen.(s) <- true;
      true
    end
  in
  let ok = ref (p.fresh <= capacity p && p.nfree <= p.fresh) in
  let held = ref 0 in
  Array.iteri
    (fun x e ->
      if Epoch.equal e marker then begin
        incr held;
        ok := mark rindex.(x) && !ok
      end)
    repoch;
  for k = 0 to p.nfree - 1 do
    ok := mark p.free.(k) && !ok
  done;
  !ok && !held + p.nfree = p.fresh
