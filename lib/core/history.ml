(* Flat access histories for the vector-clock detectors.

   Per-location state lives in parallel int-indexed arrays rather than a
   per-location record behind an option: the access hot path does no option
   matching and no closure allocation (the stale loops are specialized over
   the two clock representations), and the write/read histories are plain
   int arrays scanned with unsafe accesses.  A zero-length array is the
   "no history yet" sentinel — real histories always have [clock_size]
   entries.

   On top sits the same-epoch fast-path cache.  Per location we remember the
   key of the last access whose race check came back clean, as
   [(epoch lsl 16) lor tid], together with the owning thread's version
   counter at that moment.  The engines bump a thread's version ([bump]) at
   every sync operation that touches its clock, so a cache entry is valid
   exactly while (a) the thread's timestamp is provably unchanged and (b) no
   other access rewrote the location's history (recording invalidates the
   caches of conflicting kinds).  A valid hit means the full O(T) check and
   the O(T) record are redundant: only the remembered trace index moves.
   Misses fall through to the exact seed-equivalent slow path, so a hit can
   only ever skip provably redundant work — verdicts and every other counter
   are unchanged (the byte-identity grid in test_fastpath pins this).

   Invariants carried by a valid cache entry (tid, epoch, ver):
   - rcache: the read-side check [C_x^w ⊑ C_t[t ↦ e]] was clean, and the
     read is recorded ([C_x^r(t) = e]).  Kept across a clean same-key write
     (the new [C_x^w = C_t[t ↦ e]] still satisfies it), killed by any other
     write to the location.
   - wcache: both write-side checks were clean, and the write history
     already equals [C_t[t ↦ e]].  Killed by any read that changes the read
     history and by any other write.

   The eight per-location arrays start small and double on demand, up to
   the highest location recorded so far (never past [nlocs]); a location
   beyond the current capacity has an empty history and cold caches, just
   as a never-touched one inside it.  A trace that touches a few locations
   of a large universe then pays for those only, at set-up and in memory. *)

type t = {
  clock_size : int;
  nlocs : int;
  mutable write : int array array;  (* C_x^w; [||] = none *)
  mutable windex : int array;       (* trace index behind C_x^w *)
  mutable read : int array array;   (* C_x^r; [||] = none *)
  mutable rindex : int array array; (* per-thread trace indices behind C_x^r *)
  tver : int array;                 (* per-thread version, bumped at sync points *)
  mutable rcache : int array;       (* same-epoch key of the last clean read, 0 = none *)
  mutable rcache_ver : int array;
  mutable wcache : int array;       (* same-epoch key of the last clean write, 0 = none *)
  mutable wcache_ver : int array;
}

(* Unique per (epoch, tid) given tid < 2^16 — the same packing Epoch uses.
   Key 0 (epoch 0, thread 0) collides with the "empty" sentinel, which is
   sound: it can only turn a hit into a miss, never the reverse, because the
   version guard starts below any live [tver]. *)
let skey ~tid ~epoch = (epoch lsl 16) lor tid

let initial_capacity = 64

let create ~nlocs ~clock_size =
  let nlocs = Stdlib.max 1 nlocs in
  let n = Stdlib.min nlocs initial_capacity in
  {
    clock_size;
    nlocs;
    write = Array.make n [||];
    windex = Array.make n (-1);
    read = Array.make n [||];
    rindex = Array.make n [||];
    tver = Array.make clock_size 1;
    rcache = Array.make n 0;
    rcache_ver = Array.make n 0;
    wcache = Array.make n 0;
    wcache_ver = Array.make n 0;
  }

let capacity t = Array.length t.windex

(* Make room for location [x]; one past [nlocs] still fails the bounds
   check, as the fixed-size arrays did. *)
let grow t x =
  let cap = capacity t in
  if x >= cap then begin
    let n = Stdlib.min t.nlocs (Stdlib.max (x + 1) (2 * cap)) in
    let ext a fill =
      let b = Array.make n fill in
      Array.blit a 0 b 0 cap;
      b
    in
    t.write <- ext t.write [||];
    t.windex <- ext t.windex (-1);
    t.read <- ext t.read [||];
    t.rindex <- ext t.rindex [||];
    t.rcache <- ext t.rcache 0;
    t.rcache_ver <- ext t.rcache_ver 0;
    t.wcache <- ext t.wcache 0;
    t.wcache_ver <- ext t.wcache_ver 0
  end

let write_of t x = if x < capacity t then t.write.(x) else [||]
let read_of t x = if x < capacity t then t.read.(x) else [||]

let bump t tid = t.tver.(tid) <- t.tver.(tid) + 1
let version t tid = t.tver.(tid)

let read_hit t x ~tid ~epoch ~index =
  x < capacity t
  && t.rcache.(x) = skey ~tid ~epoch
  && t.rcache_ver.(x) = t.tver.(tid)
  &&
  (t.rindex.(x).(tid) <- index;
   true)

let write_hit t x ~tid ~epoch ~index =
  x < capacity t
  && t.wcache.(x) = skey ~tid ~epoch
  && t.wcache_ver.(x) = t.tver.(tid)
  &&
  (t.windex.(x) <- index;
   true)

(* The stale loops inline the bound [clock[tid ↦ epoch]] instead of taking
   it as a function argument: one comparison per entry.  They are not
   allocation-free.  Each local [let rec loop] captures its free variables,
   so without flambda it is a closure allocated on every call, and the
   [stale_both] variants also return a tuple. *)

let stale_write t x clock ~tid ~epoch =
  let h = write_of t x in
  let n = Array.length h in
  let rec loop i =
    if i >= n then -1
    else
      let b = if i = tid then epoch else Vector_clock.get clock i in
      if Array.unsafe_get h i > b then t.windex.(x) else loop (i + 1)
  in
  loop 0

let stale_read t x clock ~tid ~epoch =
  let h = read_of t x in
  let n = Array.length h in
  let rec loop i =
    if i >= n then -1
    else
      let b = if i = tid then epoch else Vector_clock.get clock i in
      if Array.unsafe_get h i > b then t.rindex.(x).(i) else loop (i + 1)
  in
  loop 0

(* DJIT+ always passes [epoch = C_t(t)], so the bound [clock[tid ↦ epoch]]
   is the clock itself — these variants drop the per-entry substitution
   branch from the hottest loops. *)

let stale_write_plain t x clock =
  let h = write_of t x in
  let n = Array.length h in
  let rec loop i =
    if i >= n then -1
    else if Array.unsafe_get h i > Vector_clock.get clock i then t.windex.(x)
    else loop (i + 1)
  in
  loop 0

let stale_read_plain t x clock =
  let h = read_of t x in
  let n = Array.length h in
  let rec loop i =
    if i >= n then -1
    else if Array.unsafe_get h i > Vector_clock.get clock i then t.rindex.(x).(i)
    else loop (i + 1)
  in
  loop 0

let stale_both_plain t x clock =
  let hr = read_of t x and hw = write_of t x in
  if Array.length hr = 0 then (-1, stale_write_plain t x clock)
  else if Array.length hw = 0 then (stale_read_plain t x clock, -1)
  else begin
    let n = Array.length hr in
    let ri = t.rindex.(x) and wi = t.windex.(x) in
    let rec loop i pr pw =
      if (pr >= 0 && pw >= 0) || i >= n then (pr, pw)
      else begin
        let b = Vector_clock.get clock i in
        let pr =
          if pr < 0 && Array.unsafe_get hr i > b then Array.unsafe_get ri i
          else pr
        in
        let pw = if pw < 0 && Array.unsafe_get hw i > b then wi else pw in
        loop (i + 1) pr pw
      end
    in
    loop 0 (-1) (-1)
  end

(* Fused write-path traversal: both the stale-read and stale-write verdicts
   in one pass, evaluating the bound [clock[tid ↦ epoch]] once per entry
   instead of once per loop.  Returns [(pr, pw)] exactly as the two
   separate loops would: [pr] is the per-thread index behind the {e first}
   stale read entry, [pw] the location's write index if {e any} write entry
   is stale.  Early-exits once both are resolved. *)
let stale_both t x clock ~tid ~epoch =
  let hr = read_of t x and hw = write_of t x in
  if Array.length hr = 0 then (-1, stale_write t x clock ~tid ~epoch)
  else if Array.length hw = 0 then (stale_read t x clock ~tid ~epoch, -1)
  else begin
    let n = Array.length hr in
    let ri = t.rindex.(x) and wi = t.windex.(x) in
    let rec loop i pr pw =
      if (pr >= 0 && pw >= 0) || i >= n then (pr, pw)
      else begin
        let b = if i = tid then epoch else Vector_clock.get clock i in
        let pr =
          if pr < 0 && Array.unsafe_get hr i > b then Array.unsafe_get ri i
          else pr
        in
        let pw = if pw < 0 && Array.unsafe_get hw i > b then wi else pw in
        loop (i + 1) pr pw
      end
    in
    loop 0 (-1) (-1)
  end

let ol_stale_write t x olist ~tid ~epoch =
  let h = write_of t x in
  let n = Array.length h in
  let rec loop i =
    if i >= n then -1
    else
      let b = if i = tid then epoch else Ordered_list.get olist i in
      if Array.unsafe_get h i > b then t.windex.(x) else loop (i + 1)
  in
  loop 0

let ol_stale_read t x olist ~tid ~epoch =
  let h = read_of t x in
  let n = Array.length h in
  let rec loop i =
    if i >= n then -1
    else
      let b = if i = tid then epoch else Ordered_list.get olist i in
      if Array.unsafe_get h i > b then t.rindex.(x).(i) else loop (i + 1)
  in
  loop 0

let ol_stale_both t x olist ~tid ~epoch =
  let hr = read_of t x and hw = write_of t x in
  if Array.length hr = 0 then (-1, ol_stale_write t x olist ~tid ~epoch)
  else if Array.length hw = 0 then (ol_stale_read t x olist ~tid ~epoch, -1)
  else begin
    let n = Array.length hr in
    let ri = t.rindex.(x) and wi = t.windex.(x) in
    let rec loop i pr pw =
      if (pr >= 0 && pw >= 0) || i >= n then (pr, pw)
      else begin
        let b = if i = tid then epoch else Ordered_list.get olist i in
        let pr =
          if pr < 0 && Array.unsafe_get hr i > b then Array.unsafe_get ri i
          else pr
        in
        let pw = if pw < 0 && Array.unsafe_get hw i > b then wi else pw in
        loop (i + 1) pr pw
      end
    in
    loop 0 (-1) (-1)
  end

let write_clock t x =
  grow t x;
  let h = t.write.(x) in
  if Array.length h > 0 then h
  else begin
    let h = Array.make t.clock_size 0 in
    t.write.(x) <- h;
    h
  end

let record_write_vc t x clock ~tid ~epoch ~index ~clean =
  let h = write_clock t x in
  Vector_clock.blit_into clock h;
  Array.unsafe_set h tid epoch;
  t.windex.(x) <- index;
  let k = skey ~tid ~epoch in
  if clean then begin
    t.wcache.(x) <- k;
    t.wcache_ver.(x) <- t.tver.(tid);
    (* C_x^w changed: a clean-read entry survives only if it is this very
       (tid, epoch) — the fresh [C_t[t ↦ e]] trivially satisfies its own
       read-side check *)
    if t.rcache.(x) <> k then t.rcache.(x) <- 0
  end
  else begin
    t.wcache.(x) <- 0;
    t.rcache.(x) <- 0
  end

let record_write_ol t x olist ~tid ~epoch ~index ~clean =
  let h = write_clock t x in
  Ordered_list.values_into olist h;
  Array.unsafe_set h tid epoch;
  t.windex.(x) <- index;
  let k = skey ~tid ~epoch in
  if clean then begin
    t.wcache.(x) <- k;
    t.wcache_ver.(x) <- t.tver.(tid);
    if t.rcache.(x) <> k then t.rcache.(x) <- 0
  end
  else begin
    t.wcache.(x) <- 0;
    t.rcache.(x) <- 0
  end

let record_read t x ~tid ~epoch ~index ~clean =
  grow t x;
  let r =
    let r = t.read.(x) in
    if Array.length r > 0 then r
    else begin
      let r = Array.make t.clock_size 0 in
      t.read.(x) <- r;
      t.rindex.(x) <- Array.make t.clock_size (-1);
      r
    end
  in
  if Array.unsafe_get r tid <> epoch then begin
    Array.unsafe_set r tid epoch;
    (* C_x^r changed: a cached clean write-check on x may now be stale *)
    t.wcache.(x) <- 0
  end;
  t.rindex.(x).(tid) <- index;
  if clean then begin
    t.rcache.(x) <- skey ~tid ~epoch;
    t.rcache_ver.(x) <- t.tver.(tid)
  end
  else t.rcache.(x) <- 0

(* The codec carries the caches and version counters too: a restored run
   must count same_epoch_hits (and skip exactly the same work) as the
   uninterrupted run — the checkpoint-equivalence suite diffs the full
   metrics JSON, not just verdicts.  It always spells out all [nlocs]
   locations, whatever the current capacity, so the bytes do not depend on
   how far the arrays have grown. *)
let encode enc t =
  let n = t.nlocs in
  Snap.Enc.int enc n;
  for x = 0 to n - 1 do
    let w = write_of t x and r = read_of t x in
    (if Array.length w = 0 then Snap.Enc.int enc 0
     else begin
       Snap.Enc.int enc 1;
       Snap.Enc.int_array enc w
     end);
    Snap.Enc.int enc (if x < capacity t then t.windex.(x) else -1);
    if Array.length r = 0 then Snap.Enc.int enc 0
    else begin
      Snap.Enc.int enc 1;
      Snap.Enc.int_array enc r;
      Snap.Enc.int_array enc t.rindex.(x)
    end
  done;
  Snap.Enc.int_array enc t.tver;
  let per_loc a =
    Snap.Enc.int enc n;
    for x = 0 to n - 1 do
      Snap.Enc.int enc (if x < capacity t then a.(x) else 0)
    done
  in
  per_loc t.rcache;
  per_loc t.rcache_ver;
  per_loc t.wcache;
  per_loc t.wcache_ver

let decode dec ~nlocs ~clock_size =
  let stored = Snap.Dec.int dec in
  let t = create ~nlocs ~clock_size in
  Snap.expect (stored = t.nlocs) "history location count mismatch";
  let clock_entries a =
    Snap.expect (Array.length a = clock_size) "history clock width mismatch";
    Array.iter (fun v -> Snap.expect (v >= 0) "negative history entry") a;
    a
  in
  for x = 0 to stored - 1 do
    (match Snap.Dec.int dec with
    | 0 -> ()
    | 1 ->
      grow t x;
      t.write.(x) <- clock_entries (Snap.Dec.int_array dec)
    | n -> raise (Snap.Corrupt (Printf.sprintf "bad history tag %d" n)));
    (match Snap.Dec.int dec with
    | -1 -> ()
    | i ->
      grow t x;
      t.windex.(x) <- i);
    match Snap.Dec.int dec with
    | 0 -> ()
    | 1 ->
      grow t x;
      t.read.(x) <- clock_entries (Snap.Dec.int_array dec);
      t.rindex.(x) <- Snap.Dec.int_array_n dec clock_size
    | n -> raise (Snap.Corrupt (Printf.sprintf "bad history tag %d" n))
  done;
  let tver = Snap.Dec.int_array_n dec clock_size in
  Array.blit tver 0 t.tver 0 clock_size;
  (* the caches are 0 past the last location ever recorded; grow over any
     nonzero entry all the same, so that decoding stays exact on any input *)
  let per_loc () =
    let a = Snap.Dec.int_array_n dec stored in
    let last = ref (stored - 1) in
    while !last >= 0 && a.(!last) = 0 do
      decr last
    done;
    if !last >= 0 then grow t !last;
    a
  in
  let rcache = per_loc () in
  let rcache_ver = per_loc () in
  let wcache = per_loc () in
  let wcache_ver = per_loc () in
  let into a dst = Array.blit a 0 dst 0 (capacity t) in
  into rcache t.rcache;
  into rcache_ver t.rcache_ver;
  into wcache t.wcache;
  into wcache_ver t.wcache_ver;
  t
