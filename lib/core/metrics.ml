type t = {
  mutable events : int;
  mutable reads : int;
  mutable writes : int;
  mutable sampled_accesses : int;
  mutable acquires : int;
  mutable releases : int;
  mutable acquires_skipped : int;
  mutable releases_processed : int;
  mutable deep_copies : int;
  mutable shallow_copies : int;
  mutable vc_full_ops : int;
  mutable entries_traversed : int;
  mutable entries_saved : int;
  mutable race_checks : int;
  mutable races : int;
  mutable same_epoch_hits : int;
}

let create () =
  {
    events = 0;
    reads = 0;
    writes = 0;
    sampled_accesses = 0;
    acquires = 0;
    releases = 0;
    acquires_skipped = 0;
    releases_processed = 0;
    deep_copies = 0;
    shallow_copies = 0;
    vc_full_ops = 0;
    entries_traversed = 0;
    entries_saved = 0;
    race_checks = 0;
    races = 0;
    same_epoch_hits = 0;
  }

let copy m = { m with events = m.events }

(* Field order is the serialization contract of [Snap]-based snapshots; the
   guard test checks this list against the record's actual arity, so adding
   a field without extending it fails the suite instead of silently
   truncating checkpoints. *)
let to_array m =
  [|
    m.events;
    m.reads;
    m.writes;
    m.sampled_accesses;
    m.acquires;
    m.releases;
    m.acquires_skipped;
    m.releases_processed;
    m.deep_copies;
    m.shallow_copies;
    m.vc_full_ops;
    m.entries_traversed;
    m.entries_saved;
    m.race_checks;
    m.races;
    m.same_epoch_hits;
  |]

let field_count = Array.length (to_array (create ()))

(* Parallel to [to_array]: the JSON renderers zip the two, so a field added
   to one but not the other trips the assertion below (and the test_obs arity
   guard) instead of silently dropping the counter from every export. *)
let field_names =
  [|
    "events";
    "reads";
    "writes";
    "sampled_accesses";
    "acquires";
    "releases";
    "acquires_skipped";
    "releases_processed";
    "deep_copies";
    "shallow_copies";
    "vc_full_ops";
    "entries_traversed";
    "entries_saved";
    "race_checks";
    "races";
    "same_epoch_hits";
  |]

let () = assert (Array.length field_names = field_count)

let to_json m =
  let vals = to_array m in
  let b = Buffer.create 256 in
  Buffer.add_char b '{';
  Array.iteri
    (fun i name ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "\"%s\": %d" name vals.(i))
    field_names;
  Buffer.add_char b '}';
  Buffer.contents b

let of_array a =
  if Array.length a <> field_count then None
  else
    Some
      {
        events = a.(0);
        reads = a.(1);
        writes = a.(2);
        sampled_accesses = a.(3);
        acquires = a.(4);
        releases = a.(5);
        acquires_skipped = a.(6);
        releases_processed = a.(7);
        deep_copies = a.(8);
        shallow_copies = a.(9);
        vc_full_ops = a.(10);
        entries_traversed = a.(11);
        entries_saved = a.(12);
        race_checks = a.(13);
        races = a.(14);
        same_epoch_hits = a.(15);
      }

let encode enc m = Snap.Enc.int_array enc (to_array m)

let decode dec =
  match of_array (Snap.Dec.int_array dec) with
  | Some m -> m
  | None -> raise (Snap.Corrupt "metrics field count mismatch")

let add ~into m =
  into.events <- into.events + m.events;
  into.reads <- into.reads + m.reads;
  into.writes <- into.writes + m.writes;
  into.sampled_accesses <- into.sampled_accesses + m.sampled_accesses;
  into.acquires <- into.acquires + m.acquires;
  into.releases <- into.releases + m.releases;
  into.acquires_skipped <- into.acquires_skipped + m.acquires_skipped;
  into.releases_processed <- into.releases_processed + m.releases_processed;
  into.deep_copies <- into.deep_copies + m.deep_copies;
  into.shallow_copies <- into.shallow_copies + m.shallow_copies;
  into.vc_full_ops <- into.vc_full_ops + m.vc_full_ops;
  into.entries_traversed <- into.entries_traversed + m.entries_traversed;
  into.entries_saved <- into.entries_saved + m.entries_saved;
  into.race_checks <- into.race_checks + m.race_checks;
  into.races <- into.races + m.races;
  into.same_epoch_hits <- into.same_epoch_hits + m.same_epoch_hits

(* The cluster router replicates every sync event to all K workers, so
   sync-side counters are counted K times while access-side counters
   (owner worker only) are counted once.  A sync-only baseline instance — same engine,
   fed exactly the replicated stream — counts precisely the duplicated
   work, so the exact merged counters are Σ shards − (K−1)·baseline,
   computed over [to_array] so a new field is covered (and exercised by the
   equivalence tests) the day it is added. *)
let merge_shards ~sync_baseline shards =
  let k = Array.length shards in
  if k = 0 then invalid_arg "Metrics.merge_shards: no shards";
  let acc = Array.make field_count 0 in
  Array.iter
    (fun m ->
      Array.iteri (fun i v -> acc.(i) <- acc.(i) + v) (to_array m))
    shards;
  Array.iteri
    (fun i v -> acc.(i) <- acc.(i) - ((k - 1) * v))
    (to_array sync_baseline);
  match of_array acc with
  | Some m -> m
  | None -> assert false

let acquire_total m = m.acquires
let release_total m = m.releases

(* All ratios are computed in float space: summing two counters near
   [max_int] (a merged weeks-long serve session) must not wrap to a negative
   denominator, and a zero or negative denominator (empty run, garbage
   snapshot) must yield a finite 0 rather than nan/inf — the JSON and STATS
   renderers embed these values verbatim. *)
let fdiv num den = if den <= 0.0 || not (Float.is_finite den) then 0.0 else num /. den

let ratio num den = fdiv (float_of_int num) (float_of_int den)

let acquires_skipped_ratio m = ratio m.acquires_skipped m.acquires
let releases_processed_ratio m = ratio m.releases_processed m.releases
let deep_copy_ratio m = ratio m.deep_copies m.releases

let saved_traversal_ratio m =
  fdiv (float_of_int m.entries_saved)
    (float_of_int m.entries_saved +. float_of_int m.entries_traversed)

let sync_full_work_ratio m =
  let total = float_of_int m.acquires +. float_of_int m.releases in
  let full =
    float_of_int m.acquires -. float_of_int m.acquires_skipped
    +. float_of_int m.releases_processed
  in
  fdiv full total

let mean_entries_per_acquire m = ratio m.entries_traversed m.acquires

let pp fmt m =
  Format.fprintf fmt
    "@[<v>events=%d reads=%d writes=%d sampled=%d@ acquires=%d (skipped %d) releases=%d \
     (processed %d)@ deep=%d shallow=%d vc_full=%d traversed=%d saved=%d@ checks=%d races=%d \
     epoch_hits=%d@]"
    m.events m.reads m.writes m.sampled_accesses m.acquires m.acquires_skipped m.releases
    m.releases_processed m.deep_copies m.shallow_copies m.vc_full_ops m.entries_traversed
    m.entries_saved m.race_checks m.races m.same_epoch_hits
