(* Correctness checks.  Every timed operation's output is compared with an
   answer computed independently of the path being timed; a mismatch fails
   the operation, and any failure makes the run exit non-zero. *)

module Detector = Ft_core.Detector
module Race = Ft_core.Race

(* [Ok ()] when the two reports are byte-identical, otherwise the first line
   on which they differ. *)
let same_report ~expected ~actual =
  if String.equal expected actual then Ok ()
  else begin
    let e = Array.of_list (String.split_on_char '\n' expected)
    and a = Array.of_list (String.split_on_char '\n' actual) in
    let line i arr = if i < Array.length arr then arr.(i) else "<end of report>" in
    let rec first i = if line i e = line i a then first (i + 1) else i in
    let i = first 0 in
    Error (Printf.sprintf "report line %d: expected %S, got %S" (i + 1) (line i e) (line i a))
  end

(* Lemmas 7/8: the sampling engines declare races at exactly the events the
   naive ST engine does, given the same sample set. *)
let same_race_events ~reference (r : Detector.result) =
  if Race.indices reference.Detector.races = Race.indices r.Detector.races then Ok ()
  else
    Error
      (Printf.sprintf "%s declares races at other events than %s" r.Detector.engine
         reference.Detector.engine)

(* At rate 1 the O(1)-samples engines report exactly FastTrack's races:
   indices, directions and priors. *)
let same_races ~reference (r : Detector.result) =
  if reference.Detector.races = r.Detector.races then Ok ()
  else
    Error
      (Printf.sprintf "%s races differ from %s" r.Detector.engine reference.Detector.engine)

(* The counters a sync-only replay must reproduce exactly: everything the
   acquire/release/fork/join handlers bump and access handlers never do. *)
let sync_counters (m : Ft_core.Metrics.t) =
  Ft_core.Metrics.
    [
      ("acquires", m.acquires);
      ("acquires_skipped", m.acquires_skipped);
      ("releases", m.releases);
      ("releases_processed", m.releases_processed);
      ("deep_copies", m.deep_copies);
      ("shallow_copies", m.shallow_copies);
      ("entries_traversed", m.entries_traversed);
    ]

let same_sync_counters ~full ~sync_only =
  let diffs =
    List.filter_map
      (fun ((name, a), (_, b)) ->
        if a = b then None else Some (Printf.sprintf "%s %d vs %d" name a b))
      (List.combine (sync_counters full) (sync_counters sync_only))
  in
  if diffs = [] then Ok ()
  else Error ("sync replay counters differ from the full run: " ^ String.concat ", " diffs)
