module E = Ft_trace.Event

module Make (D : Detector.S) : Detector.S = struct
  type t = {
    inner : D.t;
    racy : Bytes.t;  (* one byte per location: 1 = stop checking *)
    (* physical head of the inner race list at the last handle; new races
       are the prefix up to this tail, so marking is O(new races) *)
    mutable seen : Race.t list;
  }

  let name = D.name

  let mark_new_races d =
    let rec mark = function
      | races when races == d.seen -> ()
      | [] -> ()
      | r :: rest ->
        Bytes.unsafe_set d.racy r.Race.loc '\001';
        mark rest
    in
    let head = D.races_rev d.inner in
    mark head;
    d.seen <- head

  let create (cfg : Detector.config) =
    {
      inner = D.create cfg;
      racy = Bytes.make (Stdlib.max 1 cfg.Detector.nlocs) '\000';
      seen = [];
    }

  let handle d index (e : E.t) =
    match e.E.op with
    | E.Read x | E.Write x when Bytes.unsafe_get d.racy x = '\001' -> ()
    | E.Read _ | E.Write _ ->
      D.handle d.inner index e;
      (* sync ops never declare; only accesses can extend the race list *)
      if D.races_rev d.inner != d.seen then mark_new_races d
    | _ -> D.handle d.inner index e

  let result d = D.result d.inner
  let races_rev d = D.races_rev d.inner
  let note_sampled d t = D.note_sampled d.inner t
  let view_size = D.view_size
  let view_version d t = D.view_version d.inner t
  let export_view d t buf = D.export_view d.inner t buf
  let import_view d t idx vals = D.import_view d.inner t idx vals
  let snapshot d = D.snapshot d.inner

  let restore cfg s =
    let inner = D.restore cfg s in
    let d =
      { inner; racy = Bytes.make (Stdlib.max 1 cfg.Detector.nlocs) '\000'; seen = [] }
    in
    (* the racy set is exactly the locations with a declared race *)
    mark_new_races d;
    d
end

let wrap (p : Detector.packed) : Detector.packed =
  let module D = (val p : Detector.S) in
  (module Make (D) : Detector.S)
