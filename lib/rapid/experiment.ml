module Engine = Ft_core.Engine
module Detector = Ft_core.Detector
module Sampler = Ft_core.Sampler
module Metrics = Ft_core.Metrics
module Classic = Ft_workloads.Classic
module Tabulate = Ft_support.Tabulate

type engine_cfg = {
  engine : Engine.id;
  rate : float;
  label : string;
}

let appendix_engines =
  [
    { engine = Engine.Su; rate = 0.03; label = "SU-(3%)" };
    { engine = Engine.So; rate = 0.03; label = "SO-(3%)" };
    { engine = Engine.Su; rate = 1.0; label = "SU-(100%)" };
    { engine = Engine.So; rate = 1.0; label = "SO-(100%)" };
  ]

type row = {
  benchmark : string;
  label : string;
  runs : int;  (** seeded runs that completed (failures are dropped) *)
  metrics : Metrics.t;
  racy_locations : float;
  peak_sampled : int;  (** largest per-run sampled set across the runs *)
}

let sampler_for cfg ~seed =
  if cfg.rate >= 1.0 then Sampler.all else Sampler.bernoulli ~rate:cfg.rate ~seed

(* One experiment cell: a (benchmark, seed) pair analysed by every engine
   configuration.  Cells are independent, so the grid fans out over a domain
   pool; results are merged in task order, which keeps the tables identical
   to the sequential run for any [jobs]. *)
let run ?(benchmarks = Classic.all) ?(engines = appendix_engines) ?(runs = 30) ?(scale = 4)
    ?(base_seed = 1000) ?(jobs = 1) ?(on_error = Ft_par.warn_stderr) ?report () =
  let benchs = Array.of_list benchmarks in
  let tasks =
    Array.init
      (Array.length benchs * runs)
      (fun i -> (i / runs, base_seed + (i mod runs)))
  in
  let cell (bi, seed) =
    let bench = benchs.(bi) in
    let trace = bench.Classic.generate ~seed ~scale in
    List.map
      (fun (cfg : engine_cfg) ->
        let result = Engine.run cfg.engine ~sampler:(sampler_for cfg ~seed) trace in
        (result.Detector.metrics, List.length (Detector.racy_locations result)))
      engines
  in
  let results, stats = Ft_par.map_stats ~jobs cell tasks in
  Option.iter (fun f -> f stats) report;
  List.concat
    (List.mapi
       (fun bi (bench : Classic.benchmark) ->
         let acc =
           List.map
             (fun (cfg : engine_cfg) -> (cfg, Metrics.create (), ref 0, ref 0))
             engines
         in
         let ok_runs = ref 0 in
         for k = 0 to runs - 1 do
           match results.((bi * runs) + k) with
           | Error e -> on_error e
           | Ok cells ->
             incr ok_runs;
             List.iter2
               (fun (_, total, locs, peak) (m, nlocs) ->
                 Metrics.add ~into:total m;
                 locs := !locs + nlocs;
                 peak := Stdlib.max !peak m.Metrics.sampled_accesses)
               acc cells
         done;
         List.map
           (fun ((cfg : engine_cfg), total, locs, peak) ->
             {
               benchmark = bench.Classic.name;
               label = cfg.label;
               runs = !ok_runs;
               metrics = total;
               racy_locations = float_of_int !locs /. float_of_int (Stdlib.max 1 !ok_runs);
               peak_sampled = !peak;
             })
           acc)
       (Array.to_list benchs))

let benchmarks_of rows =
  List.sort_uniq compare (List.map (fun r -> r.benchmark) rows)

let labels_of rows =
  (* preserve first-appearance order *)
  List.fold_left
    (fun acc r -> if List.mem r.label acc then acc else acc @ [ r.label ])
    [] rows

let cell rows bench label =
  List.find_opt (fun r -> r.benchmark = bench && r.label = label) rows

let table ~quantity rows =
  let labels = labels_of rows in
  let header = Array.of_list ("benchmark" :: labels) in
  let body =
    List.map
      (fun bench ->
        Array.of_list
          (bench
          :: List.map
               (fun label ->
                 match cell rows bench label with
                 | Some r -> Tabulate.pct (quantity r)
                 | None -> "-")
               labels))
      (benchmarks_of rows)
  in
  Tabulate.render ~header body

let fig7 rows = table rows ~quantity:(fun r -> Metrics.acquires_skipped_ratio r.metrics)

(* Fig 8 mixes two quantities: for SU engines the ratio of releases that
   performed the O(T) copy; for SO the ratio of deep copies materialized. *)
let fig8_quantity r =
  if String.length r.label >= 2 && String.sub r.label 0 2 = "SO" then
    Metrics.deep_copy_ratio r.metrics
  else Metrics.releases_processed_ratio r.metrics

let fig8 rows = table rows ~quantity:fig8_quantity

let fig9 rows =
  let so_rows =
    List.filter (fun r -> String.length r.label >= 2 && String.sub r.label 0 2 = "SO") rows
  in
  table so_rows ~quantity:(fun r -> Metrics.saved_traversal_ratio r.metrics)

let eraser_comparison ?(benchmarks = Classic.all) ?(scale = 2) ?(seed = 5) () =
  let header =
    [| "benchmark"; "truth"; "SO (HB)"; "eraser"; "false pos"; "false neg" |]
  in
  let body =
    List.map
      (fun (bench : Classic.benchmark) ->
        let trace = bench.Classic.generate ~seed ~scale in
        let mask =
          Array.init (Ft_trace.Trace.length trace) (fun i ->
              Ft_trace.Event.is_access (Ft_trace.Trace.get trace i))
        in
        let truth = Ft_trace.Hb.racy_locations trace ~sampled:mask in
        let so = Detector.racy_locations (Engine.run Engine.So ~sampler:Sampler.all trace) in
        let eraser =
          Detector.racy_locations (Engine.run Engine.Eraser ~sampler:Sampler.all trace)
        in
        let fp = List.filter (fun x -> not (List.mem x truth)) eraser in
        let fn = List.filter (fun x -> not (List.mem x eraser)) truth in
        [|
          bench.Classic.name;
          string_of_int (List.length truth);
          string_of_int (List.length so);
          string_of_int (List.length eraser);
          string_of_int (List.length fp);
          string_of_int (List.length fn);
        |])
      benchmarks
  in
  Tabulate.render ~header body

let mean xs = Ft_support.Stats.mean (Array.of_list xs)

let summary rows =
  let labels = labels_of rows in
  let header = [| "engine"; "acq skipped"; "rel processed / deep copies"; "savings" |] in
  let body =
    List.map
      (fun label ->
        let of_label = List.filter (fun r -> r.label = label) rows in
        let skipped = mean (List.map (fun r -> Metrics.acquires_skipped_ratio r.metrics) of_label) in
        let rel = mean (List.map fig8_quantity of_label) in
        let sav = mean (List.map (fun r -> Metrics.saved_traversal_ratio r.metrics) of_label) in
        [| label; Tabulate.pct skipped; Tabulate.pct rel;
           (if String.sub label 0 2 = "SO" then Tabulate.pct sav else "-") |])
      labels
  in
  Tabulate.render ~header body
