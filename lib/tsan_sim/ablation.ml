module Engine = Ft_core.Engine
module Detector = Ft_core.Detector
module Sampler = Ft_core.Sampler
module Metrics = Ft_core.Metrics
module Db_sim = Ft_workloads.Db_sim
module Trace = Ft_trace.Trace
module Tabulate = Ft_support.Tabulate

let tpcc () = Option.get (Db_sim.profile "tpcc")

let all_engines =
  [ Engine.Djit; Engine.Fasttrack; Engine.Fasttrack_tc; Engine.St; Engine.Su; Engine.Sn;
    Engine.Sl; Engine.So; Engine.O1; Engine.O1u ]

(* Each table fans its independent cells out over [jobs] domains (default 1
   = inline sequential).  Rows are assembled from results keyed by task
   index, so every table is identical to the sequential one — except the
   timing columns under [jobs > 1], where concurrent cells contend for
   cores. *)
let par_cells ?jobs f tasks =
  List.map Ft_par.get_exn (Ft_par.map_list ?jobs f tasks)

let ms (t : Timing.t) = Printf.sprintf "%.1f ms" (1000.0 *. t.Timing.median)

let engines_table ?(repeats = 3) ?(seed = 1) ?(rate = 0.03) ?(clock_size = 64) ?jobs
    ~target_events () =
  let trace = Db_sim.generate (tpcc ()) ~seed ~target_events in
  let sampler = Sampler.bernoulli ~rate ~seed in
  let run engine = Engine.run_instrumented engine ~sampler ~clock_size trace in
  let times =
    Timing.run ~rounds:repeats
      (Array.of_list (List.map (fun engine () -> ignore (run engine)) all_engines))
  in
  let rows =
    par_cells ?jobs
      (fun (i, engine) ->
        let result = run engine in
        let m = result.Detector.metrics in
        [|
          Engine.name engine;
          ms times.(i);
          string_of_int m.Metrics.vc_full_ops;
          Tabulate.pct (Metrics.acquires_skipped_ratio m);
          string_of_int m.Metrics.deep_copies;
          string_of_int (List.length (Detector.racy_locations result));
        |])
      (List.mapi (fun i engine -> (i, engine)) all_engines)
  in
  Tabulate.render
    ~header:[| "engine"; "time"; "O(T) clock ops"; "acq skipped"; "deep copies"; "racy locs" |]
    rows

(* One alternating call per width: the engines of a row share its rounds. *)
let clock_sweep ?(repeats = 3) ?(seed = 1) ?(rate = 0.03) ?(sizes = [ 16; 64; 256; 1024 ])
    ?jobs ~target_events () =
  let trace = Db_sim.generate (tpcc ()) ~seed ~target_events in
  let sampler = Sampler.bernoulli ~rate ~seed in
  let engines = [ Engine.St; Engine.Su; Engine.Sl; Engine.So ] in
  let rows =
    par_cells ?jobs
      (fun clock_size ->
        let clock_size = Stdlib.max clock_size trace.Trace.nthreads in
        let times =
          Timing.run ~rounds:repeats
            (Array.of_list
               (List.map
                  (fun engine () ->
                    ignore (Engine.run_instrumented engine ~sampler ~clock_size trace))
                  engines))
        in
        Array.of_list (string_of_int clock_size :: List.map ms (Array.to_list times)))
      sizes
  in
  Tabulate.render
    ~header:(Array.of_list ("T (clock width)" :: List.map Engine.name engines))
    rows

(* Adversarial many-locks workload for the O(|S|·T·(T+L)) vs O(|S|·T)
   separation of Lemmas 7 and 8: in every round, each of [nthreads] threads
   performs one sampled access and then cycles through all L locks.  Every
   one of its L releases then carries fresh information, so SU performs L
   full copies per round while SO hands out L shallow copies and pays at
   most a couple of deep copies. *)
let many_locks_trace ~nthreads ~nlocks ~rounds =
  let b = Trace.Builder.create () in
  for _ = 1 to rounds do
    for t = 0 to nthreads - 1 do
      Trace.Builder.write b t t;
      for l = 0 to nlocks - 1 do
        Trace.Builder.acquire b t l;
        Trace.Builder.release b t l
      done
    done
  done;
  Trace.Builder.build b

let lock_sweep ?(seed = 1) ?(rate = 1.0) ?(stripes = [ 2; 8; 32; 128 ]) ?jobs
    ~target_events () =
  let engines = [ Engine.St; Engine.Su; Engine.So ] in
  let nthreads = 8 in
  let rows =
    par_cells ?jobs
      (fun nlocks ->
        let rounds = Stdlib.max 1 (target_events / (nthreads * ((2 * nlocks) + 1))) in
        let trace = many_locks_trace ~nthreads ~nlocks ~rounds in
        let sampler =
          if rate >= 1.0 then Sampler.all else Sampler.bernoulli ~rate ~seed
        in
        let cells =
          List.map
            (fun engine ->
              let result = Engine.run engine ~sampler ~clock_size:64 trace in
              string_of_int result.Detector.metrics.Metrics.vc_full_ops)
            engines
        in
        Array.of_list (Printf.sprintf "%d locks" nlocks :: cells))
      stripes
  in
  Tabulate.render
    ~header:(Array.of_list ("L" :: List.map (fun e -> Engine.name e ^ " O(T) ops") engines))
    rows

let sampler_table ?(seed = 1) ?(clock_size = 64) ?jobs ~target_events () =
  let trace = Db_sim.generate (tpcc ()) ~seed ~target_events in
  let strategies =
    [
      Sampler.bernoulli ~rate:0.03 ~seed;
      Sampler.windowed ~period:1000 ~duty:0.03;
      Sampler.cold_region ~threshold:4;
      Sampler.adaptive ~base_rate:8;
      Sampler.all;
    ]
  in
  let rows =
    par_cells ?jobs
      (fun sampler ->
        let result = Engine.run Engine.So ~sampler ~clock_size trace in
        let m = result.Detector.metrics in
        [|
          Sampler.name sampler;
          string_of_int m.Metrics.sampled_accesses;
          Tabulate.pct (Metrics.acquires_skipped_ratio m);
          string_of_int m.Metrics.deep_copies;
          string_of_int (List.length (Detector.racy_locations result));
        |])
      strategies
  in
  Tabulate.render
    ~header:[| "strategy"; "|S|"; "acq skipped"; "deep copies"; "racy locs" |]
    rows
