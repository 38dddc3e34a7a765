module Engine = Ft_core.Engine
module Detector = Ft_core.Detector
module Sampler = Ft_core.Sampler
module Metrics = Ft_core.Metrics
module Db_sim = Ft_workloads.Db_sim
module Trace = Ft_trace.Trace
module Tabulate = Ft_support.Tabulate
module Stats = Ft_support.Stats

type rate_result = {
  rate : float;
  st_time : Timing.t;
  su_time : Timing.t;
  so_time : Timing.t;
  st_locs : int;
  su_locs : int;
  so_locs : int;
  su_metrics : Metrics.t;
  so_metrics : Metrics.t;
}

type measurement = {
  benchmark : string;
  events : int;
  nt : Timing.t;
  et : Timing.t;
  ft : Timing.t;
  ft_locs : int;
  per_rate : rate_result list;
}

let default_rates = [ 0.003; 0.03; 0.10 ]

let default_clock_size = 64

let measure_one ?(repeats = 3) ?(rates = default_rates) ?(seed = 1)
    ?(clock_size = default_clock_size) ~target_events (p : Db_sim.profile) =
  let trace = Db_sim.generate p ~seed ~target_events in
  let clock_size = Stdlib.max clock_size trace.Trace.nthreads in
  let run engine sampler = Engine.run_instrumented engine ?sampler ~clock_size trace in
  let samplers = List.map (fun rate -> Some (Sampler.bernoulli ~rate ~seed)) rates in
  (* One alternating call per trace: NT, ET, FT, then ST/SU/SO at each
     rate, so every AO subtracts an ET timed in the same rounds. *)
  let walls =
    Timing.run ~rounds:repeats
      (Array.of_list
         ((fun () -> ignore (Detector.replay_only trace))
         :: (fun () -> ignore (Detector.replay_instrumented trace))
         :: (fun () -> ignore (run Engine.Fasttrack None))
         :: List.concat_map
              (fun sampler ->
                List.map
                  (fun engine () -> ignore (run engine sampler))
                  [ Engine.St; Engine.Su; Engine.So ])
              samplers))
  in
  let nt = walls.(0) and et = walls.(1) and ft = walls.(2) in
  (* Fixed-time-budget model (§6.2.5): in the paper every configuration runs
     for the same wall-clock hour, so a configuration [k×] slower than the
     uninstrumented server only gets through [1/k] of the requests.  Racy
     locations are therefore counted over the prefix each configuration can
     afford. *)
  let events = Trace.length trace in
  let budget_locs engine sampler ~(time : Timing.t) =
    let limit =
      Stdlib.max 1
        (int_of_float
           (float_of_int events *. nt.Timing.median
           /. Stdlib.max nt.Timing.median time.Timing.median))
    in
    let result = Engine.run engine ?sampler ~clock_size ~limit trace in
    List.length (Detector.racy_locations result)
  in
  let per_rate =
    List.mapi
      (fun i (rate, sampler) ->
        let st_time = walls.(3 + (3 * i))
        and su_time = walls.(4 + (3 * i))
        and so_time = walls.(5 + (3 * i)) in
        {
          rate;
          st_time;
          su_time;
          so_time;
          st_locs = budget_locs Engine.St sampler ~time:st_time;
          su_locs = budget_locs Engine.Su sampler ~time:su_time;
          so_locs = budget_locs Engine.So sampler ~time:so_time;
          su_metrics = (run Engine.Su sampler).Detector.metrics;
          so_metrics = (run Engine.So sampler).Detector.metrics;
        })
      (List.combine rates samplers)
  in
  {
    benchmark = p.Db_sim.name;
    events;
    nt;
    et;
    ft;
    ft_locs = budget_locs Engine.Fasttrack None ~time:ft;
    per_rate;
  }

(* Average timings over [nseeds] independently generated traces, round by
   round, so each averaged wall still pairs with the others of its round;
   detection counts and metrics come from the first completed seed (they
   are already averaged in structure, and Fig 6a's budget prefixes depend
   on that seed's times). *)
let aggregate runs =
  match runs with
  | [] -> None
  | first :: _ ->
    let mean (f : measurement -> Timing.t) =
      let walls = List.map (fun m -> (f m).Timing.walls) runs in
      Timing.of_walls
        (Array.init (Array.length (f first).Timing.walls) (fun r ->
             Stats.mean (Array.of_list (List.map (fun w -> w.(r)) walls))))
    in
    Some
      {
        first with
        nt = mean (fun m -> m.nt);
        et = mean (fun m -> m.et);
        ft = mean (fun m -> m.ft);
        per_rate =
          List.mapi
            (fun i r0 ->
              {
                r0 with
                st_time = mean (fun m -> (List.nth m.per_rate i).st_time);
                su_time = mean (fun m -> (List.nth m.per_rate i).su_time);
                so_time = mean (fun m -> (List.nth m.per_rate i).so_time);
              })
            first.per_rate;
      }

(* The (profile × seed) grid is embarrassingly parallel: one pool over all
   cells, merged back per profile in seed order.  Caveat for [jobs > 1]:
   concurrent cells contend for cores, so absolute wall-clock numbers
   inflate — use parallel runs for detection counts and work metrics (which
   are deterministic) or for quick relative comparisons, and [jobs = 1] for
   publishable latency figures. *)
let run_all ?repeats ?rates ?seed ?clock_size ?(nseeds = 1) ?(jobs = 1)
    ?(on_error = Ft_par.warn_stderr) ?report ?(profiles = Db_sim.profiles) ~target_events () =
  let base = Option.value seed ~default:1 in
  let nseeds = Stdlib.max 1 nseeds in
  let profs = Array.of_list profiles in
  let tasks =
    Array.init (Array.length profs * nseeds) (fun i -> (i / nseeds, i mod nseeds))
  in
  let cell (pi, k) =
    measure_one ?repeats ?rates ~seed:(base + k) ?clock_size ~target_events profs.(pi)
  in
  let results, stats = Ft_par.map_stats ~jobs cell tasks in
  Option.iter (fun f -> f stats) report;
  List.concat
    (List.mapi
       (fun pi (_ : Db_sim.profile) ->
         let runs = ref [] in
         for k = nseeds - 1 downto 0 do
           match results.((pi * nseeds) + k) with
           | Error e -> on_error e
           | Ok m -> runs := m :: !runs
         done;
         match aggregate !runs with None -> [] | Some m -> [ m ])
       (Array.to_list profs))

let ao m ~time = Stdlib.max 1e-9 (time -. m.et.Timing.median)

let rel_nt m (t : Timing.t) = t.Timing.median /. m.nt.Timing.median

let rate_label r = Printf.sprintf "%g%%" (100.0 *. r.rate)

let fig5a ms =
  let rates = match ms with [] -> [] | m :: _ -> m.per_rate in
  let header =
    Array.of_list
      ([ "benchmark"; "events"; "ET/NT"; "FT/NT" ]
      @ List.map (fun r -> "ST" ^ rate_label r ^ "/NT") rates)
  in
  let body =
    List.map
      (fun m ->
        Array.of_list
          ([ m.benchmark; string_of_int m.events; Tabulate.fl1 (rel_nt m m.et);
             Tabulate.fl1 (rel_nt m m.ft) ]
          @ List.map (fun r -> Tabulate.fl1 (rel_nt m r.st_time)) m.per_rate))
      ms
  in
  Tabulate.render ~header body

let improvement m ~(st : Timing.t) ~(time : Timing.t) =
  1.0 -. (ao m ~time:time.Timing.median /. ao m ~time:st.Timing.median)

let fig5b ms =
  let rates = match ms with [] -> [] | m :: _ -> m.per_rate in
  let header =
    Array.of_list
      ("benchmark"
      :: List.concat_map
           (fun r -> [ "SU" ^ rate_label r; "SO" ^ rate_label r ])
           rates)
  in
  let body =
    List.map
      (fun m ->
        Array.of_list
          (m.benchmark
          :: List.concat_map
               (fun r ->
                 [
                   Tabulate.pct (improvement m ~st:r.st_time ~time:r.su_time);
                   Tabulate.pct (improvement m ~st:r.st_time ~time:r.so_time);
                 ])
               m.per_rate))
      ms
  in
  Tabulate.render ~header body

let fig6a ms =
  let rates = match ms with [] -> [] | m :: _ -> m.per_rate in
  let header =
    Array.of_list
      ([ "benchmark"; "FT locs" ]
      @ List.concat_map
          (fun r ->
            [ "ST" ^ rate_label r; "SU" ^ rate_label r; "SO" ^ rate_label r ])
          rates)
  in
  let rel m locs =
    if m.ft_locs = 0 then "-" else Tabulate.pct (float_of_int locs /. float_of_int m.ft_locs)
  in
  let body =
    List.map
      (fun m ->
        Array.of_list
          ([ m.benchmark; string_of_int m.ft_locs ]
          @ List.concat_map
              (fun r -> [ rel m r.st_locs; rel m r.su_locs; rel m r.so_locs ])
              m.per_rate))
      ms
  in
  Tabulate.render ~header body

let fig6b ms =
  let rates = match ms with [] -> [] | m :: _ -> m.per_rate in
  let header =
    Array.of_list
      ("benchmark" :: List.map (fun r -> "SU work " ^ rate_label r) rates)
  in
  let body =
    List.map
      (fun m ->
        Array.of_list
          (m.benchmark
          :: List.map
               (fun r -> Tabulate.pct (Metrics.sync_full_work_ratio r.su_metrics))
               m.per_rate))
      ms
  in
  Tabulate.render ~header body

let fig6c ms =
  let rates = match ms with [] -> [] | m :: _ -> m.per_rate in
  let header =
    Array.of_list
      ("benchmark" :: List.map (fun r -> "SO entries/acq " ^ rate_label r) rates)
  in
  let body =
    List.map
      (fun m ->
        Array.of_list
          (m.benchmark
          :: List.map
               (fun r -> Tabulate.fl (Metrics.mean_entries_per_acquire r.so_metrics))
               m.per_rate))
      ms
  in
  Tabulate.render ~header body

let summary ms =
  match ms with
  | [] -> "(no measurements)\n"
  | first :: _ ->
    let mean f = Stats.mean (Array.of_list (List.map f ms)) in
    let buf = Buffer.create 512 in
    Buffer.add_string buf
      (Printf.sprintf "mean ET/NT = %.1fx   mean FT/NT = %.1fx\n" (mean (fun m -> rel_nt m m.et))
         (mean (fun m -> rel_nt m m.ft)));
    List.iteri
      (fun i r0 ->
        Buffer.add_string buf
          (Printf.sprintf
             "rate %-5s  ST/NT = %.1fx   AO improvement: SU %s  SO %s\n"
             (rate_label r0)
             (mean (fun m -> rel_nt m (List.nth m.per_rate i).st_time))
             (Tabulate.pct
                (mean (fun m ->
                     let r = List.nth m.per_rate i in
                     improvement m ~st:r.st_time ~time:r.su_time)))
             (Tabulate.pct
                (mean (fun m ->
                     let r = List.nth m.per_rate i in
                     improvement m ~st:r.st_time ~time:r.so_time)))))
      first.per_rate;
    Buffer.contents buf
