(* The repository benchmark: end-to-end and per-layer metrics of the
   analysis, from the paper's 3%-sampling hot path to the durable cluster.

     e2e.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
     e2e.exe --compare PARENT.jsonl CHANGE.jsonl
     e2e.exe --smoke --benchmark BENCHMARK.json

   This process generates each workload's input from the seed, then runs
   the workload in a freshly exec'd child in its own process group, which
   prints one JSON line per metric.  The lines are relayed to stdout, and
   the last line is a summary:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}} holding
   the end-to-end metrics with [--trace 0] and the per-layer ones with
   [--trace 1].  Exit status: 0 when every output matched its oracle, 2 on
   any mismatch, 1 when the benchmark itself failed. *)

module Json = Ft_obs.Json
module Clock = Ft_support.Clock
module Tb = Ft_trace.Trace_binary
open Ft_e2e
open Measure

let smoke_events = 20_000

(* It takes about a second; the limit leaves room for a loaded test run. *)
let smoke_limit_s = 15.0

(* Per workload, leaving headroom under a 180 s limit for the whole run. *)
let child_deadline_s = 165.0

let workload_or_fail name =
  match Catalog.workload name with
  | Some w -> w
  | None ->
    failwith
      (Printf.sprintf "unknown workload %S (known: %s)" name
         (String.concat ", " (List.map (fun (w : Catalog.workload) -> w.name) Catalog.workloads)))

let absolute path = if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path else path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

exception Interrupted

(* --- the child: one workload, measured ----------------------------------------- *)

let metric_line workload (m : Catalog.metric) value n =
  Json.to_string
    (Json.Obj
       [
         ("workload", Json.Str workload);
         ("metric", Json.Str m.Catalog.metric);
         ("value", Json.Float value);
         ("unit", Json.Str m.Catalog.unit);
         ("n", Json.Int n);
       ])

let child ~workload ~input ~seed ~seconds ~traced ~smoke ~out ~rundir =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> raise Interrupted));
  let w = workload_or_fail workload in
  Sys.chdir rundir;
  let s = sink w.Catalog.name in
  let budget_s = float_of_int seconds and min_reps = if smoke then 1 else 3 in
  let exe = Sys.executable_name in
  (match w.Catalog.system with
  | Catalog.Analyze -> Inproc.run s w ~seed ~ftb:input ~budget_s ~min_reps ~traced
  | Catalog.Serve | Catalog.Route _ ->
    let stats = Daemon.run s w ~exe ~seed ~ftb:input ~budget_s ~min_reps ~traced in
    if traced then
      write_file (Filename.concat out (w.Catalog.name ^ ".stats.json")) (Json.to_string_pretty stats));
  if traced then write_spans s (Filename.concat out (w.Catalog.name ^ ".spans.jsonl"));
  let wanted = Catalog.end_to_end @ Catalog.absolute @ if traced then Catalog.per_layer else [] in
  List.iter
    (fun (m : Catalog.metric) ->
      match List.filter (fun (name, _, _) -> name = m.Catalog.metric) s.metrics with
      | [ (_, value, n) ] -> print_endline (metric_line w.Catalog.name m value n)
      | l -> problem s (Printf.sprintf "%s measured %d times" m.Catalog.metric (List.length l)))
    wanted;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("workload", Json.Str w.Catalog.name);
            ("attempted", Json.Int s.attempted);
            ("failed", Json.Int s.failed);
            ("problems", Json.Arr (List.rev_map (fun p -> Json.Str p) s.problems));
          ]))

(* --- the parent: inputs, isolation, relay --------------------------------------- *)

type outcome = {
  lines : Json.t list;  (** the child's metric lines *)
  attempted : int;
  failed : int;
  problems : string list;
}

let generate (w : Catalog.workload) ~seed ~events path =
  match Ft_workloads.Db_sim.profile w.Catalog.profile with
  | None -> failwith ("unknown Db_sim profile " ^ w.Catalog.profile)
  | Some p -> Tb.to_file path (Ft_workloads.Db_sim.generate p ~seed ~target_events:events)

(* Feed complete lines read from [fd] to [on_line] until end of file;
   [false] if [deadline] passed first. *)
let read_lines fd ~deadline on_line =
  let buf = Bytes.create 65536 and pending = Buffer.create 4096 in
  let flush_lines () =
    let text = Buffer.contents pending in
    match String.rindex_opt text '\n' with
    | None -> ()
    | Some last ->
      List.iter on_line (String.split_on_char '\n' (String.sub text 0 last));
      Buffer.clear pending;
      Buffer.add_string pending (String.sub text (last + 1) (String.length text - last - 1))
  in
  let rec go () =
    let left = deadline -. Clock.now_s () in
    if left <= 0.0 then false
    else
      match Unix.select [ fd ] [] [] (Float.min left 1.0) with
      | [], _, _ -> go ()
      | _ -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 ->
          Buffer.add_char pending '\n';
          flush_lines ();
          true
        | n ->
          Buffer.add_subbytes pending buf 0 n;
          flush_lines ();
          go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let run_workload ~out ~seed ~seconds ~traced ~smoke (w : Catalog.workload) =
  let rundir = Filename.concat out (Printf.sprintf "%s.%d" w.Catalog.name (Unix.getpid ())) in
  rm_rf rundir;
  Unix.mkdir rundir 0o700;
  let child_pid = ref None in
  let stop_child () =
    match !child_pid with
    | None -> Unix.WEXITED 1
    | Some pid ->
      child_pid := None;
      (* a child still running stops its daemons on SIGTERM; the group kill
         then stops whatever a crashed or stuck child left behind *)
      let status = stop ~grace_s:10.0 pid in
      kill_quietly (-pid) Sys.sigkill;
      status
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (stop_child ());
      rm_rf rundir)
  @@ fun () ->
  let input = Filename.concat rundir "input.ftb" in
  generate w ~seed ~events:(if smoke then smoke_events else w.Catalog.events) input;
  let exe = Sys.executable_name in
  let args =
    [ exe; "--child"; w.Catalog.name; "--input"; input; "--seed"; string_of_int seed;
      "--seconds"; string_of_int seconds; "--trace"; (if traced then "1" else "0");
      "--out"; out; "--rundir"; rundir ]
    @ if smoke then [ "--smoke" ] else []
  in
  let r, wr = Unix.pipe ~cloexec:true () in
  flush_all ();
  (match Unix.fork () with
  | 0 -> (
    try
      ignore (Unix.setsid ());
      Unix.dup2 ~cloexec:false wr Unix.stdout;
      Unix.execv exe (Array.of_list args)
    with _ -> Unix._exit 127)
  | pid -> child_pid := Some pid);
  Unix.close wr;
  let lines = ref [] and check = ref None in
  let finished =
    Fun.protect ~finally:(fun () -> Unix.close r) @@ fun () ->
    read_lines r ~deadline:(Clock.now_s () +. child_deadline_s) (fun line ->
        if String.trim line <> "" then
          match Json.parse line with
          | Ok j when Json.member "metric" j <> None ->
            if not smoke then print_endline line;
            lines := j :: !lines
          | Ok j when Json.member "attempted" j <> None -> check := Some j
          | _ -> prerr_endline line)
  in
  if not finished then failwith (w.Catalog.name ^ ": no result within the deadline");
  match (stop_child (), !check) with
  | Unix.WEXITED 0, Some c ->
    let int key = Option.value (Option.bind (Json.member key c) Json.to_int) ~default:0 in
    let problems =
      match Json.member "problems" c with
      | Some (Json.Arr l) -> List.filter_map Json.to_str l
      | _ -> []
    in
    { lines = List.rev !lines; attempted = int "attempted"; failed = int "failed"; problems }
  | _ -> failwith (w.Catalog.name ^ ": the measuring process failed")

let header ~out ~seed ~seconds ~traced workloads =
  let df =
    try
      let ic = Unix.open_process_args_in "df" [| "df"; "-PT"; out |] in
      let text = In_channel.input_all ic in
      ignore (Unix.close_process_in ic);
      match String.split_on_char '\n' text with _ :: line :: _ -> line | _ -> text
    with Unix.Unix_error _ | Sys_error _ -> "unknown"
  in
  Json.to_string
    (Json.Obj
       [
         ( "header",
           Json.Obj
             [
               ("seed", Json.Int seed);
               ("seconds", Json.Int seconds);
               ("trace", Json.Int (if traced then 1 else 0));
               ("nproc", Json.Int (Domain.recommended_domain_count ()));
               ("df", Json.Str df);
               ("ocaml", Json.Str Sys.ocaml_version);
               ( "workloads",
                 Json.Arr (List.map (fun (w : Catalog.workload) -> Json.Str w.Catalog.name) workloads)
               );
             ] );
       ])

let value_of line = Option.bind (Json.member "value" line) Json.to_float
let str_of key line = Option.value (Option.bind (Json.member key line) Json.to_str) ~default:""

(* The summary, always the last line of standard output.  A single
   workload names its metrics plainly; several are prefixed with the
   workload. *)
let summary ~traced results =
  let wanted = if traced then Catalog.per_layer else Catalog.end_to_end in
  let single = List.length results = 1 in
  let metrics =
    List.concat_map
      (fun ((w : Catalog.workload), o) ->
        List.map
          (fun (m : Catalog.metric) ->
            match List.find_opt (fun l -> str_of "metric" l = m.Catalog.metric) o.lines with
            | None -> failwith (Printf.sprintf "%s: %s was not measured" w.Catalog.name m.Catalog.metric)
            | Some l ->
              let key = if single then m.Catalog.metric else w.Catalog.name ^ "/" ^ m.Catalog.metric in
              ( key,
                Json.Obj
                  [
                    ("value", Json.Float (Option.value (value_of l) ~default:Float.nan));
                    ("unit", Json.Str m.Catalog.unit);
                  ] ))
          wanted)
      results
  in
  let attempted = List.fold_left (fun acc (_, o) -> acc + o.attempted) 0 results
  and failed = List.fold_left (fun acc (_, o) -> acc + o.failed) 0 results in
  let correct = List.for_all (fun (_, o) -> o.failed = 0 && o.problems = []) results in
  ( correct,
    Json.to_string
      (Json.Obj
         [
           ("correct", Json.Bool correct);
           ("attempted", Json.Int attempted);
           ("failed", Json.Int failed);
           ("metrics", Json.Obj metrics);
         ]) )

let run_all ~out ~seed ~seconds ~traced ~smoke workloads =
  mkdir_p out;
  let out = absolute out in
  print_endline (header ~out ~seed ~seconds ~traced workloads);
  let results =
    List.map (fun w -> (w, run_workload ~out ~seed ~seconds ~traced ~smoke w)) workloads
  in
  List.iter
    (fun ((w : Catalog.workload), o) ->
      List.iter (fun p -> Printf.eprintf "e2e: %s: %s\n%!" w.Catalog.name p) o.problems)
    results;
  results

(* --- smoke: every listed metric, once, finite, on a small input ----------------- *)

let smoke ~benchmark =
  let started = Clock.now_s () in
  let j =
    match Json.parse (In_channel.with_open_bin benchmark In_channel.input_all) with
    | Ok j -> j
    | Error msg -> failwith (benchmark ^ ": " ^ msg)
  in
  (match Catalog.check_benchmark_json j with
  | [] -> ()
  | errors -> failwith (benchmark ^ " disagrees with the catalog: " ^ String.concat "; " errors));
  let listed =
    List.concat_map
      (fun key ->
        match Json.member key j with
        | Some (Json.Arr l) -> List.filter_map (fun o -> Option.bind (Json.member "name" o) Json.to_str) l
        | _ -> [])
      [ "end_to_end"; "per_layer" ]
  in
  let out = Filename.temp_dir "e2e-smoke" "" in
  Fun.protect ~finally:(fun () -> rm_rf out) @@ fun () ->
  let results = run_all ~out ~seed:7 ~seconds:0 ~traced:true ~smoke:true Catalog.workloads in
  let errors =
    List.concat_map
      (fun ((w : Catalog.workload), o) ->
        let wrong =
          List.filter_map
            (fun name ->
              match List.filter (fun l -> str_of "metric" l = name) o.lines with
              | [ l ] when Option.fold ~none:false ~some:Float.is_finite (value_of l) -> None
              | [ _ ] -> Some (Printf.sprintf "%s: %s is not finite" w.Catalog.name name)
              | l -> Some (Printf.sprintf "%s: %s printed %d times" w.Catalog.name name (List.length l)))
            listed
        in
        if o.failed > 0 || o.problems <> [] then
          (w.Catalog.name ^ ": " ^ String.concat "; " o.problems) :: wrong
        else wrong)
      results
  in
  if errors <> [] then failwith (String.concat "\n" errors);
  let took = Clock.now_s () -. started in
  if took > smoke_limit_s then failwith (Printf.sprintf "smoke took %.1fs" took);
  Printf.printf "smoke: %d workloads, every metric once and finite, %.1fs\n"
    (List.length results) took

(* --- compare: the pairwise rule over two files of runs -------------------------- *)

let load_runs path =
  let tbl = Hashtbl.create 64 and order = ref [] in
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
         match Json.parse line with
         | Ok l when Json.member "metric" l <> None -> (
           let key = (str_of "workload" l, str_of "metric" l) in
           match value_of l with
           | Some v ->
             if not (Hashtbl.mem tbl key) then order := key :: !order;
             Hashtbl.replace tbl key (v :: Option.value (Hashtbl.find_opt tbl key) ~default:[])
           | None -> ())
         | _ -> ());
  (tbl, List.rev !order)

let compare_files parent change =
  let p, order = load_runs parent and c, _ = load_runs change in
  let regressions = ref 0 in
  List.iter
    (fun ((workload, name) as key) ->
      match (Catalog.find_metric name, Hashtbl.find_opt c key) with
      | Some m, Some cv ->
        let runs k = Array.of_list (List.rev k) in
        let r =
          Stats.compare_runs ~better:m.Catalog.better ~bound:m.Catalog.bound
            ~parent:(runs (Hashtbl.find p key)) ~change:(runs cv)
        in
        if r.Stats.verdict = Stats.Regression then incr regressions;
        print_endline
          (Json.to_string
             (Json.Obj
                [
                  ("workload", Json.Str workload);
                  ("metric", Json.Str name);
                  ("pairs", Json.Int r.Stats.pairs);
                  ("wins", Json.Int r.Stats.wins);
                  ("losses", Json.Int r.Stats.losses);
                  ("parent_median", Json.Float r.Stats.parent_median);
                  ("change_median", Json.Float r.Stats.change_median);
                  ("parent_iqr", Json.Float r.Stats.parent_iqr);
                  ("change_iqr", Json.Float r.Stats.change_iqr);
                  ("verdict", Json.Str (Stats.verdict_name r.Stats.verdict));
                ]))
      | _ -> ())
    order;
  if !regressions > 0 then exit 1

(* --- command line --------------------------------------------------------------- *)

let () =
  let workload = ref None and seed = ref 7 and seconds = ref 20 and trace = ref 0 in
  let out = ref "_e2e" and compare = ref None and smoke_run = ref false in
  let benchmark = ref "BENCHMARK.json" in
  let child_of = ref None and input = ref "" and rundir = ref "" in
  let daemon_of = ref None and dir = ref "" in
  let set r = Arg.String (fun v -> r := Some v) in
  let pair = ref [] in
  let spec =
    [
      ("--workload", set workload, "W  run only this workload (default: all)");
      ("--seed", Arg.Set_int seed, "N  seed of the trace generator and the sampler (7)");
      ("--seconds", Arg.Set_int seconds, "S  measuring time per workload (20)");
      ("--trace", Arg.Set_int trace, "0|1  summarise end-to-end (0) or per-layer (1) metrics");
      ("--out", Arg.Set_string out, "DIR  scratch space, spans and STATS (_e2e)");
      ( "--compare",
        Arg.Tuple [ Arg.String (fun p -> pair := [ p ]); Arg.String (fun c -> pair := !pair @ [ c ]) ],
        "PARENT CHANGE  judge two files of metric lines by the pairwise rule" );
      ("--smoke", Arg.Set smoke_run, "  small inputs, one rep each; check every metric prints");
      ("--benchmark", Arg.Set_string benchmark, "FILE  BENCHMARK.json checked by --smoke");
      ("--child", set child_of, "");
      ("--input", Arg.Set_string input, "");
      ("--rundir", Arg.Set_string rundir, "");
      ("--daemon", set daemon_of, "");
      ("--dir", Arg.Set_string dir, "");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "e2e.exe [options]";
  if !pair <> [] then compare := Some !pair;
  let interrupted _ = raise Interrupted in
  try
    match (!daemon_of, !child_of, !compare) with
    | Some name, _, _ -> Daemon.serve_forever (workload_or_fail name) ~seed:!seed !dir
    | None, Some name, _ ->
      child ~workload:name ~input:!input ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
        ~smoke:!smoke_run ~out:!out ~rundir:!rundir
    | None, None, Some [ parent; change ] -> compare_files parent change
    | None, None, Some _ -> failwith "--compare takes two files"
    | None, None, None ->
      Sys.set_signal Sys.sigint (Sys.Signal_handle interrupted);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle interrupted);
      if !smoke_run then smoke ~benchmark:!benchmark
      else begin
        if !seconds < 0 || (!trace <> 0 && !trace <> 1) then
          failwith "--seconds must be non-negative and --trace 0 or 1";
        let workloads =
          match !workload with None -> Catalog.workloads | Some n -> [ workload_or_fail n ]
        in
        let results =
          run_all ~out:!out ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) ~smoke:false
            workloads
        in
        let correct, line = summary ~traced:(!trace = 1) results in
        print_endline line;
        if not correct then exit 2
      end
  with
  | Interrupted ->
    prerr_endline "e2e: interrupted";
    exit 130
  | Failure msg | Sys_error msg ->
    prerr_endline ("e2e: " ^ msg);
    exit 1
