(* What one workload run accumulates — metric values, correctness counts and
   spans — and the small timing and process helpers both kinds of workload
   share. *)

module Clock = Ft_support.Clock
module Json = Ft_obs.Json

(* --- spans: kept in memory, written once the run ends ------------------------- *)

type span = { id : int; parent : int option; name : string; start_ns : int64; end_ns : int64 }

type sink = {
  workload : string;
  mutable metrics : (string * float * int) list;  (** name, value, samples; newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** failed checks, for the log *)
  mutable spans : span list;
  mutable next_span : int;
}

let sink workload =
  { workload; metrics = []; attempted = 0; failed = 0; problems = []; spans = [];
    next_span = 0 }

let metric s name value ~n = s.metrics <- (name, value, n) :: s.metrics

let tally s ~attempted ~failed why =
  s.attempted <- s.attempted + attempted;
  if failed > 0 then begin
    s.failed <- s.failed + failed;
    s.problems <- why :: s.problems
  end

(* One checked operation; [Error] counts it as failed. *)
let check s (r : (unit, string) result) =
  match r with
  | Ok () -> tally s ~attempted:1 ~failed:0 ""
  | Error msg -> tally s ~attempted:1 ~failed:1 msg

(* A failed check that is not itself an operation (an oracle disagreeing with
   its cross-check): the run is incorrect even if every operation passed. *)
let problem s msg = s.problems <- msg :: s.problems

let fresh_span_id s =
  let id = s.next_span in
  s.next_span <- id + 1;
  id

(* Record a finished span.  A parent whose end is not known yet takes its id
   from [fresh_span_id] first and is recorded with [~id] once it ends. *)
let span s ?id ?parent name ~start_ns ~end_ns =
  let id = match id with Some id -> id | None -> fresh_span_id s in
  s.spans <- { id; parent; name; start_ns; end_ns } :: s.spans

let span_json sp =
  Json.Obj
    [
      ("id", Json.Int sp.id);
      ("parent", match sp.parent with None -> Json.Null | Some p -> Json.Int p);
      ("name", Json.Str sp.name);
      ("start_ns", Json.Int (Int64.to_int sp.start_ns));
      ("dur_ns", Json.Int (Int64.to_int (Int64.sub sp.end_ns sp.start_ns)));
    ]

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let write_spans s path =
  write_file path
    (String.concat "" (List.rev_map (fun sp -> Json.to_string (span_json sp) ^ "\n") s.spans))

(* --- timing ------------------------------------------------------------------- *)

let now = Clock.now_ns
let secs_between a b = Int64.to_float (Int64.sub b a) /. 1e9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, Clock.elapsed_s ~since:t0)

(* Repeat [f] until at least [min_reps] runs and [budget_s] seconds of
   wall time are both reached; returns each run's seconds in run order. *)
let reps ~min_reps ~budget_s f =
  let t0 = now () in
  let rec go acc k =
    if k >= min_reps && Clock.elapsed_s ~since:t0 >= budget_s then Array.of_list (List.rev acc)
    else go (snd (timed f) :: acc) (k + 1)
  in
  go [] 0

(* --- processes ---------------------------------------------------------------- *)

(* Peak resident set ("VmHWM") of a live process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> failwith ("no VmHWM in " ^ path)
  in
  find ()

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let kill_quietly pid signal = try Unix.kill pid signal with Unix.Unix_error _ -> ()

(* Wait for a child to exit, SIGKILLing it once [deadline_s] passes. *)
let reap ?(deadline_s = 30.0) pid =
  let until = Clock.now_s () +. deadline_s in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Clock.now_s () > until then begin
        kill_quietly pid Sys.sigkill;
        snd (Unix.waitpid [] pid)
      end
      else begin
        Unix.sleepf 0.002;
        go ()
      end
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Unix.WEXITED 1
  in
  go ()

(* Ask a child to stop — on SIGTERM the daemons drain, stop their workers
   and reap them — and reap it, with SIGKILL after [grace_s]. *)
let stop ?(grace_s = 5.0) pid =
  kill_quietly pid Sys.sigterm;
  reap ~deadline_s:grace_s pid
