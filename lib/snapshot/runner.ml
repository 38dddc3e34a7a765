module Detector = Ft_core.Detector
module Engine = Ft_core.Engine
module Sampler = Ft_core.Sampler
module Snap = Ft_core.Snap
module Trace = Ft_trace.Trace
module Tb = Ft_trace.Trace_binary

type outcome = {
  result : Detector.result;
  resumed_at : int option;
  resume_error : string option;
  checkpoints_written : int;
}

let validate_meta (m : Checkpoint.meta) ~engine ~sampler ~nthreads ~nlocks ~nlocs
    ~clock_size ~nevents =
  if m.Checkpoint.engine <> engine then
    Error
      (Printf.sprintf "checkpoint was taken by engine %s, not %s"
         (Engine.name m.Checkpoint.engine) (Engine.name engine))
  else if m.Checkpoint.sampler <> Sampler.name sampler then
    Error
      (Printf.sprintf "checkpoint was taken with sampler %s, not %s" m.Checkpoint.sampler
         (Sampler.name sampler))
  else if
    m.Checkpoint.nthreads <> nthreads
    || m.Checkpoint.nlocks <> nlocks
    || m.Checkpoint.nlocs <> nlocs
  then Error "checkpoint universe does not match the trace"
  else if m.Checkpoint.clock_size <> clock_size then
    Error "checkpoint clock size does not match"
  else if m.Checkpoint.next_index > nevents then
    Error "checkpoint lies beyond the end of the trace"
  else Ok ()

(* One checkpoint write, shared by both loops.  A failed write — an
   injected fault, a missing directory, a full disk — never fails the
   analysis: [Checkpoint.save] leaves the previous good file in place, so
   the only cost is a longer replay after a crash.  Answers the number of
   files written, 0 or 1. *)
let save_checkpoint cp_path ~engine (config : Detector.config) ~next_index ~byte_offset
    detector =
  let meta =
    {
      Checkpoint.engine;
      sampler = Sampler.name config.Detector.sampler;
      nthreads = config.Detector.nthreads;
      nlocks = config.Detector.nlocks;
      nlocs = config.Detector.nlocs;
      clock_size = config.Detector.clock_size;
      next_index;
      byte_offset;
    }
  in
  match Checkpoint.save cp_path { Checkpoint.meta; detector } with
  | () -> 1
  | exception ((Ft_fault.Fault.Injected _ | Sys_error _ | Unix.Unix_error _) as e) ->
    Printf.eprintf "racedet: checkpoint write failed (%s); continuing\n%!"
      (Printexc.to_string e);
    0

let warn_fallback cp_path msg =
  Printf.eprintf "warning: cannot resume from %s: %s; replaying from the start\n%!" cp_path
    msg

let analyze_file ~engine ?(sampler = Sampler.all) ?clock_size
    ?checkpoint ?(checkpoint_every = 0) ?resume path =
  match (try Ok (open_in_bin path) with Sys_error msg -> Error msg) with
  | Error msg -> Error msg
  | Ok ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    (match Tb.open_channel ic with
    | Error msg -> Error msg
    | Ok reader ->
      let h = Tb.header reader in
      let nthreads = h.Tb.nthreads
      and nlocks = h.Tb.nlocks
      and nlocs = h.Tb.nlocs
      and nevents = h.Tb.nevents in
      let clock_size = Option.value clock_size ~default:nthreads in
      if clock_size < nthreads then Error "clock size below thread count"
      else begin
        let config = { Detector.nthreads; nlocks; nlocs; clock_size; sampler } in
        let (module D : Detector.S) = Engine.detector engine in
        let data_start = Tb.byte_pos reader in
        let try_resume cp_path =
          match Checkpoint.load cp_path with
          | Error _ as e -> e
          | Ok cp -> (
            let m = cp.Checkpoint.meta in
            match
              validate_meta m ~engine ~sampler ~nthreads ~nlocks ~nlocs ~clock_size
                ~nevents
            with
            | Error _ as e -> e
            | Ok () -> (
              match
                try Ok (D.restore config cp.Checkpoint.detector)
                with Snap.Corrupt msg -> Error ("corrupt checkpoint payload: " ^ msg)
              with
              | Error _ as e -> e
              | Ok st -> (
                let positioned =
                  if m.Checkpoint.byte_offset >= 0 then
                    Tb.seek reader ~byte_offset:m.Checkpoint.byte_offset
                      ~next_index:m.Checkpoint.next_index
                  else begin
                    (* no recorded offset: decode and discard the prefix *)
                    let rec skip () =
                      if Tb.events_read reader >= m.Checkpoint.next_index then Ok ()
                      else
                        match Tb.next reader with
                        | Error msg -> Error msg
                        | Ok None -> Error "checkpoint lies beyond the end of the trace"
                        | Ok (Some _) -> skip ()
                    in
                    skip ()
                  end
                in
                match positioned with
                | Error _ as e -> e
                | Ok () -> Ok (st, m.Checkpoint.next_index))))
        in
        let prepared =
          match resume with
          | None -> Ok (D.create config, None, None)
          | Some cp_path -> (
            match try_resume cp_path with
            | Ok (st, idx) -> Ok (st, Some idx, None)
            | Error msg -> (
              warn_fallback cp_path msg;
              (* a failed prefix skip may have consumed events: rewind *)
              match Tb.seek reader ~byte_offset:data_start ~next_index:0 with
              | Error m2 -> Error ("cannot rewind for full replay: " ^ m2)
              | Ok () -> Ok (D.create config, None, Some msg)))
        in
        match prepared with
        | Error msg -> Error msg
        | Ok (state, resumed_at, resume_error) -> (
          let written = ref 0 in
          let write_checkpoint ~next_index ~byte_offset =
            match checkpoint with
            | None -> ()
            | Some cp_path ->
              written :=
                !written
                + save_checkpoint cp_path ~engine config ~next_index ~byte_offset
                    (D.snapshot state)
          in
          (* batch-decoded hot loop: no per-event boxing between the wire
             and [D.handle].  [Tb.batch_end] gives the byte offset after
             each event, so checkpoint cadence is independent of where
             batch boundaries fall. *)
          let batch = Tb.create_batch () in
          let rec loop () =
            match Tb.read_batch reader batch with
            | Error msg -> Error msg
            | Ok 0 -> Ok ()
            | Ok n ->
              let start = Tb.events_read reader - n in
              for j = 0 to n - 1 do
                D.handle state (start + j) (Tb.batch_event batch j);
                let idx = start + j + 1 in
                (* no checkpoint at the very end: it could not shorten anything *)
                if checkpoint_every > 0 && idx mod checkpoint_every = 0 && idx < nevents
                then write_checkpoint ~next_index:idx ~byte_offset:(Tb.batch_end batch j)
              done;
              loop ()
          in
          match loop () with
          | Error msg -> Error msg
          | Ok () ->
            Ok
              {
                result = D.result state;
                resumed_at;
                resume_error;
                checkpoints_written = !written;
              })
      end)

let analyze_trace ~engine ?(sampler = Sampler.all) ?clock_size
    ?checkpoint ?(checkpoint_every = 0) ?resume trace =
  let nthreads = trace.Trace.nthreads
  and nlocks = trace.Trace.nlocks
  and nlocs = trace.Trace.nlocs in
  let nevents = Trace.length trace in
  let clock_size = Option.value clock_size ~default:nthreads in
  if clock_size < nthreads then Error "clock size below thread count"
  else begin
    let config = { Detector.nthreads; nlocks; nlocs; clock_size; sampler } in
    let (module D : Detector.S) = Engine.detector engine in
    let try_resume cp_path =
      match Checkpoint.load cp_path with
      | Error _ as e -> e
      | Ok cp -> (
        let m = cp.Checkpoint.meta in
        match
          validate_meta m ~engine ~sampler ~nthreads ~nlocks ~nlocs ~clock_size ~nevents
        with
        | Error _ as e -> e
        | Ok () -> (
          match
            try Ok (D.restore config cp.Checkpoint.detector)
            with Snap.Corrupt msg -> Error ("corrupt checkpoint payload: " ^ msg)
          with
          | Error _ as e -> e
          | Ok st -> Ok (st, m.Checkpoint.next_index)))
    in
    let state, start, resumed_at, resume_error =
      match resume with
      | None -> (D.create config, 0, None, None)
      | Some cp_path -> (
        match try_resume cp_path with
        | Ok (st, idx) -> (st, idx, Some idx, None)
        | Error msg ->
          warn_fallback cp_path msg;
          (D.create config, 0, None, Some msg))
    in
    let written = ref 0 in
    for i = start to nevents - 1 do
      D.handle state i (Trace.get trace i);
      match checkpoint with
      | Some cp_path when checkpoint_every > 0 && (i + 1) mod checkpoint_every = 0
                          && i + 1 < nevents ->
        written :=
          !written
          + save_checkpoint cp_path ~engine config ~next_index:(i + 1) ~byte_offset:(-1)
              (D.snapshot state)
      | Some _ | None -> ()
    done;
    Ok
      {
        result = D.result state;
        resumed_at;
        resume_error;
        checkpoints_written = !written;
      }
  end
