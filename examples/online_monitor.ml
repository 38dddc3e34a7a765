(* Live race monitoring: the §2 validator in front of a detector.

   A program under test reports events as they happen; Ft_trace.Validator
   checks each against the execution semantics (lock ownership, thread
   lifecycle) and ends the stream at the first that breaks them, the SO
   detector handles it, and a race is reported the moment it is declared —
   the deployment shape of an in-production sanitizer (§1).

     dune exec examples/online_monitor.exe *)

module Event = Ft_trace.Event
module Validator = Ft_trace.Validator
module Detector = Ft_core.Detector

let () =
  let (module D : Detector.S) = Ft_core.Engine.detector Ft_core.Engine.So in
  let det = D.create { Detector.nthreads = 3; nlocks = 1; nlocs = 2; clock_size = 3;
                       sampler = Ft_core.Sampler.all } in
  let valid = Validator.create ~nthreads:3 ~nlocks:1 and seen = ref 0 in
  let main = 0 and worker_a = 1 and worker_b = 2 and guard = 0 and counter = 0 and config = 1 in
  let step what thread op =
    let e = Event.mk thread op and before = D.races_rev det in
    (try Validator.step valid !seen e
     with Validator.Ill_formed why -> Format.printf "  %s REJECTED: %s@." what why; raise Exit);
    D.handle det !seen e;
    incr seen;
    if D.races_rev det != before then
      Format.printf "  >> live report: %a@." Ft_core.Race.pp (List.hd (D.races_rev det));
    Format.printf "  %s@." what
  in
  print_endline "simulated run:";
  (try
     step "main forks worker A" main (Event.Fork worker_a);
     step "main forks worker B" main (Event.Fork worker_b);
     step "A locks, increments the counter" worker_a (Event.Acquire guard);
     step "  A reads counter" worker_a (Event.Read counter);
     step "  A writes counter" worker_a (Event.Write counter);
     step "A unlocks" worker_a (Event.Release guard);
     step "B reads config (fine: written before the forks?)" worker_b (Event.Read config);
     step "B writes the counter WITHOUT the lock" worker_b (Event.Write counter);
     step "main writes config concurrently with B's read" main (Event.Write config);
     step "main joins A" main (Event.Join worker_a);
     step "main joins B" main (Event.Join worker_b);
     step "A acts after being joined" worker_a (Event.Write counter)
   with Exit -> ());
  let ({ Detector.metrics = m; _ } as r) = D.result det in
  Format.printf "@.%d events accepted; racy locations: %s@." !seen
    (String.concat ", " (List.map (Printf.sprintf "x%d") (Detector.racy_locations r)));
  Format.printf "detector work: %d/%d acquires skipped, %d shallow copies, %d deep copies@."
    m.Ft_core.Metrics.acquires_skipped m.acquires m.shallow_copies m.deep_copies
