type id = Djit | Fasttrack | Fasttrack_tc | St | Su | So | Sl | Sn | O1 | O1u | Eraser

let all = [ Djit; Fasttrack; Fasttrack_tc; St; Su; So; Sl; Sn; O1; O1u ]

let name = function
  | Djit -> "djit"
  | Fasttrack -> "fasttrack"
  | Fasttrack_tc -> "fasttrack-tc"
  | St -> "st"
  | Su -> "su"
  | So -> "so"
  | Sl -> "sl"
  | Sn -> "su-noskip"
  | O1 -> "o1"
  | O1u -> "o1-u"
  | Eraser -> "eraser"

let of_name = function
  | "djit" -> Some Djit
  | "fasttrack" | "ft" -> Some Fasttrack
  | "fasttrack-tc" | "ft-tc" | "tc" -> Some Fasttrack_tc
  | "st" -> Some St
  | "su" -> Some Su
  | "so" -> Some So
  | "sl" | "so-nomtf" -> Some Sl
  | "su-noskip" | "sn" -> Some Sn
  | "o1" | "o1-samples" -> Some O1
  | "o1-u" | "o1u" -> Some O1u
  | "eraser" | "lockset" -> Some Eraser
  | _ -> None

let detector : id -> Detector.packed = function
  | Djit -> (module Djitp)
  | Fasttrack -> (module Fasttrack)
  | Fasttrack_tc -> (module Fasttrack_tc)
  | St -> (module Sampling_naive)
  | Su -> (module Sampling_uclock)
  | So -> (module Sampling_ordered_list)
  | Sl -> (module Sampling_lazy)
  | Sn -> (module Sampling_uclock_noskip)
  | O1 -> (module Sampling_o1)
  | O1u -> (module Sampling_o1_uclock)
  | Eraser -> (module Lockset)

let sampling_engines = [ St; Su; So; O1; O1u ]

let honours_sampler = function
  | Djit | Fasttrack | Fasttrack_tc -> false
  | St | Su | So | Sl | Sn | O1 | O1u | Eraser -> true

let run id ?sampler ?clock_size ?limit trace =
  Detector.run (detector id) ?sampler ?clock_size ?limit trace

let run_instrumented id ?sampler ?clock_size trace =
  Detector.run_instrumented (detector id) ?sampler ?clock_size trace
