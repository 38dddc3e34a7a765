(* Order statistics over raw samples, and the pairwise rule that decides
   whether a change improved, regressed or left a metric unresolved.

   Every end-to-end percentile is an exact order statistic of the samples
   actually taken, reported with the sample count and how many samples lie
   beyond it; nothing here goes through log-bucketed histograms, whose
   quantiles are bucket edges. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

type rank = { value : float; n : int; beyond : int }

(* Nearest rank: the smallest sample with at least [p]% of the samples at
   or below it (rank ⌈p·n/100⌉, 1-based). *)
let nearest_rank xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.nearest_rank: no samples";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.nearest_rank: p outside [0, 100]";
  let a = sorted xs in
  let r = Stdlib.max 1 (int_of_float (Float.ceil (p *. float_of_int n /. 100.0))) in
  { value = a.(r - 1); n; beyond = n - r }

let median xs =
  if Array.length xs = 0 then invalid_arg "Stats.median: no samples";
  Ft_support.Stats.median xs

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] computes
   them (the default "exclusive" method), so that the spreads this tool
   prints are the ones an outside check recomputes from the same values. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quartiles: no samples";
  if ld = 1 then (a.(0), a.(0), a.(0))
  else begin
    let m = ld + 1 in
    let q i =
      let j = Stdlib.min (ld - 1) (Stdlib.max 1 (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)
  end

let iqr xs =
  let q1, _, q3 = quartiles xs in
  q3 -. q1

(* Interquartile distance as a share of the median: the run-to-run spread
   that each metric's bound is compared against. *)
let spread xs =
  let m = median xs in
  if m = 0.0 then Float.infinity else iqr xs /. Float.abs m

(* --- the pairwise rule ------------------------------------------------------ *)

type better = Higher | Lower

type verdict =
  | Gain  (** the change wins ≥ 9/10 of the pairs by more than the parent's IQR *)
  | Regression  (** the change's median is worse by more than the bound *)
  | Unresolved  (** the run-to-run spread is wider than the bound *)
  | Unchanged
  | Too_few_pairs

let verdict_name = function
  | Gain -> "gain"
  | Regression -> "regression"
  | Unresolved -> "unresolved"
  | Unchanged -> "unchanged"
  | Too_few_pairs -> "too-few-pairs"

type comparison = {
  pairs : int;
  wins : int;  (** pairs the change reads strictly better in *)
  losses : int;  (** strictly worse; ties count for neither side *)
  parent_median : float;
  change_median : float;
  parent_iqr : float;
  change_iqr : float;
  verdict : verdict;
}

let min_pairs = 10

(* [improves better a b]: does reading [a] beat reading [b]? *)
let improves better a b = match better with Higher -> a > b | Lower -> a < b

(* Runs are paired by position: the i-th parent run with the i-th change
   run, the two sides having been run alternately.  [bound] is the share of
   the parent's median by which the change may read worse; [None] (a
   per-layer metric) never yields [Regression] or [Unresolved]. *)
let compare_runs ~better ~bound ~parent ~change =
  let pairs = Stdlib.min (Array.length parent) (Array.length change) in
  let parent = Array.sub parent 0 pairs and change = Array.sub change 0 pairs in
  let wins = ref 0 and losses = ref 0 in
  for i = 0 to pairs - 1 do
    if improves better change.(i) parent.(i) then incr wins
    else if improves better parent.(i) change.(i) then incr losses
  done;
  let stat f xs = if pairs = 0 then Float.nan else f xs in
  let parent_median = stat median parent and change_median = stat median change in
  let parent_iqr = stat iqr parent and change_iqr = stat iqr change in
  let verdict =
    if pairs < min_pairs then Too_few_pairs
    else if
      10 * !wins >= 9 * pairs
      && improves better change_median parent_median
      && Float.abs (change_median -. parent_median) > parent_iqr
    then Gain
    else
      match bound with
      | None -> Unchanged
      | Some b ->
        let worse_by =
          match better with
          | Higher -> (parent_median -. change_median) /. Float.abs parent_median
          | Lower -> (change_median -. parent_median) /. Float.abs parent_median
        in
        let every_change_better =
          Array.for_all (fun c -> Array.for_all (fun p -> improves better c p) parent) change
        in
        if worse_by > b then Regression
        else if Float.max (spread parent) (spread change) > b && not every_change_better
        then Unresolved
        else Unchanged
  in
  { pairs; wins = !wins; losses = !losses; parent_median; change_median; parent_iqr;
    change_iqr; verdict }
