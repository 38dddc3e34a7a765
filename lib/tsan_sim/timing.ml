module Clock = Ft_support.Clock
module Stats = Ft_support.Stats

type t = { walls : float array; median : float; q1 : float; q3 : float }

let of_walls walls =
  {
    walls;
    median = Stats.median walls;
    q1 = Stats.percentile walls 25.0;
    q3 = Stats.percentile walls 75.0;
  }

let run ~rounds thunks =
  if rounds <= 0 then invalid_arg "Timing.run: rounds must be positive";
  let n = Array.length thunks in
  let walls = Array.init n (fun _ -> Array.make rounds 0.0) in
  for r = 0 to rounds - 1 do
    for k = 0 to n - 1 do
      let i = if r mod 2 = 0 then k else n - 1 - k in
      let t0 = Clock.now_ns () in
      thunks.(i) ();
      walls.(i).(r) <- Clock.elapsed_s ~since:t0
    done
  done;
  Array.map of_walls walls
