module Bases = Map.Make (Int)

type t = {
  max_parked : int;
  mutable expected : int;
  mutable parked : (int * (int -> unit)) Bases.t;  (* base -> length, feeder *)
  mutable nparked : int;
}

type verdict = Due | Park | Refuse

let create ?(expected = 0) max_parked =
  { max_parked; expected; parked = Bases.empty; nparked = 0 }

let expected t = t.expected
let parked t = t.nparked

let verdict t base =
  if base <= t.expected then Due else if t.nparked < t.max_parked then Park else Refuse

let park t ~base ~len f =
  if not (Bases.mem base t.parked) then t.nparked <- t.nparked + 1;
  t.parked <- Bases.add base (len, f) t.parked

let rec feed t ~base ~len f =
  if base > t.expected then invalid_arg "Admit.feed: batch ahead of the cursor";
  let first = t.expected - base in
  if first < len then begin
    f first;
    t.expected <- base + len
  end;
  match Bases.min_binding_opt t.parked with
  | Some (b, (l, g)) when b <= t.expected ->
    t.parked <- Bases.remove b t.parked;
    t.nparked <- t.nparked - 1;
    feed t ~base:b ~len:l g
  | _ -> ()
