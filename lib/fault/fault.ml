module Prng = Ft_support.Prng

type kind = Exn | Partial_io | Torn_write | Delay

let kind_to_string = function
  | Exn -> "exn"
  | Partial_io -> "partial_io"
  | Torn_write -> "torn_write"
  | Delay -> "delay"

let kind_of_string = function
  | "exn" -> Some Exn
  | "partial_io" -> Some Partial_io
  | "torn_write" -> Some Torn_write
  | "delay" -> Some Delay
  | _ -> None

type incident = { point : string; lane : int; kind : kind; hit : int; ordinal : int }

exception Injected of incident

let describe i =
  Printf.sprintf "fault #%d: point=%s lane=%d kind=%s hit=%d" i.ordinal i.point i.lane
    (kind_to_string i.kind) i.hit

let () =
  Printexc.register_printer (function
    | Injected i -> Some ("Fault.Injected (" ^ describe i ^ ")")
    | _ -> None)

type config = {
  seed : int;
  prob : float;
  points : string list option;
  kinds : kind list option;
  max_fires : int option;
  delay_s : float;
  log : bool;
}

let default ~seed =
  { seed; prob = 0.01; points = None; kinds = None; max_fires = None;
    delay_s = 0.001; log = false }

let spec_of_config c =
  let opts =
    (if c.prob <> 0.01 then [ Printf.sprintf "p=%g" c.prob ] else [])
    @ (match c.points with
      | None -> []
      | Some ps -> [ "points=" ^ String.concat "+" ps ])
    @ (match c.kinds with
      | None -> []
      | Some ks -> [ "kinds=" ^ String.concat "+" (List.map kind_to_string ks) ])
    @ (match c.max_fires with None -> [] | Some n -> [ Printf.sprintf "max=%d" n ])
    @ if c.delay_s <> 0.001 then [ Printf.sprintf "delay=%g" c.delay_s ] else []
  in
  match opts with
  | [] -> string_of_int c.seed
  | _ -> string_of_int c.seed ^ ":" ^ String.concat "," opts

let parse s =
  let seed_str, opts =
    match String.index_opt s ':' with
    | None -> (s, "")
    | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  match int_of_string_opt (String.trim seed_str) with
  | None -> Error (Printf.sprintf "--chaos: %S is not an integer seed" seed_str)
  | Some seed ->
    let init = { (default ~seed) with log = true } in
    let parse_opt acc opt =
      match acc with
      | Error _ as e -> e
      | Ok c -> (
        match String.index_opt opt '=' with
        | None -> Error (Printf.sprintf "--chaos: option %S is not key=value" opt)
        | Some i ->
          let key = String.sub opt 0 i in
          let v = String.sub opt (i + 1) (String.length opt - i - 1) in
          (match key with
          | "p" -> (
            match float_of_string_opt v with
            | Some p when p >= 0.0 && p <= 1.0 -> Ok { c with prob = p }
            | _ -> Error (Printf.sprintf "--chaos: p=%S is not a probability" v))
          | "points" -> (
            match String.split_on_char '+' v with
            | [] | [ "" ] -> Error "--chaos: empty points list"
            | ps -> Ok { c with points = Some ps })
          | "kinds" -> (
            let ks = List.map kind_of_string (String.split_on_char '+' v) in
            if List.exists Option.is_none ks then
              Error (Printf.sprintf "--chaos: unknown kind in %S" v)
            else Ok { c with kinds = Some (List.filter_map Fun.id ks) })
          | "max" -> (
            match int_of_string_opt v with
            | Some n when n >= 0 -> Ok { c with max_fires = Some n }
            | _ -> Error (Printf.sprintf "--chaos: max=%S is not a count" v))
          | "delay" -> (
            match float_of_string_opt v with
            | Some d when d >= 0.0 -> Ok { c with delay_s = d }
            | _ -> Error (Printf.sprintf "--chaos: delay=%S is not a duration" v))
          | _ -> Error (Printf.sprintf "--chaos: unknown option %S" key)))
    in
    if opts = "" then Ok init
    else List.fold_left parse_opt (Ok init) (String.split_on_char ',' opts)

(* --- armed state ----------------------------------------------------------- *)

type mode =
  | Schedule of config
  | Exact of { point : string; lane : int; hit : int; kind : kind; mutable done_ : bool }

(* The fast-path guard: checked with one atomic load before anything else,
   so a disarmed binary pays nothing at its injection points. *)
let armed_flag = Atomic.make false

let mu = Mutex.create ()

(* All of the below are guarded by [mu]. *)
let mode : mode option ref = ref None
let hits : (string * int, int ref) Hashtbl.t = Hashtbl.create 32
let checks_n = ref 0
let fired_n = ref 0
let log_rev : incident list ref = ref []

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let reset_counters () =
  Hashtbl.reset hits;
  checks_n := 0;
  fired_n := 0;
  log_rev := []

let arm c =
  locked (fun () ->
      reset_counters ();
      mode := Some (Schedule c);
      Atomic.set armed_flag true)

let arm_exact ?(lane = 0) ~point ~hit kind =
  locked (fun () ->
      reset_counters ();
      mode := Some (Exact { point; lane; hit; kind; done_ = false });
      Atomic.set armed_flag true)

let disarm () =
  locked (fun () ->
      mode := None;
      Atomic.set armed_flag false)

let armed () = Atomic.get armed_flag

let fired () = locked (fun () -> !fired_n)
let checks () = locked (fun () -> !checks_n)
let incidents () = locked (fun () -> List.rev !log_rev)

(* --- the per-hit draw ------------------------------------------------------ *)

let fnv s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

(* A fresh splitmix stream per (seed, point, lane, hit): whether this hit
   fires is a pure function of those four values, independent of how other
   points or lanes interleave — the replayability invariant. *)
let hit_prng ~seed ~pt ~lane ~hit =
  let z =
    Int64.logxor
      (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L)
      (Int64.logxor (fnv pt)
         (Int64.logxor
            (Int64.mul (Int64.of_int lane) 0xBF58476D1CE4E5B9L)
            (Int64.mul (Int64.of_int hit) 0x94D049BB133111EBL)))
  in
  Prng.create ~seed:(Int64.to_int z land max_int)

(* Under [mu]: decide whether this hit fires and with which kind.  Returns
   the incident plus the drawing stream (for fault magnitudes). *)
let decide ~pt ~lane ~supports =
  match !mode with
  | None -> None
  | Some (Exact e) ->
    incr checks_n;
    let h = Hashtbl.find_opt hits (pt, lane) in
    let h = match h with Some r -> r | None -> let r = ref 0 in Hashtbl.add hits (pt, lane) r; r in
    incr h;
    if (not e.done_) && e.point = pt && e.lane = lane && e.hit = !h then begin
      e.done_ <- true;
      incr fired_n;
      let inc = { point = pt; lane; kind = e.kind; hit = !h; ordinal = !fired_n } in
      log_rev := inc :: !log_rev;
      Some (inc, hit_prng ~seed:0 ~pt ~lane ~hit:!h, false)
    end
    else None
  | Some (Schedule c) ->
    incr checks_n;
    let h = Hashtbl.find_opt hits (pt, lane) in
    let h = match h with Some r -> r | None -> let r = ref 0 in Hashtbl.add hits (pt, lane) r; r in
    incr h;
    let in_points = match c.points with None -> true | Some ps -> List.mem pt ps in
    let budget_ok = match c.max_fires with None -> true | Some m -> !fired_n < m in
    if not (in_points && budget_ok && c.prob > 0.0) then None
    else begin
      let allowed =
        match c.kinds with
        | None -> supports
        | Some ks -> List.filter (fun k -> List.mem k ks) supports
      in
      if allowed = [] then None
      else begin
        let p = hit_prng ~seed:c.seed ~pt ~lane ~hit:!h in
        if Prng.float p 1.0 >= c.prob then None
        else begin
          let kind = List.nth allowed (Prng.int p (List.length allowed)) in
          incr fired_n;
          let inc = { point = pt; lane; kind; hit = !h; ordinal = !fired_n } in
          log_rev := inc :: !log_rev;
          Some (inc, p, c.log)
        end
      end
    end

let delay_base () =
  locked (fun () ->
      match !mode with Some (Schedule c) -> c.delay_s | _ -> 0.001)

let fire_common (inc, p, log) =
  if log then Printf.eprintf "[chaos] %s\n%!" (describe inc);
  match inc.kind with
  | Delay ->
    Unix.sleepf (delay_base () *. (0.5 +. Prng.float p 1.0));
    None
  | Exn -> raise (Injected inc)
  | Partial_io | Torn_write -> Some (inc, p)

let check ~lane ~supports pt =
  if not (Atomic.get armed_flag) then None
  else
    match locked (fun () -> decide ~pt ~lane ~supports) with
    | None -> None
    | Some d -> fire_common d

let point ?(lane = 0) ?(supports = [ Exn; Delay ]) pt =
  match check ~lane ~supports pt with
  | None -> ()
  | Some (inc, _) ->
    (* a sized kind fired at a size-less point: degrade to Exn *)
    raise (Injected inc)

let io_len ?(lane = 0) pt n =
  match check ~lane ~supports:[ Exn; Partial_io; Delay ] pt with
  | None -> n
  | Some (_, p) -> if n <= 1 then n else 1 + Prng.int p (n - 1)

let torn_len ?(lane = 0) pt n =
  match check ~lane ~supports:[ Exn; Torn_write; Delay ] pt with
  | None -> None
  | Some (inc, p) ->
    if n < 1 then None else Some (Prng.int p n, Injected inc)
