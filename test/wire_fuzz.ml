(* Seeded fuzzing of a daemon's line protocol (its [handle_line]): random,
   truncated and bit-flipped command lines — every verb with wrong arity,
   negative or non-numeric sizes and indices, unknown verbs, and blob
   headers followed by exactly the bytes they declare.

   A model of the framing predicts each command's reply: a line that is
   blank after trimming gets none, a well-formed [SEQ] a [SEQ] line, a
   well-formed [STATS] a sized blob, and every other command one [ERR]
   line.  Commands that would act (a well-formed [SHUTDOWN], a [MIGRATE]
   of a plausible worker, a [RESIZE] by one) and blob headers declaring
   more than a few hundred bytes are drawn again; a blob is drawn again
   while its verb's decoder accepts it, so no fuzzed batch is ever
   ingested.  The command stream is a function of the seed alone, so a
   failing seed replays exactly. *)

module Prng = Ft_support.Prng
module Trace_binary = Ft_trace.Trace_binary
module Cmsg = Ft_shard.Cmsg

type reply = Silent | Err | Seq | Stats

let words =
  [| "BATCH"; "CBATCH"; "REPORT"; "RESULT"; "SEQ"; "STATS"; "SHUTDOWN"; "MIGRATE"; "RESIZE";
     "PROM"; "JSON"; "HELLO"; "batch"; "" |]

let args =
  [| "0"; "1"; "7"; "42"; "-1"; "-300"; "+1"; "0x10"; "1_0"; "abc"; "NaN"; "";
     "99999999999999999999"; "-99999999999999999999"; "PROM"; "JSON"; "1.5" |]

let random_line g =
  let verb = Prng.pick g words in
  let arity = Prng.int g 5 in
  let sep () = if Prng.int g 8 = 0 then "  " else " " in
  let b = Buffer.create 32 in
  if Prng.int g 10 = 0 then Buffer.add_string b " \t";
  Buffer.add_string b verb;
  for _ = 1 to arity do
    Buffer.add_string b (sep ());
    Buffer.add_string b (Prng.pick g args)
  done;
  let line = Buffer.contents b in
  match Prng.int g 4 with
  | 0 when line <> "" -> String.sub line 0 (Prng.int g (String.length line))  (* truncated *)
  | 1 when line <> "" ->
    (* one bit flipped *)
    let bytes = Bytes.of_string line in
    let i = Prng.int g (Bytes.length bytes) in
    Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor (1 lsl Prng.int g 8)));
    Bytes.to_string bytes
  | _ -> line

let decodes verb payload =
  match verb with
  | "BATCH" -> Result.is_ok (Trace_binary.of_bytes (Bytes.of_string payload))
  | _ -> Result.is_ok (Cmsg.decode payload)

(* The bytes of one command and its predicted reply, or [None] to draw
   again. *)
let classify g ~blob_verbs line =
  if String.contains line '\n' then None
  else
    match String.split_on_char ' ' (String.trim line) with
    | [ "" ] -> Some (line ^ "\n", Silent)
    | [ v; base; n ] when List.mem v blob_verbs -> (
      match (int_of_string_opt base, int_of_string_opt n) with
      | Some _, Some n when n >= 0 ->
        if n > 512 then None
        else
          let rec payload () =
            let p = String.init n (fun _ -> Char.chr (Prng.int g 256)) in
            if decodes v p then payload () else p
          in
          Some (line ^ "\n" ^ payload (), Err)
      | _ -> Some (line ^ "\n", Err))
    | [ "SEQ" ] -> Some (line ^ "\n", Seq)
    | "STATS" :: ([] | [ "PROM" ] | [ "JSON" ]) -> Some (line ^ "\n", Stats)
    | [ "SHUTDOWN" ] -> None
    | [ "MIGRATE"; k ] when (match int_of_string_opt k with Some k -> k >= 0 && k < 8 | None -> false) -> None
    | [ "RESIZE"; d ] when (match int_of_string_opt d with Some (1 | -1) -> true | _ -> false) -> None
    | _ -> Some (line ^ "\n", Err)

let rec command g ~blob_verbs =
  match classify g ~blob_verbs (random_line g) with
  | Some c -> c
  | None -> command g ~blob_verbs

(* Blocking reads under one deadline; the descriptor's receive timeout only
   sets how often the deadline is checked. *)
let rec read_some fd buf off len ~deadline =
  match Unix.read fd buf off len with
  | 0 -> failwith "daemon closed the connection"
  | k -> k
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    if Unix.gettimeofday () > deadline then failwith "no reply before the deadline"
    else read_some fd buf off len ~deadline

let read_line fd ~deadline =
  let b = Buffer.create 64 and one = Bytes.create 1 in
  let rec go () =
    ignore (read_some fd one 0 1 ~deadline);
    if Bytes.get one 0 = '\n' then Buffer.contents b
    else begin
      Buffer.add_char b (Bytes.get one 0);
      go ()
    end
  in
  go ()

let read_exactly fd n ~deadline =
  let b = Bytes.create n in
  let off = ref 0 in
  while !off < n do
    off := !off + read_some fd b !off (n - !off) ~deadline
  done

let starts_with p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* [count] commands in pipelined groups of one to eight, each group's
   replies read and checked in order, then a sentinel [SEQ] that must be
   the very next reply.  [blob_verbs]: the verbs whose header is followed
   by a sized payload on this daemon. *)
let run ~seed ~count ~blob_verbs fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.05;
  let g = Prng.create ~seed in
  let sent = ref 0 in
  let check i (text, want) =
    let deadline = Unix.gettimeofday () +. 10.0 in
    let fail got = Alcotest.failf "seed %d, command %d %S: %s" seed i text got in
    match want with
    | Silent -> ()
    | Err | Seq -> (
      match read_line fd ~deadline with
      | line when starts_with (if want = Err then "ERR " else "SEQ ") line -> ()
      | line -> fail ("unexpected reply " ^ line)
      | exception Failure msg -> fail msg)
    | Stats -> (
      match String.split_on_char ' ' (read_line fd ~deadline) with
      | [ "STATS"; n ] when int_of_string_opt n <> None ->
        read_exactly fd (int_of_string n) ~deadline
      | words -> fail ("unexpected reply " ^ String.concat " " words)
      | exception Failure msg -> fail msg)
  in
  while !sent < count do
    let group = List.init (1 + Prng.int g 8) (fun _ -> command g ~blob_verbs) in
    Ft_shard.Evloop.write_all fd (String.concat "" (List.map fst group));
    List.iteri (fun j c -> check (!sent + j) c) group;
    sent := !sent + List.length group
  done;
  Ft_shard.Evloop.write_all fd "SEQ\n";
  check !sent ("SEQ\n", Seq)
