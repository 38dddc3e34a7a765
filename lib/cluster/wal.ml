(* Routed-event write-ahead log: [len:4 LE][fnv64(payload):8 LE][payload].
   The payload is a Snap varint encoding; the checksum primitive is the
   same FNV-1a 64 the .ftc container uses (Checkpoint.fnv64). *)

module Snap = Ft_core.Snap
module Event = Ft_trace.Event

type record =
  | Session of {
      nthreads : int;
      nlocks : int;
      nlocs : int;
      engine : string;
      sampler : string;
      workers : int;
    }
  | Events of int * Event.t array
  | Resize of int

type t = { fd : Unix.file_descr; mutable off : int }

let path ~dir = Filename.concat dir "router.wal"

let encode_record r =
  let enc = Snap.Enc.create () in
  (match r with
  | Session { nthreads; nlocks; nlocs; engine; sampler; workers } ->
      Snap.Enc.int enc 0;
      Snap.Enc.int enc nthreads;
      Snap.Enc.int enc nlocks;
      Snap.Enc.int enc nlocs;
      Snap.Enc.string enc engine;
      Snap.Enc.string enc sampler;
      Snap.Enc.int enc workers
  | Events (base, evs) ->
      Snap.Enc.int enc 1;
      Snap.Enc.int enc base;
      Snap.Enc.int enc (Array.length evs);
      Array.iter
        (fun (e : Event.t) ->
          Snap.Enc.int enc e.thread;
          Snap.Enc.int enc (Ft_shard.Cmsg.op_tag e.op);
          Snap.Enc.int enc (Ft_shard.Cmsg.op_operand e.op))
        evs
  | Resize k ->
      Snap.Enc.int enc 2;
      Snap.Enc.int enc k);
  Snap.Enc.to_snap enc

let decode_record payload =
  let dec = Snap.Dec.of_snap payload in
  let r =
    match Snap.Dec.int dec with
    | 0 ->
        let nthreads = Snap.Dec.int dec in
        let nlocks = Snap.Dec.int dec in
        let nlocs = Snap.Dec.int dec in
        let engine = Snap.Dec.string dec in
        let sampler = Snap.Dec.string dec in
        let workers = Snap.Dec.int dec in
        Session { nthreads; nlocks; nlocs; engine; sampler; workers }
    | 1 ->
        let base = Snap.Dec.int dec in
        let n = Snap.Dec.int dec in
        if n < 0 || n > String.length payload then raise (Snap.Corrupt "wal: bad event count");
        let evs =
          Array.init n (fun _ ->
              let thread = Snap.Dec.int dec in
              let tag = Snap.Dec.int dec in
              let operand = Snap.Dec.int dec in
              { Event.thread; op = Ft_shard.Cmsg.op_of ~tag ~operand })
        in
        Events (base, evs)
    | 2 -> Resize (Snap.Dec.int dec)
    | _ -> raise (Snap.Corrupt "wal: unknown record tag")
  in
  Snap.Dec.finish dec;
  r

let frame payload =
  let n = String.length payload in
  let b = Bytes.create (12 + n) in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Bytes.set_int64_le b 4 (Ft_snapshot.Checkpoint.fnv64 payload);
  Bytes.blit_string payload 0 b 12 n;
  Bytes.unsafe_to_string b

let fold_raw raw ~init f =
  let n = String.length raw in
  let rec go off acc =
    if off + 12 > n then (acc, off)
    else
      let len = Int32.to_int (String.get_int32_le raw off) in
      if len < 0 || off + 12 + len > n then (acc, off)
      else
        let payload = String.sub raw (off + 12) len in
        if
          not
            (Int64.equal
               (String.get_int64_le raw (off + 4))
               (Ft_snapshot.Checkpoint.fnv64 payload))
        then (acc, off)
        else
          match decode_record payload with
          | r ->
              let off' = off + 12 + len in
              go off' (f acc r off')
          | exception Snap.Corrupt _ -> (acc, off)
  in
  go 0 init

let decode_all raw =
  let rev, good = fold_raw raw ~init:[] (fun acc r off -> (r, off) :: acc) in
  (List.rev rev, good)

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_file p k =
  match read_file p with
  | raw -> Ok (k raw)
  | exception (Sys_error _ | Unix.Unix_error _) ->
      Error (Printf.sprintf "wal: cannot read %s" p)

let replay p = with_file p decode_all
let fold p ~init f = with_file p (fun raw -> fst (fold_raw raw ~init f))

let open_append p =
  let fd = Unix.openfile p [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644 in
  let raw = match read_file p with raw -> raw | exception _ -> "" in
  let _, good = decode_all raw in
  if good < String.length raw then begin
    Printf.eprintf "racedet: wal: truncating torn tail of %s (%d -> %d bytes)\n%!"
      p (String.length raw) good;
    Unix.ftruncate fd good
  end;
  ignore (Unix.lseek fd good Unix.SEEK_SET : int);
  { fd; off = good }

let offset t = t.off

let rec write_all fd b off len =
  if len > 0 then begin
    let n = Unix.write fd b off len in
    write_all fd b (off + n) (len - n)
  end

let append t r =
  let fr = frame (encode_record r) in
  let n = String.length fr in
  (match Ft_fault.Fault.torn_len "router.wal_write" n with
  | None -> write_all t.fd (Bytes.unsafe_of_string fr) 0 n
  | Some (keep, e) ->
      write_all t.fd (Bytes.unsafe_of_string fr) 0 keep;
      raise e);
  t.off <- t.off + n;
  n

let sync t = Unix.fsync t.fd

let rollback t =
  Unix.ftruncate t.fd t.off;
  ignore (Unix.lseek t.fd t.off Unix.SEEK_SET : int)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
