let magic = "FTRB"
let version = 1

(* --- varints ------------------------------------------------------------- *)

let put_varint buf n =
  assert (n >= 0);
  let rec loop n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7F)));
      loop (n lsr 7)
    end
  in
  loop n

exception Truncated

type cursor = { data : bytes; mutable pos : int }

let get_byte c =
  if c.pos >= Bytes.length c.data then raise Truncated
  else begin
    let b = Char.code (Bytes.get c.data c.pos) in
    c.pos <- c.pos + 1;
    b
  end

let get_varint c =
  let rec loop shift acc =
    if shift > 62 then raise Truncated
    else begin
      let b = get_byte c in
      let acc = acc lor ((b land 0x7F) lsl shift) in
      if b land 0x80 = 0 then acc else loop (shift + 7) acc
    end
  in
  loop 0 0

(* --- event coding ---------------------------------------------------------- *)

let tag_of_op (op : Event.op) =
  match op with
  | Event.Read _ -> 0
  | Event.Write _ -> 1
  | Event.Acquire _ -> 2
  | Event.Release _ -> 3
  | Event.Release_store _ -> 4
  | Event.Acquire_load _ -> 5
  | Event.Fork _ -> 6
  | Event.Join _ -> 7

let payload_of_op (op : Event.op) =
  match op with
  | Event.Read x | Event.Write x -> x
  | Event.Acquire l | Event.Release l | Event.Release_store l | Event.Acquire_load l -> l
  | Event.Fork u | Event.Join u -> u

let op_of_tag tag payload =
  match tag with
  | 0 -> Ok (Event.Read payload)
  | 1 -> Ok (Event.Write payload)
  | 2 -> Ok (Event.Acquire payload)
  | 3 -> Ok (Event.Release payload)
  | 4 -> Ok (Event.Release_store payload)
  | 5 -> Ok (Event.Acquire_load payload)
  | 6 -> Ok (Event.Fork payload)
  | 7 -> Ok (Event.Join payload)
  | t -> Error (Printf.sprintf "unknown event tag %d" t)

(* --- header ----------------------------------------------------------------- *)

type header = { nthreads : int; nlocks : int; nlocs : int; nevents : int }

let header_of_trace trace =
  {
    nthreads = trace.Trace.nthreads;
    nlocks = trace.Trace.nlocks;
    nlocs = trace.Trace.nlocs;
    nevents = Trace.length trace;
  }

(* Decode one event against the header's universe.  [Ok event] or a
   description of the corruption. *)
let decode_event h head payload =
  let tag = head land 7 and thread = head lsr 3 in
  match op_of_tag tag payload with
  | Error _ as err -> err
  | Ok op ->
    if thread >= h.nthreads then Error "thread id out of range"
    else begin
      match op with
      | Event.Read x | Event.Write x ->
        if x >= h.nlocs then Error "location id out of range" else Ok (Event.mk thread op)
      | Event.Acquire l | Event.Release l | Event.Release_store l | Event.Acquire_load l ->
        if l >= h.nlocks then Error "lock id out of range" else Ok (Event.mk thread op)
      | Event.Fork u | Event.Join u ->
        if u >= h.nthreads then Error "thread operand out of range" else Ok (Event.mk thread op)
    end

(* --- encoding ---------------------------------------------------------------- *)

let add_header buf (h : header) =
  Buffer.add_string buf magic;
  put_varint buf version;
  put_varint buf h.nthreads;
  put_varint buf h.nlocks;
  put_varint buf h.nlocs;
  put_varint buf h.nevents

let add_event buf (e : Event.t) =
  put_varint buf (tag_of_op e.Event.op lor (e.Event.thread lsl 3));
  put_varint buf (payload_of_op e.Event.op)

let to_buffer trace =
  let buf = Buffer.create (4 + (3 * Trace.length trace)) in
  add_header buf (header_of_trace trace);
  Trace.iteri (fun _ e -> add_event buf e) trace;
  buf

let to_bytes trace = Buffer.to_bytes (to_buffer trace)

(* --- in-memory decoding ------------------------------------------------------ *)

(* Every event costs at least two bytes (tag/thread varint + payload
   varint), so a header whose event count exceeds half the remaining bytes
   is corrupt.  Checking this before [Array.init nevents] keeps a 10-byte
   hostile file from demanding a multi-GiB allocation. *)
let min_bytes_per_event = 2

let check_header data pos (h : header) =
  if h.nthreads <= 0 then Error "corrupt header: no threads"
  else if h.nlocks < 0 || h.nlocs < 0 || h.nevents < 0 then
    Error "corrupt header: negative dimension"
  else begin
    let remaining = Bytes.length data - pos in
    if h.nevents > remaining / min_bytes_per_event then
      Error
        (Printf.sprintf
           "corrupt header: %d events promised but only %d bytes follow (≥ %d needed)"
           h.nevents remaining (h.nevents * min_bytes_per_event))
    else Ok ()
  end

let read_header_cursor c =
  let m =
    if Bytes.length c.data < String.length magic then raise Truncated
    else Bytes.sub_string c.data 0 (String.length magic)
  in
  c.pos <- String.length magic;
  if m <> magic then Error "bad magic number (not a FreshTrack binary trace)"
  else begin
    let v = get_varint c in
    if v <> version then Error (Printf.sprintf "unsupported version %d" v)
    else begin
      let nthreads = get_varint c in
      let nlocks = get_varint c in
      let nlocs = get_varint c in
      let nevents = get_varint c in
      Ok { nthreads; nlocks; nlocs; nevents }
    end
  end

(* [of_bytes] lives below: it is the batch decoder applied to an in-memory
   reader, not a third decode path. *)

(* --- streaming reader -------------------------------------------------------- *)

(* Chunked reads from a channel: memory stays O(chunk), never O(file), so
   multi-GiB .ftb traces can be scanned event by event.  The same source
   also fronts a fully in-memory payload ([ic = None], the whole buffer
   valid up front) so network batches decode through the identical
   hardened path. *)

let default_chunk = 64 * 1024

type source = {
  ic : in_channel option;  (* [None]: in-memory, [buf] holds everything *)
  buf : bytes;
  mutable base : int;  (* channel offset of [buf.(0)] *)
  mutable pos : int;  (* next unread byte in [buf] *)
  mutable len : int;  (* valid bytes in [buf] *)
}

(* only called with the buffer exhausted ([pos >= len]), so the new base is
   exactly the old one advanced past everything consumed *)
let refill s =
  match s.ic with
  | None -> false
  | Some ic ->
    s.base <- s.base + s.len;
    let n = input ic s.buf 0 (Bytes.length s.buf) in
    s.pos <- 0;
    s.len <- n;
    n > 0

let src_byte s =
  if s.pos >= s.len && not (refill s) then raise Truncated
  else begin
    let b = Char.code (Bytes.get s.buf s.pos) in
    s.pos <- s.pos + 1;
    b
  end

let src_varint s =
  let rec loop shift acc =
    if shift > 62 then raise Truncated
    else begin
      let b = src_byte s in
      let acc = acc lor ((b land 0x7F) lsl shift) in
      if b land 0x80 = 0 then acc else loop (shift + 7) acc
    end
  in
  loop 0 0

type reader = {
  src : source;
  rheader : header;
  mutable next_index : int;  (* events already yielded *)
}

let open_channel ?(chunk_size = default_chunk) ic =
  let base = try pos_in ic with Sys_error _ -> 0 in
  let src =
    { ic = Some ic; buf = Bytes.create (Stdlib.max 16 chunk_size); base; pos = 0; len = 0 }
  in
  try
    let mbuf = Bytes.create (String.length magic) in
    for i = 0 to Bytes.length mbuf - 1 do
      Bytes.set mbuf i (Char.chr (src_byte src))
    done;
    let m = Bytes.to_string mbuf in
    if m <> magic then Error "bad magic number (not a FreshTrack binary trace)"
    else begin
      let v = src_varint src in
      if v <> version then Error (Printf.sprintf "unsupported version %d" v)
      else begin
        let nthreads = src_varint src in
        let nlocks = src_varint src in
        let nlocs = src_varint src in
        let nevents = src_varint src in
        let h = { nthreads; nlocks; nlocs; nevents } in
        if h.nthreads <= 0 then Error "corrupt header: no threads"
        else if h.nlocks < 0 || h.nlocs < 0 || h.nevents < 0 then
          Error "corrupt header: negative dimension"
        else begin
          (* seekable channels expose their length: apply the same 2-bytes/
             event budget as [of_bytes] before anyone trusts [nevents] *)
          match
            let total = in_channel_length ic in
            let consumed = pos_in ic - (src.len - src.pos) in
            total - consumed
          with
          | remaining when h.nevents > remaining / min_bytes_per_event ->
            Error
              (Printf.sprintf
                 "corrupt header: %d events promised but only %d bytes follow (≥ %d needed)"
                 h.nevents remaining (h.nevents * min_bytes_per_event))
          | _ -> Ok { src; rheader = h; next_index = 0 }
          | exception Sys_error _ ->
            (* non-seekable (pipe): no length to check against; the
               streaming reader allocates per event, so a lying header can
               only make us read more, not pre-allocate *)
            Ok { src; rheader = h; next_index = 0 }
        end
      end
    end
  with Truncated -> Error "truncated input"

let header r = r.rheader

let events_read r = r.next_index

let byte_pos r = r.src.base + r.src.pos

let seek r ~byte_offset ~next_index =
  if byte_offset < 0 then Error "seek: negative byte offset"
  else if next_index < 0 || next_index > r.rheader.nevents then
    Error "seek: event index out of range"
  else
    match r.src.ic with
    | None ->
      if byte_offset > r.src.len then Error "seek: byte offset beyond the payload"
      else begin
        r.src.pos <- byte_offset;
        r.next_index <- next_index;
        Ok ()
      end
    | Some ic -> (
      match seek_in ic byte_offset with
      | () ->
        r.src.base <- byte_offset;
        r.src.pos <- 0;
        r.src.len <- 0;
        r.next_index <- next_index;
        Ok ()
      | exception Sys_error msg -> Error ("seek: " ^ msg))

let next r =
  if r.next_index >= r.rheader.nevents then Ok None
  else begin
    try
      let head = src_varint r.src in
      let payload = src_varint r.src in
      match decode_event r.rheader head payload with
      | Error _ as err -> err
      | Ok e ->
        r.next_index <- r.next_index + 1;
        Ok (Some e)
    with Truncated -> Error "truncated input"
  end

let open_bytes data =
  let c = { data; pos = 0 } in
  try
    match read_header_cursor c with
    | Error _ as err -> err
    | Ok h -> (
      match check_header data c.pos h with
      | Error _ as err -> err
      | Ok () ->
        Ok
          {
            src = { ic = None; buf = data; base = 0; pos = c.pos; len = Bytes.length data };
            rheader = h;
            next_index = 0;
          })
  with Truncated -> Error "truncated input"

let open_string s = open_bytes (Bytes.unsafe_of_string s)

(* --- structure-of-arrays batch decoding -------------------------------------- *)

(* The per-event [next] pays two heap words per event ([Some e] under [Ok])
   before the consumer even sees it.  [read_batch] decodes a run of events
   into parallel int arrays instead, reused across calls, with no box per
   event.  The loop is not allocation-free: without flambda each
   [src_varint] call allocates its local [loop] closure, two closures
   (80 bytes) per event, and [batch_event] then rebuilds an [Event.t]
   (40 bytes).  [ends.(j)] records the stream offset
   just past event [j], which is exactly the [byte_pos] a checkpoint taken
   after that event must store — the resumable runner cuts batches anywhere
   without offset drift. *)

type batch = {
  mutable n : int;       (* events decoded by the last [read_batch] *)
  threads : int array;
  tags : int array;      (* 0=read … 7=join, as in the wire format *)
  payloads : int array;
  ends : int array;      (* byte offset just past event [j] *)
}

let default_batch_capacity = 8192

let create_batch ?(capacity = default_batch_capacity) () =
  let capacity = Stdlib.max 1 capacity in
  {
    n = 0;
    threads = Array.make capacity 0;
    tags = Array.make capacity 0;
    payloads = Array.make capacity 0;
    ends = Array.make capacity 0;
  }

let batch_capacity b = Array.length b.threads
let batch_length b = b.n

(* All 8 three-bit tags are valid operations, so tag range needs no check;
   operands are validated against the header exactly as [decode_event]. *)
let read_batch r b =
  b.n <- 0;
  let h = r.rheader in
  let goal = Stdlib.min (Array.length b.threads) (h.nevents - r.next_index) in
  try
    let rec loop j =
      if j >= goal then Ok j
      else begin
        let head = src_varint r.src in
        let payload = src_varint r.src in
        let tag = head land 7 and thread = head lsr 3 in
        if thread >= h.nthreads then Error "thread id out of range"
        else if tag <= 1 && payload >= h.nlocs then Error "location id out of range"
        else if tag >= 2 && tag <= 5 && payload >= h.nlocks then Error "lock id out of range"
        else if tag >= 6 && payload >= h.nthreads then Error "thread operand out of range"
        else begin
          Array.unsafe_set b.threads j thread;
          Array.unsafe_set b.tags j tag;
          Array.unsafe_set b.payloads j payload;
          Array.unsafe_set b.ends j (r.src.base + r.src.pos);
          r.next_index <- r.next_index + 1;
          loop (j + 1)
        end
      end
    in
    match loop 0 with
    | Ok n ->
      b.n <- n;
      Ok n
    | Error _ as err -> err
  with Truncated -> Error "truncated input"

let op_of_tag_exn tag payload : Event.op =
  match tag with
  | 0 -> Event.Read payload
  | 1 -> Event.Write payload
  | 2 -> Event.Acquire payload
  | 3 -> Event.Release payload
  | 4 -> Event.Release_store payload
  | 5 -> Event.Acquire_load payload
  | 6 -> Event.Fork payload
  | 7 -> Event.Join payload
  | _ -> assert false

let batch_event b j =
  if j < 0 || j >= b.n then invalid_arg "Trace_binary.batch_event: index out of range";
  Event.mk b.threads.(j) (op_of_tag_exn b.tags.(j) b.payloads.(j))

let batch_end b j =
  if j < 0 || j >= b.n then invalid_arg "Trace_binary.batch_end: index out of range";
  b.ends.(j)

let dummy_event = Event.mk 0 (Event.Read 0)

let of_bytes data =
  match open_bytes data with
  | Error _ as err -> err
  | Ok r ->
    let h = r.rheader in
    (* [check_header] already vetted [nevents] against the byte budget, so
       sizing the array to it up front is safe even for hostile input *)
    let events = Array.make h.nevents dummy_event in
    (* a batch no wider than the payload: the daemons decode every
       512-event client batch through here *)
    let b = create_batch ~capacity:(Stdlib.min h.nevents default_batch_capacity) () in
    let rec loop () =
      match read_batch r b with
      | Error _ as err -> err
      | Ok 0 ->
        Ok (Trace.make ~nthreads:h.nthreads ~nlocks:h.nlocks ~nlocs:h.nlocs events)
      | Ok n ->
        let start = r.next_index - n in
        for j = 0 to n - 1 do
          events.(start + j) <- batch_event b j
        done;
        loop ()
    in
    loop ()

let fold_channel ?chunk_size ic ~init ~f =
  match open_channel ?chunk_size ic with
  | Error _ as err -> err
  | Ok r ->
    let rec loop acc =
      match next r with
      | Error _ as err -> err
      | Ok None -> Ok (r.rheader, acc)
      | Ok (Some e) -> loop (f acc (r.next_index - 1) e)
    in
    loop init

let iter_channel ?chunk_size ic ~f =
  fold_channel ?chunk_size ic ~init:() ~f:(fun () i e -> f i e)

let iter_file ?chunk_size path ~f =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> iter_channel ?chunk_size ic ~f)

(* --- streaming writer -------------------------------------------------------- *)

type writer = {
  oc : out_channel;
  wbuf : Buffer.t;
  wheader : header;
  mutable written : int;
  mutable closed : bool;
}

let create_writer oc ~nthreads ~nlocks ~nlocs ~nevents =
  if nthreads <= 0 then invalid_arg "Trace_binary.create_writer: no threads";
  if nevents < 0 then invalid_arg "Trace_binary.create_writer: negative event count";
  let wheader = { nthreads; nlocks; nlocs; nevents } in
  let wbuf = Buffer.create default_chunk in
  add_header wbuf wheader;
  { oc; wbuf; wheader; written = 0; closed = false }

let write_event w (e : Event.t) =
  if w.closed then invalid_arg "Trace_binary.write_event: writer is closed";
  if w.written >= w.wheader.nevents then
    invalid_arg "Trace_binary.write_event: more events than the header promised";
  let h = w.wheader in
  if e.Event.thread < 0 || e.Event.thread >= h.nthreads then
    invalid_arg "Trace_binary.write_event: thread id out of range";
  (match e.Event.op with
  | Event.Read x | Event.Write x ->
    if x < 0 || x >= h.nlocs then invalid_arg "Trace_binary.write_event: location id out of range"
  | Event.Acquire l | Event.Release l | Event.Release_store l | Event.Acquire_load l ->
    if l < 0 || l >= h.nlocks then invalid_arg "Trace_binary.write_event: lock id out of range"
  | Event.Fork u | Event.Join u ->
    if u < 0 || u >= h.nthreads then
      invalid_arg "Trace_binary.write_event: thread operand out of range");
  add_event w.wbuf e;
  w.written <- w.written + 1;
  if Buffer.length w.wbuf >= default_chunk then begin
    Buffer.output_buffer w.oc w.wbuf;
    Buffer.clear w.wbuf
  end

let close_writer w =
  if not w.closed then begin
    w.closed <- true;
    Buffer.output_buffer w.oc w.wbuf;
    Buffer.clear w.wbuf;
    flush w.oc;
    if w.written <> w.wheader.nevents then
      invalid_arg
        (Printf.sprintf "Trace_binary.close_writer: header promised %d events, %d written"
           w.wheader.nevents w.written)
  end

(* --- whole-trace channel I/O -------------------------------------------------- *)

let write_channel oc trace =
  let h = header_of_trace trace in
  let w = create_writer oc ~nthreads:h.nthreads ~nlocks:h.nlocks ~nlocs:h.nlocs
      ~nevents:h.nevents in
  Trace.iteri (fun _ e -> write_event w e) trace;
  close_writer w

(* Builds the event array through the batch reader: peak extra memory is
   one chunk plus the growing array itself — never a whole-file copy. *)
let read_channel ic =
  match open_channel ic with
  | Error _ as err -> err
  | Ok r ->
    let h = header r in
    (* grow geometrically instead of trusting nevents for the first
       allocation; a validated header makes the hint safe to use as a cap
       (on a pipe the count is unverified, so events drive the growth) *)
    let events = ref (Array.make (Stdlib.min (Stdlib.max 16 h.nevents) 65536) dummy_event) in
    let n = ref 0 in
    let b = create_batch () in
    let rec loop () =
      match read_batch r b with
      | Error _ as err -> err
      | Ok 0 ->
        let arr = Array.sub !events 0 !n in
        Ok (Trace.make ~nthreads:h.nthreads ~nlocks:h.nlocks ~nlocs:h.nlocs arr)
      | Ok k ->
        if !n + k > Array.length !events then begin
          let cap = ref (Array.length !events) in
          while !n + k > !cap do
            cap := Stdlib.min h.nevents (2 * !cap)
          done;
          let bigger = Array.make !cap dummy_event in
          Array.blit !events 0 bigger 0 !n;
          events := bigger
        end;
        for j = 0 to k - 1 do
          !events.(!n + j) <- batch_event b j
        done;
        n := !n + k;
        loop ()
    in
    (try loop () with Invalid_argument _ -> Error "truncated input")

let to_file path trace =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> write_channel oc trace)

let of_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> read_channel ic)
