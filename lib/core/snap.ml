(* Binary codec for detector snapshots.

   A snapshot payload is a flat byte string built from zigzag varints; the
   container format (magic, version, checksum) lives in Ft_snapshot, which
   also owns file I/O.  Everything here is hardened the same way the .ftb
   decoder is: a length prefix is checked against the bytes actually
   remaining before any allocation proportional to it, and every malformed
   read raises [Corrupt] — never an out-of-bounds access or an OOM. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun msg -> raise (Corrupt msg)) fmt

let expect cond msg = if not cond then raise (Corrupt msg)

type t = string

module Enc = struct
  type t = Buffer.t

  let create () = Buffer.create 256

  let rec leb128 b n =
    if n < 0x80 then Buffer.add_char b (Char.unsafe_chr n)
    else begin
      Buffer.add_char b (Char.unsafe_chr (0x80 lor (n land 0x7F)));
      leb128 b (n lsr 7)
    end

  (* zigzag-mapped LEB128, so small negative ints (the ubiquitous -1
     sentinels) stay one byte *)
  let int b n = leb128 b ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

  let bool b v = int b (if v then 1 else 0)

  let string b s =
    int b (String.length s);
    Buffer.add_string b s

  let int_array b a =
    int b (Array.length a);
    Array.iter (int b) a

  let bool_array b a =
    int b (Array.length a);
    Array.iter (bool b) a

  let option b f = function
    | None -> int b 0
    | Some v ->
      int b 1;
      f v

  let list b f xs =
    int b (List.length xs);
    List.iter f xs

  (* Each slot is matched against earlier values through a table keyed by
     content hash and compared with [==]; only the first root or slot
     holding a value enters the table, which is exactly the first thread /
     lowest lock index the reference scan would pick. *)
  let shared b ~roots ~hash slots inline =
    let seen = Hashtbl.create 64 in
    let find v h = List.find_opt (fun (v', _, _) -> v' == v) (Hashtbl.find_all seen h) in
    Array.iteri
      (fun t v ->
        let h = hash v in
        if find v h = None then Hashtbl.add seen h (v, 1, t))
      roots;
    Array.iteri
      (fun l slot ->
        match slot with
        | None -> int b 0
        | Some v -> (
          let h = hash v in
          match find v h with
          | Some (_, tag, ix) ->
            int b tag;
            int b ix
          | None ->
            Hashtbl.add seen h (v, 2, l);
            int b 3;
            inline v))
      slots

  let length = Buffer.length

  let to_snap = Buffer.contents
end

module Dec = struct
  type t = { data : string; mutable pos : int }

  let of_snap data = { data; pos = 0 }

  let remaining d = String.length d.data - d.pos

  let byte d =
    if d.pos >= String.length d.data then corrupt "truncated snapshot"
    else begin
      let c = Char.code (String.unsafe_get d.data d.pos) in
      d.pos <- d.pos + 1;
      c
    end

  let int d =
    let rec loop shift acc =
      if shift > 62 then corrupt "varint too long"
      else begin
        let b = byte d in
        let acc = acc lor ((b land 0x7F) lsl shift) in
        if b land 0x80 = 0 then acc else loop (shift + 7) acc
      end
    in
    let z = loop 0 0 in
    (z lsr 1) lxor (-(z land 1))

  let bool d =
    match int d with
    | 0 -> false
    | 1 -> true
    | n -> corrupt "bad boolean %d" n

  (* Every encoded element costs at least one byte, so a length that exceeds
     the remaining bytes is corrupt — checked before allocating. *)
  let length d =
    let n = int d in
    if n < 0 || n > remaining d then corrupt "bad length %d (%d bytes left)" n (remaining d)
    else n

  let string d =
    let n = length d in
    let s = String.sub d.data d.pos n in
    d.pos <- d.pos + n;
    s

  let int_array d = Array.init (length d) (fun _ -> int d)

  let int_array_n d n =
    let a = int_array d in
    expect (Array.length a = n)
      (Printf.sprintf "array length %d, expected %d" (Array.length a) n);
    a

  let bool_array d = Array.init (length d) (fun _ -> bool d)

  let bool_array_n d n =
    let a = bool_array d in
    expect (Array.length a = n)
      (Printf.sprintf "array length %d, expected %d" (Array.length a) n);
    a

  let option d f =
    match int d with
    | 0 -> None
    | 1 -> Some (f ())
    | n -> corrupt "bad option tag %d" n

  let list d f = List.init (length d) (fun _ -> f ())

  let shared d ~what ~roots slots inline =
    for l = 0 to Array.length slots - 1 do
      slots.(l) <-
        (match int d with
        | 0 -> None
        | 1 ->
          let t = int d in
          expect (t >= 0 && t < Array.length roots) (what ^ " thread out of range");
          Some roots.(t)
        | 2 -> (
          let l' = int d in
          expect (l' >= 0 && l' < l) (what ^ " back-reference out of range");
          match slots.(l') with
          | Some _ as v -> v
          | None -> corrupt "%s back-reference to empty slot" what)
        | 3 -> Some (inline ())
        | t -> corrupt "bad %s tag %d" what t)
    done

  let finish d = expect (remaining d = 0) "trailing bytes after snapshot"
end
