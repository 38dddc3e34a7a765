type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- rendering ----------------------------------------------------------- *)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* The shortest of 12, 15 and 17 significant digits that reads back as [f]
   (17 always does), with a fraction or exponent so that it parses back as
   a [Float], not an [Int]. *)
let float_literal f =
  (* RFC 8259 has no NaN/Infinity: render them as null rather than emit an
     invalid document *)
  if not (Float.is_finite f) then "null"
  else begin
    let exact p = let s = Printf.sprintf "%.*g" p f in if float_of_string s = f then Some s else None in
    let s =
      match exact 12 with
      | Some s -> s
      | None -> ( match exact 15 with Some s -> s | None -> Printf.sprintf "%.17g" f)
    in
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"
  end

let rec render b ~indent ~level v =
  let pad n = if indent then Buffer.add_string b (String.make (2 * n) ' ') in
  let sep () = if indent then Buffer.add_string b "\n" in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f -> Buffer.add_string b (float_literal f)
  | Str s ->
    Buffer.add_char b '"';
    Buffer.add_string b (escape s);
    Buffer.add_char b '"'
  | Arr [] -> Buffer.add_string b "[]"
  | Arr vs ->
    Buffer.add_char b '[';
    sep ();
    List.iteri
      (fun i v ->
        if i > 0 then begin
          Buffer.add_char b ',';
          sep ()
        end;
        pad (level + 1);
        render b ~indent ~level:(level + 1) v)
      vs;
    sep ();
    pad level;
    Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj kvs ->
    Buffer.add_char b '{';
    sep ();
    List.iteri
      (fun i (k, v) ->
        if i > 0 then begin
          Buffer.add_char b ',';
          sep ()
        end;
        pad (level + 1);
        Buffer.add_char b '"';
        Buffer.add_string b (escape k);
        Buffer.add_string b (if indent then "\": " else "\":");
        render b ~indent ~level:(level + 1) v)
      kvs;
    sep ();
    pad level;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  render b ~indent:false ~level:0 v;
  Buffer.contents b

let to_string_pretty v =
  let b = Buffer.create 256 in
  render b ~indent:true ~level:0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

(* --- parsing ------------------------------------------------------------- *)

exception Bad of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let next () =
    if !pos >= n then raise (Bad (!pos, "unexpected end of input"))
    else begin
      let c = s.[!pos] in
      incr pos;
      c
    end
  in
  let expect c =
    let got = next () in
    if got <> c then raise (Bad (!pos - 1, Printf.sprintf "expected %C, got %C" c got))
  in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else raise (Bad (!pos, "invalid literal"))
  in
  let add_utf8 b cp =
    (* encode one Unicode scalar value *)
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let hex4 () =
    let v = ref 0 in
    for _ = 1 to 4 do
      let c = next () in
      let d =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | _ -> raise (Bad (!pos - 1, "invalid \\u escape"))
      in
      v := (!v * 16) + d
    done;
    !v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' ->
        (match next () with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          let cp = hex4 () in
          if cp >= 0xD800 && cp <= 0xDBFF then begin
            (* surrogate pair *)
            expect '\\';
            expect 'u';
            let lo = hex4 () in
            if lo < 0xDC00 || lo > 0xDFFF then raise (Bad (!pos, "unpaired surrogate"));
            add_utf8 b (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
          end
          else if cp >= 0xDC00 && cp <= 0xDFFF then raise (Bad (!pos, "unpaired surrogate"))
          else add_utf8 b cp
        | c -> raise (Bad (!pos - 1, Printf.sprintf "invalid escape \\%c" c)));
        go ()
      | c when Char.code c < 0x20 -> raise (Bad (!pos - 1, "unescaped control character"))
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let fractional = ref false in
    if peek () = Some '-' then incr pos;
    while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
      incr pos
    done;
    if peek () = Some '.' then begin
      fractional := true;
      incr pos;
      while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
        incr pos
      done
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      fractional := true;
      incr pos;
      (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
      while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
        incr pos
      done
    | _ -> ());
    let tok = String.sub s start (!pos - start) in
    let float () =
      match float_of_string_opt tok with
      | Some f when Float.is_finite f -> Float f
      | Some _ -> raise (Bad (start, "number out of range"))
      | None -> raise (Bad (start, "invalid number"))
    in
    if !fractional then float ()
    else match int_of_string_opt tok with Some i -> Int i | None -> float ()
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> raise (Bad (!pos, "unexpected end of input"))
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (parse_string ())
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        Arr []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match next () with
          | ',' -> items (v :: acc)
          | ']' -> List.rev (v :: acc)
          | _ -> raise (Bad (!pos - 1, "expected ',' or ']'"))
        in
        Arr (items [])
      end
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match next () with
          | ',' -> fields ((k, v) :: acc)
          | '}' -> List.rev ((k, v) :: acc)
          | _ -> raise (Bad (!pos - 1, "expected ',' or '}'"))
        in
        Obj (fields [])
      end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> raise (Bad (!pos, Printf.sprintf "unexpected character %C" c))
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then raise (Bad (!pos, "trailing garbage"));
    v
  with
  | v -> Ok v
  | exception Bad (at, why) -> Error (Printf.sprintf "byte %d: %s" at why)

(* --- accessors ----------------------------------------------------------- *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let index i = function Arr vs -> List.nth_opt vs i | _ -> None

let to_int = function
  | Int n -> Some n
  | Float f when Float.is_integer f && Float.abs f <= 1e15 -> Some (int_of_float f)
  | _ -> None

let to_float = function Int n -> Some (float_of_int n) | Float f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None
