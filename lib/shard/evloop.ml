module Netbuf = Netbuf
module Fault = Ft_fault.Fault

(* Shared single-threaded accept/read loop of the serve daemon and the
   cluster router.  Both speak the same line-framed protocol with sized
   binary payloads, so the listener plumbing — select, EINTR-guarded accept,
   close-on-exec, Netbuf accumulation, closed-connection sweeping — lives
   here once and the protocol handlers stay with their daemons. *)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        go off
  in
  go 0

type conn = {
  fd : Unix.file_descr;
  data : Netbuf.t;  (* unconsumed input, appended in amortized O(1) *)
  mutable await : (int * (string -> unit)) option;  (* sized blob + consumer *)
  mutable closed : bool;
}

let conn_fd conn = conn.fd

let reply conn s = try write_all conn.fd s with Unix.Unix_error _ -> conn.closed <- true

let reply_blob conn verb blob =
  reply conn (Printf.sprintf "%s %d\n%s" verb (String.length blob) blob)

let close_conn conn =
  conn.closed <- true;
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

let await_blob conn n k = conn.await <- Some (n, k)

let make_conn fd = { fd; data = Netbuf.create (); await = None; closed = false }

(* Consume everything currently buffered: sized blobs first (a pending
   header owns the next [n] bytes), then complete lines. *)
let rec process ~on_line conn =
  if not conn.closed then
    match conn.await with
    | Some (nbytes, consume) ->
      if Netbuf.length conn.data >= nbytes then begin
        let payload = Netbuf.take conn.data nbytes in
        conn.await <- None;
        consume payload;
        process ~on_line conn
      end
    | None -> (
      match Netbuf.index_newline conn.data with
      | None -> ()
      | Some nl ->
        let line = Netbuf.take conn.data nl in
        Netbuf.drop conn.data 1;
        on_line conn line;
        process ~on_line conn)

(* One bounded receive step for a caller driving a connection outside the
   main loop (the router servicing worker acks between sends): wait up to
   [timeout_s] for readability, then pull one chunk into the Netbuf.  The
   caller runs [process] afterwards to consume whatever completed. *)
let feed ?(timeout_s = 0.0) conn =
  if conn.closed then `Eof
  else
    let readable, _, _ =
      try Unix.select [ conn.fd ] [] [] timeout_s
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if readable = [] then `Timeout
    else
      let chunk = Bytes.create 65536 in
      match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
      | 0 ->
        conn.closed <- true;
        `Eof
      | n ->
        Netbuf.append conn.data chunk ~off:0 ~len:n;
        `Data n
      | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        -> `Timeout
      | exception Unix.Unix_error _ ->
        conn.closed <- true;
        `Eof

let run ~listen_fd ~quit ~on_line ?(on_accept = fun _ -> ()) ?(on_conns = fun _ -> ())
    ?(tick = fun () -> ()) ?recv_fault ?(select_s = 0.5) () =
  let conns = ref [] in
  let chunk = Bytes.create 65536 in
  while not (quit ()) do
    let fds = listen_fd :: List.map (fun c -> c.fd) !conns in
    let readable, _, _ =
      try Unix.select fds [] [] select_s
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if List.memq listen_fd readable then begin
      (* EINTR-guarded: a signal (SIGTERM asking for the graceful drain)
         landing inside accept must not escape the loop and bypass the
         final-checkpoint path.  ECONNABORTED is a client that gave up
         between select and accept — simply not a connection. *)
      match Unix.accept ~cloexec:true listen_fd with
      | fd, _ ->
        (* harmless EOPNOTSUPP on Unix-domain sockets *)
        (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
        let conn = { fd; data = Netbuf.create (); await = None; closed = false } in
        conns := conn :: !conns;
        on_accept conn
      | exception
          Unix.Unix_error
            ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED), _, _) ->
        ()
    end;
    List.iter
      (fun c ->
        if (not c.closed) && List.memq c.fd readable then
          (* Injected faults act BEFORE the read so no received byte is ever
             dropped: an Exn is a transient hiccup (retried next select
             round, the data still queued in the socket), a Partial_io just
             shortens the requested length. *)
          match
            (match recv_fault with
            | Some point -> Fault.point ~supports:[ Fault.Exn; Fault.Delay ] point
            | None -> ());
            Unix.read c.fd chunk 0
              (match recv_fault with
              | Some point -> Fault.io_len point (Bytes.length chunk)
              | None -> Bytes.length chunk)
          with
          | 0 -> c.closed <- true
          | n ->
            Netbuf.append c.data chunk ~off:0 ~len:n;
            process ~on_line c
          (* a signal or a spurious wakeup is not a dead client *)
          | exception
              Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
          | exception Fault.Injected _ -> ()
          | exception Unix.Unix_error _ -> c.closed <- true)
      !conns;
    conns :=
      List.filter
        (fun c ->
          if c.closed then (try Unix.close c.fd with Unix.Unix_error _ -> ());
          not c.closed)
        !conns;
    on_conns (List.length !conns);
    tick ()
  done;
  !conns
