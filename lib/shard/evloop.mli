(** The shared accept/read loop behind {!Serve.run} and the cluster router.

    One thread, one [select] round per iteration: accept new connections
    (EINTR-guarded, close-on-exec on the accepted descriptors), append each
    readable connection's bytes to its {!Netbuf}, and hand complete protocol
    units to the caller — lines via [on_line], sized binary payloads via the
    consumer registered with {!await_blob}.  Closed connections are swept
    and closed every round.  The loop never raises out of a signal landing
    mid-syscall, so a SIGTERM-driven [quit] always reaches the caller's
    graceful-drain path. *)

type conn

val conn_fd : conn -> Unix.file_descr
(** The connection's descriptor — what a forking daemon (the cluster
    router) closes in its children. *)

val reply : conn -> string -> unit
(** Blocking write of the full string; a write error marks the connection
    closed instead of raising. *)

val reply_blob : conn -> string -> string -> unit
(** [reply_blob conn verb blob] sends [<verb> <nbytes>\n<blob>], the
    sized reply of [REPORT], [RESULT] and [STATS]. *)

val close_conn : conn -> unit
(** Mark closed and close the descriptor now (idempotent). *)

val await_blob : conn -> int -> (string -> unit) -> unit
(** Called from [on_line] after parsing a [<verb> ... <nbytes>] header:
    the next [n] raw bytes of this connection go to the consumer instead of
    the line parser. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string, retrying partial writes and EINTR/EAGAIN. *)

val make_conn : Unix.file_descr -> conn
(** Wrap an outbound descriptor (e.g. the router's socket to a worker) so
    {!feed}/{!process} can drive its reply stream with the same framing as
    loop-owned connections. *)

val feed : ?timeout_s:float -> conn -> [ `Data of int | `Eof | `Timeout ]
(** One bounded receive step: wait up to [timeout_s] (default 0 — poll)
    for readability and append one chunk to the connection's buffer.
    [`Eof] marks the connection closed (peer gone or read error).  Run
    {!process} afterwards to consume completed protocol units. *)

val process : on_line:(conn -> string -> unit) -> conn -> unit
(** Consume everything buffered: pending sized blobs, then complete
    lines.  The same consumer {!run} applies after each receive. *)

val run :
  listen_fd:Unix.file_descr ->
  quit:(unit -> bool) ->
  on_line:(conn -> string -> unit) ->
  ?on_accept:(conn -> unit) ->
  ?on_conns:(int -> unit) ->
  ?tick:(unit -> unit) ->
  ?recv_fault:string ->
  ?select_s:float ->
  unit ->
  conn list
(** Serve until [quit ()] turns true, then return the connections still
    open (the caller closes them after its drain).  [tick] runs once per
    select round — heartbeats and deferred housekeeping.  [recv_fault]
    names the {!Ft_fault.Fault} injection point armed over every receive
    ([serve.recv] in the daemon); omitted, reads are not chaos-able. *)
