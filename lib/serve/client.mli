(** Client side of the assessment service: connect to the daemon's
    Unix-domain socket, send one JSON line, read one JSON line back. *)

type t
(** An open connection. Requests on one connection are answered in
    order, so a connection can be reused for a whole session. *)

val connect : string -> t
(** Raises [Unix.Unix_error] (e.g. [ENOENT], [ECONNREFUSED]) if no
    daemon is listening on the socket path. *)

val close : t -> unit

val call : t -> Protocol.request -> (Json.t, string) result
(** Send a typed request, wait for its response line, split on ["ok"].
    [Error] covers transport failures, malformed responses and server-side
    refusals alike. *)

val roundtrip : t -> Json.t -> (Json.t, string) result
(** Untyped {!call} — send any JSON value as the request line. *)

val request : socket:string -> Json.t -> (Json.t, string) result
(** One-shot {!roundtrip} on a fresh connection; never raises —
    connection failures come back as [Error] with a hint that the daemon
    may not be running, and a connection the daemon closes or resets as
    [Error] too. *)

val with_connection : socket:string -> (t -> 'a) -> ('a, string) result
(** Run [f] over a fresh connection, closing it afterwards even on
    exceptions. [Error] only for connection failure; [f]'s exceptions
    propagate. *)
