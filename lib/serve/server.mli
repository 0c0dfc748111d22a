(** The assessment daemon: a Unix-domain-socket server that keeps
    prepared models, a batching request queue and the persistent answer
    store warm between requests, so interactive what-if exploration pays
    the base grounding once — not once per invocation.

    One connection handler thread per client reads line-delimited JSON
    requests ({!Protocol}) and answers in order on the same socket.
    Sweep requests go through a {!Queue}: whatever backlog accumulates
    while the engine runs the current batch is coalesced into one
    {!Engine.Sweep.run_prepared} pass per model, with cross-request
    dedup falling out of the shared content-addressed cache. *)

type config = {
  socket : string;  (** Unix-domain socket path (note ~107 byte limit) *)
  cache_dir : string option;  (** persistent {!Store} root; [None] = memory only *)
  cache_mb : int option;  (** store size bound in MiB; [None] = unbounded *)
  log : (string -> unit) option;  (** server-side event log sink *)
}

val default_config : config
(** [cpsrisk.sock] in the current directory, no persistence, silent. *)

val run : ?on_ready:(unit -> unit) -> config -> unit
(** Serve until a [shutdown] request: bind the socket (replacing a stale
    socket file from a dead daemon), call [on_ready], then accept
    connections. Returns after an orderly teardown — in-flight
    connections joined, queue drained, store manifest flushed, socket
    file removed. Raises [Unix.Unix_error] if the socket cannot be
    bound. *)
