(** The assessment daemon: a Unix-domain-socket server that keeps
    prepared models and the persistent answer store warm between
    requests, so interactive what-if exploration pays the base grounding
    once — not once per invocation.

    One connection handler thread per client reads line-delimited JSON
    requests ({!Protocol}) and answers them in order on the same socket.
    Each request is computed on its connection's thread: a sweep is one
    {!Engine.Sweep.run_prepared} pass over the model's warm base and
    cache. Two connections sweeping one model at once share that cache,
    whose in-flight dedup solves a delta they both ask for once. A
    request that raises is answered with an error, and its connection
    stays open. *)

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
    connections. Returns after an orderly teardown — every open
    connection served until its client closes it (so a sweep running
    when [shutdown] arrives is answered), socket file removed. The
    store has nothing to flush: every answer is on disk once stored.
    Raises [Unix.Unix_error] if the socket cannot be bound. *)
