(** The service's batching request queue. Connection handler threads
    {!submit} requests and block for their answer; a single worker thread
    drains {e all} pending requests at once and hands them to the [batch]
    function as one array — so requests that arrive while the engine is
    busy on the previous batch coalesce into a single engine pass (one
    shared prepare, one cache, cross-request dedup) instead of queuing up
    as N separate engine runs.

    Ordering within a batch is submission order. If [batch] raises, every
    request of that batch re-raises the same exception in its submitter;
    if it returns the wrong arity, submitters get [Invalid_argument]. *)

type ('req, 'resp) t

exception Stopped

val create : batch:('req array -> 'resp array) -> ('req, 'resp) t
(** Spawns the worker thread. [batch] runs on that thread and must return
    one response per request, in order. *)

val submit : ('req, 'resp) t -> 'req -> 'resp
(** Enqueue and block until the worker has served the containing batch.
    Raises {!Stopped} if the queue has been stopped, or the [batch]
    function's exception verbatim. *)

val stop : ('req, 'resp) t -> unit
(** Refuse new submissions, let the worker drain what was already
    accepted, and return once it has exited. Idempotent. *)

val pending : ('req, 'resp) t -> int
(** Requests waiting for the next batch (excludes the batch in flight). *)

type stats = {
  submitted : int;  (** lifetime requests accepted *)
  batches : int;  (** worker passes taken *)
  max_batch : int;  (** largest coalesced batch *)
}

val stats : ('req, 'resp) t -> stats
