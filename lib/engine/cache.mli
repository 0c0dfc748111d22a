(** Content-addressed solve cache, shared by the jobs of a sweep (and,
    when the caller keeps it, across sweeps — a second identical sweep is
    pure lookups).

    Keys are program {!Fingerprint}s; values are whatever the caller
    memoizes (the engine stores solved model lists plus solver stats).
    {!find_or_compute_src} deduplicates in-flight work: while one domain
    or thread computes a key (the daemon's connection threads share one
    cache per model across sweeps and [mitigate]), others asking for the
    same key block on a condition variable instead of solving the same
    program twice, so the hit/miss accounting stays exact.

    A cache may carry a {!persist} hook — a second, slower storage tier
    (the assessment service plugs {!Serve.Store} in here). Entries found
    there are promoted into the in-memory table and reported as {!Disk}
    hits; freshly computed values are pushed back through the hook. *)

type source = Memory | Disk | Fresh
    (** Where an answer came from: the in-memory table (or a wait on
        another domain's in-flight solve), the persistent tier, or a fresh
        computation. *)

val source_to_string : source -> string
(** ["memory"], ["disk"], ["fresh"] — the wire spelling used by reports
    and the service protocol. *)

type 'a persist = {
  load : Fingerprint.t -> 'a option;
      (** consulted once per in-memory miss, outside the cache lock;
          [None] falls through to the computation *)
  store : Fingerprint.t -> 'a -> unit;
      (** called after each fresh computation, outside the cache lock;
          failures must be handled by the hook itself *)
}
(** The persistence hook must be safe to call from several domains at
    once; the cache's in-flight dedup guarantees at most one [load] and
    one [store] per key at any moment, but different keys proceed
    concurrently. *)

type 'a t

val create : ?persist:'a persist -> unit -> 'a t

val find_or_compute_src : 'a t -> Fingerprint.t -> (unit -> 'a) -> 'a * source
(** [(value, source)]: the memoized value of the key, computing it with
    the thunk on a miss. A wait on another domain's in-flight computation
    reports {!Memory}. If the computing domain's thunk (or the persist
    hook's [load]) raises, the key is released, waiters retry (one of
    them becomes the new computer), and the exception propagates to the
    original caller. *)

val length : 'a t -> int
(** Completed in-memory entries. *)

val hits : 'a t -> int
val disk_hits : 'a t -> int
val misses : 'a t -> int
(** Lifetime counters over {!find_or_compute_src}: [hits] counts memory
    hits, [disk_hits] persistent-tier promotions, [misses] fresh
    computations. They count every caller of a shared cache, so
    per-sweep and per-search accounting is done from the [source] of
    each lookup instead. *)
