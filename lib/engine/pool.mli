(** Domain-based worker pool (OCaml 5 [Domain.spawn]).

    {!map} fans an indexed task set out over a fixed set of worker domains
    pulling indices from a shared atomic counter — a degenerate but
    effective form of work stealing for embarrassingly parallel sweeps.
    Results land in a slot array keyed by task {e index}, never by
    completion order, so the output is deterministic regardless of worker
    count or scheduling: [map ~jobs f n] equals [Array.init n f] whenever
    [f] is pure.

    Tasks must not share mutable state unless it is synchronized (the
    engine's {!Cache} is; the ASP grounder and solver are pure). *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware's useful
    parallelism (1 in a single-core container). *)

val map : ?oversubscribe:bool -> ?jobs:int -> (int -> 'a) -> int -> 'a array
(** [map ~jobs f n] computes [|f 0; …; f (n-1)|] on [min jobs n] domains
    (the calling domain participates as a worker; [jobs] defaults to
    {!default_jobs}, values [<= 1] run inline without spawning). Requesting
    more domains than {!default_jobs} is a pessimization — no extra
    parallelism, but every minor GC pays the multi-domain synchronization
    barrier — so the worker count is additionally capped there unless
    [oversubscribe] is set (tests use it to force real multi-domain
    execution on single-core machines). If tasks raise, every task still
    runs to completion and the exception of the lowest-indexed failing
    task is re-raised — again deterministic. *)
