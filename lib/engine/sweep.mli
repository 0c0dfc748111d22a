(** The sweep engine: batch what-if analysis over a {!Job.spec}.

    [run] prepares the base once (fingerprint + grounding), fans the jobs
    out over a {!Pool} of domains, and memoizes every solve in a
    content-addressed {!Cache} — repeated deltas (mitigation search, CEGAR
    refinement, budget sweeps) are solved once. Results are keyed by job
    index, so the report is deterministic: a parallel run is bit-identical
    to the sequential one.

    Pass your own [cache] to reuse solves across sweeps; a second identical
    sweep on the same cache reports a 100% hit rate and zero fresh solver
    work. A cache built with a {!Cache.persist} hook additionally serves
    repeats across process restarts — those answers are counted as
    [disk_hits].

    Long-running callers (the assessment service) keep the prepared base
    around and call {!run_prepared} per request, so consecutive delta
    batches extend warm grounder state instead of re-preparing. *)

type report = {
  results : Job.result array;  (** indexed by position in the delta list *)
  jobs : int;  (** worker domains used *)
  wall_s : float;  (** whole-sweep wall clock *)
  base_atoms : int;  (** base universe size reused by every job *)
  hits : int;  (** jobs answered from the in-memory cache, this run *)
  disk_hits : int;
      (** jobs answered from the cache's persistent tier, this run *)
  misses : int;  (** jobs that ran a fresh solve, this run *)
  fresh : Asp.Solver.Stats.t;
      (** solver stats aggregated over this run's {e fresh} solves only —
          cached results contribute nothing, so a fully cached re-sweep
          reports zero guesses *)
  ground : Asp.Grounder.Stats.t;
      (** incremental-grounding stats, aggregated like [fresh]: the
          [reused_rules]/[fresh_rules] split shows how much of each job's
          ground program came straight from the prepared base *)
}

val run :
  ?oversubscribe:bool -> ?jobs:int ->
  ?cache:
    (Asp.Model.t list * Asp.Solver.Stats.t * Asp.Grounder.Stats.t) Cache.t ->
  Job.spec -> report
(** [jobs] defaults to {!Pool.default_jobs} and, like {!Pool.map}, is
    capped at the hardware's useful parallelism unless [oversubscribe];
    [cache] defaults to a fresh private cache. The report's [jobs] field
    records the requested fan-out width. *)

val run_prepared :
  ?oversubscribe:bool -> ?jobs:int ->
  ?cache:
    (Asp.Model.t list * Asp.Solver.Stats.t * Asp.Grounder.Stats.t) Cache.t ->
  Job.prepared -> Delta.t list -> report
(** Sweep the given deltas against an already-{!Job.prepare}d base —
    [run spec] is [prepare] + [run_prepared] over [spec.deltas]. The
    prepared state is only read, so one base may serve many concurrent
    and consecutive [run_prepared] calls. *)

val tally :
  Job.result array ->
  int * int * int * Asp.Solver.Stats.t * Asp.Grounder.Stats.t
(** [(hits, disk_hits, misses, fresh, ground)] of any slice of results,
    as in {!report}: solver and grounder work summed over the distinct
    fresh programs, so a program several jobs share counts once. *)

val hit_rate : report -> float
(** Memory + disk hits over total jobs, in [0, 1]; 0 on an empty sweep. *)

val render : ?verbose:bool -> report -> string
(** Human-readable summary. The fresh solver work line sums the solver
    stats of the fresh jobs when one of them reached the solver; when the
    grounder decided them all, it says so and counts them. [verbose] adds
    one line per job (label, model count, cache provenance — [*] memory,
    [+] disk — and fingerprint). *)
