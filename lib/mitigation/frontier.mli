(** The mitigation frontier on the engine: candidate action sets
    evaluated as fingerprinted deltas through {!Engine.Cache}, fanned out
    over {!Engine.Pool} — §IV.D's cost/benefit searches at serving speed.

    A frontier wraps a warm {!Engine.Job.prepared} base (the same state
    the assessment service holds per loaded model): evaluating an action
    set compiles it to an {!Engine.Delta}, answers the increment against
    the warm state ({!Engine.Job.solve}: decided by the grounder, or
    {!Asp.Grounder.extend} and solved — never a scratch re-ground), and
    memoizes the result by structural fingerprint. Identical residual
    sub-problems dedupe — across the budgets of a sweep, across repeated
    requests, and (with a persistent cache) across processes.

    Every search reduces with the {e retained} {!Optimizer} searches over
    a lookup-table problem, so results are bit-for-bit those of the
    scratch oracle ({!scratch_problem} + the exact {!Optimizer}
    functions): same tie-breaking, same representatives, same front.
    {!optimal} adds branch-and-bound residual pruning on top of the cost
    pruning; pruning only fires on sound grounds (see [monotone]), and
    only where the pruned subtree is strictly worse under
    {!Optimizer.better}'s total order, so the result never changes.

    Every evaluation is one {!Engine.Job.run} — the same per-delta step
    as an {!Engine.Sweep} — and each search's {!report} is counted from
    the sources of its own evaluations: [r_hits + r_disk_hits + r_fresh
    = r_evals] even when the cache is shared with other searches or with
    a daemon's sweeps, whose lookups move the cache's lifetime
    counters. *)

type value = Asp.Model.t list * Asp.Solver.Stats.t * Asp.Grounder.Stats.t
(** What the cache memoizes per fingerprint — the {!Engine.Sweep} cache
    triple, shareable with a serve-layer {!Engine.Cache}. The models are
    {!Engine.Job.solve}'s, projected on the spec's [#show] predicates, so
    [measure] sees only the shown atoms. *)

type t

val make :
  ?cache:value Engine.Cache.t ->
  ?monotone:bool ->
  actions:Action.t list ->
  delta:(active:string list -> Engine.Delta.t) ->
  measure:(Asp.Model.t list -> int) ->
  Engine.Job.prepared ->
  t
(** [delta ~active] compiles a sorted active-id set to the job delta;
    [measure] maps the solve's stable models to the integer residual.
    [monotone] (default [true]) asserts that activating {e more} actions
    never increases the residual — the paper's mitigations only remove
    hazard mass. It licenses {!optimal}'s branch-and-bound bound: the
    residual of [S ∪ remaining] lower-bounds every superset of [S] in the
    subtree. Pass [false] for a non-monotone measure; {!optimal} then
    degrades to the exhaustive cost-pruned search. [cache] defaults to a
    fresh private cache; pass a shared one to reuse answers across
    searches and requests. *)

val actions : t -> Action.t list
val cache : t -> value Engine.Cache.t

type report = {
  r_evals : int;  (** evaluations of this search, incl. cache answers *)
  r_hits : int;  (** answered from cache memory *)
  r_disk_hits : int;  (** answered from the persistent tier *)
  r_fresh : int;  (** fresh ground+solve *)
  r_pruned : int;  (** branch-and-bound subtrees cut ({!optimal} only) *)
  r_sum_s : float;  (** total evaluation wall across workers *)
  r_critical_s : float;  (** longest single evaluation *)
  r_wall_s : float;
}

val evaluate : t -> string list -> Optimizer.solution * Engine.Cache.source
(** One action set through the warm state and cache ({!Engine.Job.run});
    the source says where its answer came from. *)

val optimal : ?budget:int -> t -> Optimizer.solution * report
(** Best selection within budget — {!Optimizer.better}'s order, exactly
    {!Optimizer.optimal} of {!scratch_problem}. Sequential DFS over
    {!Optimizer.fold_subsets_within_budget}'s enumeration with
    branch-and-bound pruning: a subtree [S ∪ subsets-of-R] is cut iff
    [residual (S ∪ R) > best.residual], or equal with [cost S >
    best.cost] — every leaf in it then loses to the incumbent under the
    total order (costs are non-negative), so pruning is invisible in the
    result. Bound evaluations are cache-shared full-inclusion leaves. *)

val pareto : ?jobs:int -> ?oversubscribe:bool -> t -> Optimizer.solution list * report
(** The full budget/benefit Pareto frontier in one parallel sweep: every
    subset evaluated over the pool through the cache, then reduced with
    the retained {!Optimizer.pareto} over the result table — identical
    front, representatives and order. [jobs]/[oversubscribe] as in
    {!Engine.Pool.map}. *)

val budget_sweep :
  ?jobs:int -> ?oversubscribe:bool ->
  t -> budgets:int list -> (int * Optimizer.solution) list * report
(** {!optimal} per budget, with all budgets sharing one cache: subsets
    within budget [b] are a subset of those within [b' >= b], so a sweep
    over ascending budgets is mostly cache hits — the report's hit
    counters make the dedup rate visible. Results are exactly
    {!Optimizer.budget_sweep} of {!scratch_problem}. *)

val problem : t -> Optimizer.problem
(** The frontier as an {!Optimizer.problem} whose [residual] goes through
    the warm state and cache — for the retained sequential searches. *)

val scratch_problem : t -> Optimizer.problem
(** The retained oracle: [residual] re-grounds base + increment cold via
    {!Asp.Grounder.ground} and solves with no cache — the pre-engine
    behaviour, kept for bit-for-bit differential tests. *)
