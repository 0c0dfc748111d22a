(** The mitigation frontier on the engine: candidate action sets
    evaluated as fingerprinted deltas through {!Engine.Cache}, searched
    by one branch-and-bound walk — §IV.D's cost/benefit searches at
    serving speed.

    A frontier wraps a warm {!Engine.Job.prepared} base (the same state
    the assessment service holds per loaded model): evaluating an action
    set compiles it to an {!Engine.Delta}, answers the increment against
    the warm state ({!Engine.Job.solve}: decided by the grounder, or
    {!Asp.Grounder.extend} and solved — never a scratch re-ground), and
    memoizes the result by structural fingerprint. A search evaluates
    each action set at most once; the cache dedupes across searches —
    repeated requests and (with a persistent cache) processes.

    All three searches walk {!Optimizer.fold_subsets_within_budget}'s
    inclusion-order DFS once, with the cost pruning of a budget and a
    residual bound per node: the residual of the node's full-inclusion
    leaf [S ∪ R]. The bound is evaluated only when a cut test needs it,
    and a node's include child, whose bound set is the same, reuses it.
    A node where no remaining action fits the budget has [S] as its only
    leaf within budget: [S] alone is evaluated there, not [S ∪ R]. Each
    search cuts a subtree only where no leaf in it can change its
    answer, and keeps {!Optimizer}'s order, tie-breaking
    and running front ({!Optimizer.better}, {!Optimizer.insert_front}),
    so results are bit-for-bit those of the scratch oracle
    ({!scratch_problem} + the exhaustive {!Optimizer} functions): same
    optimum, same representatives, same front. Pruning fires only on
    sound grounds (see [monotone]).

    Every evaluation is one {!Engine.Job.run} — the same per-delta step
    as an {!Engine.Sweep} — and each search's {!report} is counted from
    the sources of its own evaluations: [r_hits + r_disk_hits + r_fresh
    = r_evals] even when the cache is shared with other searches or with
    a daemon's sweeps, whose lookups move the cache's lifetime
    counters. *)

type value = Engine.Job.answer
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
    hazard mass. It licenses every search's branch-and-bound bound: the
    residual of [S ∪ remaining] lower-bounds every superset of [S] in the
    subtree. Pass [false] for a non-monotone measure; no subtree is then
    cut, and every search walks every subset within its budget. [cache]
    defaults to a fresh private cache; pass a shared one to reuse answers
    across searches and requests. *)

val actions : t -> Action.t list
val cache : t -> value Engine.Cache.t

type report = {
  r_evals : int;  (** evaluations of this search, incl. cache answers *)
  r_hits : int;  (** answered from cache memory *)
  r_disk_hits : int;  (** answered from the persistent tier *)
  r_fresh : int;  (** fresh ground+solve *)
  r_pruned : int;  (** branch-and-bound subtrees cut *)
  r_sum_s : float;  (** total evaluation wall *)
  r_critical_s : float;  (** longest single evaluation *)
  r_wall_s : float;
}

val evaluate : t -> string list -> Optimizer.solution * Engine.Cache.source
(** One action set through the warm state and cache ({!Engine.Job.run});
    the source says where its answer came from. *)

val optimal : ?budget:int -> t -> Optimizer.solution * report
(** Best selection within budget — {!Optimizer.better}'s order, exactly
    {!Optimizer.optimal} of {!scratch_problem}. A subtree
    [S ∪ subsets-of-R] is cut iff
    [residual (S ∪ R) > best.residual], or equal with [cost S >
    best.cost] — every leaf in it then loses to the incumbent under the
    total order (costs are non-negative), so pruning is invisible in the
    result. It is {!budget_sweep} with the one budget. *)

val pareto : t -> Optimizer.solution list * report
(** The full budget/benefit Pareto frontier — exactly {!Optimizer.pareto}
    of {!scratch_problem}: identical front, representatives and order.
    The walk keeps {!Optimizer.insert_front}'s running front and cuts a
    subtree iff a member already on it strictly dominates
    ({!Optimizer.dominates}) [(cost S, residual (S ∪ R))]: it then
    dominates every leaf in the subtree, which can be neither a front
    point nor a point's representative. *)

val budget_sweep :
  t -> budgets:int list -> (int * Optimizer.solution) list * report
(** {!optimal} for every budget, in the given order, from one walk up to
    the largest budget that keeps an incumbent per budget. A budget
    cuts a node once it has an incumbent and either the node costs more
    than the budget or its bound loses to that incumbent, as in
    {!optimal}; the walk cuts a node only when every budget does. A
    leaf competes for every budget it fits, and the empty selection for
    every budget, so a negative budget gets the empty selection.
    Results are exactly {!Optimizer.budget_sweep} of {!scratch_problem};
    repeated and unsorted budgets cost nothing extra. *)

val problem : t -> Optimizer.problem
(** The frontier as an {!Optimizer.problem} whose [residual] goes through
    the warm state and cache — for the exhaustive {!Optimizer}
    searches. *)

val scratch_problem : t -> Optimizer.problem
(** The retained oracle: [residual] re-grounds base + increment cold via
    {!Asp.Grounder.ground} and solves with no cache — the pre-engine
    behaviour, kept for bit-for-bit differential tests. *)
