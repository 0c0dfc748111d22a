(** Guiding-path parallel model enumeration.

    The CDNL solver's assumption interface ({!Asp.Solver.solve} with
    [?assumptions]) conditions the search on fixed atom values. Fixing
    [k] atoms in all [2^k] sign combinations partitions the stable-model
    space into disjoint branches, so the branches can be solved on
    separate {!Pool} domains and merged — the result is bit-for-bit the
    sequential answer, regardless of worker count or scheduling.

    {!enumerate} and {!optimal} share one fan-out and one sequential
    fallback; they differ only in the per-path solve and the merge
    (concatenation + sort for enumeration, the minimum-cost slice of the
    union for optima).

    The split atoms come from {!Asp.Solver.guiding_atoms} (choice atoms
    first — the natural combinatorial frontier of the reference
    encodings), [k = 2 + ceil(log2 jobs)] capped by the number of
    available atoms: four times as many paths as workers, because sign
    splits on choice atoms are uneven (the all-false branch keeps most
    of the space) and the surplus lets the pool balance the load. Paths
    are scheduled most-constrained first (descending count of true
    assumption bits), so the quick branches run early and seed the
    exchange for the wide ones. Merged statistics accumulate every
    branch's counters; [stats.wall_s] is the measured elapsed time of
    the whole fan-out while {!report.path_walls} keeps the per-branch
    solver walls, whose max is the critical path (the ideal-parallel
    lower bound).

    By default the branches exchange learned nogoods through an
    {!Asp.Exchange} hub ([?share], on unless disabled): each solver
    publishes the short/low-LBD clauses of its 1-UIP analyses that are
    untainted by path-local nogoods, so every import is valid under any
    other branch's assumptions and the merged result stays bit-for-bit
    the sequential answer — sharing changes the work, never the
    answer. *)

type report = {
  models : Asp.Model.t list;  (** merged, sorted — equal to sequential *)
  stats : Asp.Solver.Stats.t;
      (** accumulated over branches; [wall_s] is the measured wall of
          the whole solve *)
  paths : int;  (** guiding paths solved ([2^k], or 1 sequential) *)
  path_walls : float array;  (** per-branch solver wall times *)
}

val enumerate :
  ?oversubscribe:bool ->
  ?jobs:int ->
  ?limit:int ->
  ?share:bool ->
  Asp.Ground.t ->
  report
(** All stable models. [jobs <= 1] (and the default on single-core
    hosts) runs inline. Two kinds of program also stay on one path: a
    [limit], since a global model cap cannot be split across branches
    without over-enumerating, and a program the cheap tier accepts
    ({!Asp.Solver.cheap_eligible}), since that tier is off under
    assumptions and each path would pay a CDNL search for what one
    propagation-only solve answers. [oversubscribe] is passed to
    {!Pool.map} (tests use it to force real multi-domain execution on
    single-core hosts). [share] (default true) enables learned-nogood
    exchange between the branches. *)

val optimal :
  ?oversubscribe:bool ->
  ?jobs:int ->
  ?share:bool ->
  Asp.Ground.t ->
  report
(** Optimal models under weak constraints: every branch runs its own
    branch-and-bound under its guiding assumptions, and the global front
    is the minimum-cost slice of the union of the branch fronts. A
    program without weak constraints that the cheap tier accepts stays
    on one path, as in {!enumerate}: its optimum is its enumeration. *)
