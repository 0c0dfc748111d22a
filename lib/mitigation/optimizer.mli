(** Cost-benefit optimization of mitigation selections (§IV.D): exact
    search over mitigation subsets with budget constraints, Pareto
    analysis, and the multi-phase consolidation strategy for SMEs with
    staged budgets.

    The objective is supplied as [residual]: any integer loss measure of
    the system under the given active mitigations (e.g. expected loss,
    number of hazardous scenarios, worst-case severity). Smaller is
    better. *)

type problem = {
  actions : Action.t list;
  residual : active:string list -> int;
}

type solution = {
  selected : string list;  (** mitigation ids, sorted *)
  cost : int;
  residual : int;
}

val evaluate : problem -> string list -> solution

val better : solution -> solution -> bool
(** The strict total order of the searches: smaller residual, then
    cheaper, then lexicographically smaller selection. Exposed so
    engine-backed searches ({!Frontier}) replay the exact
    tie-breaking. *)

val fold_subsets_within_budget :
  Action.t list ->
  int option ->
  init:'a ->
  f:('a -> string list -> int -> 'a) ->
  'a
(** Fold over every action subset whose total cost fits the budget, as
    [f acc selected cost] in inclusion-order DFS with cost pruning
    (costs are non-negative by {!Action.make}). Evaluation happens in
    place during enumeration — live memory is the O(actions) DFS spine,
    never a materialized subset list. The sequential searches below are
    all folds over this; it is exposed for callers (the engine-backed
    {!Frontier}) that need the same enumeration order. *)

val optimal : ?budget:int -> problem -> solution
(** Minimal residual within budget; ties broken by lower cost, then
    lexicographic selection. Exhaustive with cost pruning, streaming
    through {!fold_subsets_within_budget} in O(actions) memory — exact
    for the catalog sizes of the paper's domain (≤ ~20 actions). *)

val pareto : problem -> solution list
(** Cost-vs-residual Pareto front over all subsets, sorted by cost: no
    front member is dominated (lower-or-equal cost {e and} residual, one
    strict) by any subset. *)

val dominates : solution -> solution -> bool
(** [dominates a b]: [a] costs no more and leaves no more residual than
    [b], and is strictly better on one of the two. *)

val insert_front : solution list -> solution -> solution list
(** One step of {!pareto}'s running front: drop [s] if a member
    dominates it, else add it and drop the members it dominates,
    keeping one representative per (cost, residual) point — the
    lexicographically smallest selection. The result does not depend on
    the order of insertion. Exposed so the engine-backed {!Frontier}
    keeps the same front. *)

val sort_front : solution list -> solution list
(** A front in {!pareto}'s order: by cost, then residual, then
    selection. *)

val budget_sweep : problem -> budgets:int list -> (int * solution) list
(** {!optimal} per budget — the §IV.D trade-off curve. *)

val multi_phase : problem -> phase_budgets:int list -> solution list
(** Staged consolidation: each phase adds actions within its own budget on
    top of the previous selection, choosing the exact best increment. The
    returned list gives the cumulative solution after each phase. *)

val benefit : problem -> solution -> int
(** Loss reduction w.r.t. doing nothing: residual(∅) − residual(sel). *)

val pp_solution : Format.formatter -> solution -> unit
