(** Clause-level preprocessing over completion nogoods ({!Completion}),
    run once before CDNL search ({!Solver}).

    Two reductions, in order: unit propagation to fixpoint, which is sound
    unconditionally; and binary-clause equivalence reduction, which
    merges body variables into a representative. Equivalence reduction
    touches only variables at or above [body_base] and only when
    [elim_bodies] is set, which callers tie to the program being tight:
    body variables of a tight program carry no semantics beyond their
    clauses (no unfounded-set check reads them) and are auto-decided at
    the search fringe, so merging them preserves the enumerated atom
    projections bit for bit. Counts land in the [pre_*] fields of the given
    {!Solver_stats.t}. *)

type result = {
  clauses : int array list;
      (** surviving simplified clauses, each with at least two literals,
          in input order *)
  forced : int list;
      (** literals fixed at level 0 (units), in
          derivation order; assert these before attaching [clauses] *)
  unsat : bool;  (** a contradiction surfaced: the clause set has no model *)
}

val run :
  ?elim_bodies:bool ->
  nvars:int ->
  body_base:int ->
  stats:Solver_stats.t ->
  int array list ->
  result
(** [elim_bodies] (default false) enables the body-variable-only
    equivalence reduction; pass the completion's
    tightness flag. Deterministic: identical inputs produce identical
    outputs regardless of hash-table iteration order. *)
