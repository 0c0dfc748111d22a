(** Conflict-driven clause store and propagator: the CDCL kernel under
    the CDNL solver ({!Solver}).

    Keeps the assignment trail with decision levels, two-watched-literal
    unit propagation, 1-UIP conflict analysis with activity bumping
    (VSIDS), non-chronological backjumping, and activity-based deletion
    of learned clauses. Literals use the {!Completion} encoding ([2v]
    true / [2v+1] false); the kernel is agnostic to what the variables
    mean. Fully deterministic: ties in branching and deletion break on
    ids, no randomization. *)

type clause

type t

val create : ?branchable:int -> nvars:int -> stats:Solver_stats.t -> unit -> t
(** [branchable] (default [nvars]) bounds the variables kept in the
    decision heap: {!pick_branch} only ever returns vars below it (the
    solver passes the atom count — bodies and aggregates follow by
    propagation or are decided at the fringe). *)

val set_undo_hook : t -> (int -> unit) -> unit
(** Called once per literal popped off the trail by {!cancel_until}, most
    recent first; the solver uses it to roll back its lazy-propagator
    state (atom bitset, scope counters). *)

val set_stats : t -> Solver_stats.t -> unit
(** Count into another record from now on: each search on a reused
    kernel reports its own counters. *)

val unsat : t -> bool
(** A conflict surfaced at level 0: the clause set has no model. *)

val level : t -> int
val trail_size : t -> int

val trail_get : t -> int -> int
(** Trail literal by position; the solver scans newly assigned suffixes
    between propagation fixpoints. *)

val value_var : t -> int -> int
(** [1] true, [-1] false, [0] unassigned. *)

val value_lit : t -> int -> int
val var_level : t -> int -> int
val n_learnts : t -> int

val n_global_learnts : t -> int
(** Learned clauses that are not path-local: the ones {!reset} keeps. *)

val decision_lit : t -> int -> int
(** The decision literal that opened the given level (1-based). *)

val add_initial : t -> int array -> unit
(** Level-0 clause, simplified against the current top-level assignment;
    may set {!unsat}. Must only be called before the first decision. *)

val add_clean : t -> int array -> unit
(** Level-0 clause already simplified by {!Preprocess} (at least two
    literals, no duplicates, nothing assigned): attached without the
    per-clause re-checking of {!add_initial}. *)

val decide : t -> int -> unit
(** Open a new decision level and assert the literal (also used for
    guiding-path assumptions). *)

val propagate : t -> clause option
(** Unit propagation to fixpoint; [Some c] is a conflicting clause. *)

val analyze : t -> clause -> int array
(** 1-UIP conflict analysis; the asserting literal comes first. Only
    valid when the conflict involves the current decision level. *)

val analyzed_local : t -> bool
(** Whether the last {!analyze} resolved over a path-local clause
    (blocking nogood, bound prune, or a learnt descendant of one), or left
    out a level-0 literal assigned after {!seal}. Such resolvents depend
    on this path's assumptions or incumbent: they must not be published
    to the {!Exchange}, and {!reset} detaches them. *)

val learn : t -> root:int -> int array -> unit
(** Backjump as far as the learnt clause allows (never above [root]),
    attach it, assert its first literal, and decay activities. *)

type dyn_result = Sat | Unit | Conflict of clause | Empty

val add_dynamic : ?local:bool -> t -> learnt:bool -> int array -> dyn_result
(** Add a clause discovered during search (lazy aggregate/bound
    explanations, loop nogoods, blocking nogoods): the current assignment
    decides whether it is silent ([Sat]), propagating ([Unit]) or
    conflicting. [learnt] clauses are subject to deletion; blocking
    nogoods must be permanent. [local] (default false) marks the clause
    path-local — see {!analyzed_local}. *)

val force : t -> int -> clause -> unit
(** Assert a literal with an attached clause as reason. Used by the
    enumeration loop when chronological backtracking leaves a blocking
    clause with exactly one unassigned literal — a unit that event-driven
    propagation cannot see, since no new assignment touches the clause. *)

val cancel_until : t -> int -> unit

val reduce_db : t -> unit
(** Delete the coldest half of the learned clauses; reasons and short
    clauses survive. *)

val pick_branch : t -> int option
(** Deterministic VSIDS pick from the activity heap: highest activity,
    lowest id on ties, saved-phase polarity (initially false) — the same
    choice the former linear scan made, found in O(log n). [None] when
    every branchable variable is assigned. *)

val seal : t -> unit
(** Mark the level-0 assignment so far (the initial clauses propagated to
    fixpoint) as the part {!reset} keeps. Level-0 facts assigned later —
    learnt units, or propagation when no assumption opened a level — are
    provisional. *)

val reset : t -> unit
(** Prepare the kernel for another search under other assumptions:
    backtrack to level 0, pop the level-0 facts assigned since {!seal},
    and detach every path-local clause (blocking nogoods, bound prunes and
    the resolvents {!analyzed_local} marked). What is left is the initial
    clauses, the non-local clauses {!add_dynamic} added, and resolvents
    of those alone; none depends on a search's decisions, so all of them
    hold under any assumptions. Activities and saved phases stay. *)
