(** Semi-naive, index-driven, incrementally extensible grounder.

    Every rule body is compiled into a join plan over a slot environment:
    the rule's variables are numbered into the slots of an array, and
    which slots are bound at each level of the join is known statically.
    A level's per-argument match operations, its probe keys and composite
    mask, the builtins decided on entering it (an [X = expr] equality with
    a ground right-hand side acts as an assignment, as in clingo) and the
    range bounds its pending builtins give are all fixed at compile time;
    one executor runs the plans of both phases, reading and writing slots
    only.

    Phase 1 closes the atom universe over the positive projection of the
    program with a {e semi-naive} fixpoint run in snapshot (BFS) rounds:
    atoms are stamped with the round that derived them, head templates
    are indexed by body-predicate signature and carry one plan per delta
    position, and a round re-fires only the (template, body-position)
    pairs whose signature gained an atom in the previous round. The delta
    literal is joined first (its one-generation window is the most
    selective), except that a literal with an arithmetic argument waits
    for the variables it reads; each join result is derived exactly once.
    The store is frozen while a round's work items fire: derivations are
    buffered and committed in item order between rounds. Phase 2
    instantiates every rule with its body-order plan against per-signature candidate tables
    discriminated per argument position (smallest-bucket selection over
    every key, lazily materialized composite multi-argument group tables,
    and range narrowing for integer-keyed positions), in canonical
    ascending {!Atom.compare} order. The matched atoms are the ground
    positive body; negative literals, heads, aggregate and choice elements
    are built from the slots once per match.

    The pre-rewrite naive grounder survives as a test-only differential
    oracle in [test/oracle/]: on any accepted program both produce
    structurally equal [Ground.t] values ([test/test_grounder_diff.ml]).

    Safety: every variable of a rule must be bound by a positive body
    literal, an assignment, or — for choice elements — the element's own
    condition. Arithmetic that cannot be evaluated where a join reaches
    it (on a symbol, by zero) is reported as {!Unsafe}, located at the
    rule. *)

exception Unsafe of string
(** A rule violates the safety condition, or its arithmetic fails to
    evaluate during grounding. *)

exception Overflow of string
(** The universe exceeded [max_atoms] (non-terminating arithmetic recursion
    such as [p(X+1) :- p(X)] without a bound). *)

(** Grounding effort counters, in the mould of {!Solver.Stats}: shared by
    {!ground}, {!prepare} and {!extend}, surfaced by [cpsrisk solve/sweep
    --stats] and the benches. *)
module Stats : sig
  type t = {
    mutable passes : int;  (** semi-naive fixpoint rounds *)
    mutable firings : int;  (** successful phase-1 rule firings *)
    mutable probes : int;  (** candidate-index lookups, both phases *)
    mutable fresh_rules : int;  (** ground rules instantiated anew *)
    mutable reused_rules : int;
        (** base instances shared by {!extend} without re-derivation *)
    mutable wall_s : float;
  }

  val create : unit -> t

  val add : into:t -> t -> unit
  (** Accumulate [s] into [into] (benches aggregate per-run counters). *)

  val to_string : t -> string
  val pp : Format.formatter -> t -> unit
end

val ground :
  ?max_atoms:int ->
  ?stats:Stats.t ->
  Program.t ->
  Ground.t
(** One-shot grounding. [max_atoms] defaults to 200_000; effort is added to
    [stats] when given. Bit-for-bit equal to the reference grounder's
    output on any program both accept. The result's {!Ground.numbering}
    covers its whole universe. *)

type prepared
(** Reusable grounding state for a base program: its closed universe with
    candidate indexes and its {!Ground.numbering}, head-derivation
    templates, and per-rule ground instances with the signature metadata
    {!extend} classifies against. Read-only after {!prepare} — one
    [prepared] may be extended from many domains concurrently. *)

val prepare :
  ?max_atoms:int ->
  ?stats:Stats.t ->
  Program.t ->
  prepared
(** Ground the base once, keeping the state an increment can extend. The
    base universe is numbered here, once, in {!Atom.compare} order; the
    ids are stored in the universe table the grounder already keeps, so
    the numbering costs no second table. Raises like {!ground} if the
    base itself is unsafe or overflows. *)

val base : prepared -> Ground.t
(** The base program's own grounding (what [ground base] returns, with
    the same numbering). *)

val base_universe : prepared -> Model.AtomSet.t

val extend : ?stats:Stats.t -> prepared -> Program.t -> Ground.t
(** [extend state delta] grounds base + delta doing work proportional to
    what the delta adds. The universe fixpoint restarts from the delta's
    rules only (the base is already closed); base rules are then classified
    by the signatures that gained atoms — untouched rules share their base
    instances wholesale, rules whose positive body joins are touched share
    the old instances and enumerate only joins involving a new atom, and
    rules whose negated-atom / aggregate / choice-condition signatures are
    touched are recomputed so negative-literal simplification and element
    sets stay exact against the full universe.

    Equivalent to [ground (Program.append base delta)] up to duplicate
    ground rules across source rules (each source rule's instances are
    exact; the global cross-rule dedup of {!ground} is not re-applied to
    shared instances): same universe, same stable models, same costs.
    The result carries the base's numbering, shared and unchanged, so a
    compiled increment ({!Interned.compile}) keeps every base atom's id
    and numbers only the atoms the delta adds.
    Raises like {!ground} if the delta is unsafe or the combined universe
    overflows [prepare]'s [max_atoms]. *)

val extend_prepare : ?stats:Stats.t -> prepared -> Program.t -> prepared
(** [extend_prepare state delta] is to {!prepare} what {!extend} is to
    {!ground}: it absorbs [delta] as a permanent structural increment and
    returns warm state for [base + delta], doing instance work
    proportional to what the delta touches (the same share / delta-join /
    recompute classification as {!extend}). Chains: a refinement sequence
    pays one [extend_prepare] per level instead of a scratch re-ground,
    and the result can itself be {!extend}ed per what-if delta.

    The returned state's {!base} is equivalent to
    [ground (Program.append base delta)] in the sense documented for
    {!extend} — same universe, same stable models, same costs; rule
    emission order may differ from a scratch {!prepare}. The combined
    universe is numbered afresh, in {!Atom.compare} order. The input
    [state] is not mutated and stays usable. Raises like {!extend}. *)
