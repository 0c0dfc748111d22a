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

    The four entry points share one core. {!ground} is {!base} of
    {!prepare}: the prepared state's rule list, each ground instance
    kept at its first occurrence in source-rule order, is the one-shot
    result. {!extend} and {!extend_prepare} run the same overlay
    fixpoint and the same per-rule instance update over the base's
    entries; {!extend} reads the combined universe through a view
    merged per key on first lookup and returns the instances, while
    {!extend_prepare} merges the tables and store once and keeps the
    updated entries as warm state.

    {!decide} is the fifth: for a stratified normal base + delta it runs
    the same phase-1 templates stratum by stratum, checking negated
    literals against the complete lower strata, and returns the one
    model instead of a ground program; a stratum whose inputs an earlier
    call already saw is taken from a per-base memo.

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
    {!ground}, {!prepare}, {!extend} and {!extend_prepare}, surfaced by
    [cpsrisk solve/sweep --stats] and the benches. *)
module Stats : sig
  type t = {
    mutable passes : int;  (** semi-naive fixpoint rounds *)
    mutable firings : int;  (** successful phase-1 rule firings *)
    mutable probes : int;  (** candidate-index lookups, both phases *)
    mutable fresh_rules : int;
        (** ground instances instantiated, counted before cross-rule
            dedup: an instance two source rules share counts twice *)
    mutable reused_rules : int;
        (** base instances shared by {!extend} without re-derivation *)
    mutable decided : int;
        (** increments {!decide} answered (at most one per call) *)
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
(** One-shot grounding: [base (prepare p)]. [max_atoms] defaults to
    200_000; effort is added to [stats] when given. Bit-for-bit equal to
    the reference grounder's output on any program both accept. The
    result's {!Ground.numbering} covers its whole universe. *)

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

val decide : ?stats:Stats.t -> prepared -> Program.t -> Model.t list option
(** [decide state delta] answers base + delta straight from the
    grounder when both are a stratified normal program: normal rules
    with builtins and constraints — no choice rule, no weak constraint,
    no aggregate — stratified at the predicate level over base + delta
    rules. Such a program has exactly one candidate model, its perfect
    model, so no ground program is built, numbered or solved. [None]:
    not in that fragment (or grounding it raised) — run {!extend} and
    the solver instead, which then report exactly what they always did.

    [Some []] when a constraint fails, else [Some [m]] with [m] holding
    the atoms of the [#show] signatures of base and delta (every atom
    when neither shows any): the models {!Solver.solve} of
    [extend state delta] returns, in both projections.

    The strata run in dependency order (one strongly connected component
    of the predicate graph at a time, callees first), each to its
    semi-naive fixpoint over the phase-1 templates, and a negated literal
    is checked against the lower strata, which are complete by then. The
    strata that do not depend, through base + delta rules, on any
    signature the delta defines are evaluated once per prepared base and
    set of defined signatures, and shared read-only by every later call
    (from any domain); only the dependent strata are evaluated per call.
    They are evaluated afresh, never seeded from the base's own model: a
    delta can retract base atoms through negation (the water tank's
    [activated(f1)] retracts [holds(in_valve,closed,T)]).

    Across calls, a dependent component is memoised per prepared base
    and set of defined signatures when the delta brings only facts and
    constraints (a delta with rules changes the component layout and
    bypasses the memo). Its key is the component and a content id for
    each dependent signature it reads, positive and negated: a negated
    input decides what the component derives as much as a positive one.
    Content ids compare extensions atom by atom, never by hash alone, so
    equal extensions reached through different facts share one. A
    component the delta's facts define always runs. On a hit the stored
    extensions are taken without a round; they enter the call's store
    only when a later missing component or a constraint reads them. The
    memo keeps at most 2{^14} atoms and entries per prepared base, and
    stops keeping once past 64 entries it answers fewer than one hit
    per 16 stored; it is shared by every domain deciding against that
    base, under one mutex. It changes only the work counted in [stats],
    never the answer.

    Because only model atoms are ever joined, a program whose grounding
    {!extend} rejects — arithmetic that fails, or a universe past
    [max_atoms], only in instances negation blocks — may be answered
    here. Counts one [decided] in [stats] when it answers. *)
