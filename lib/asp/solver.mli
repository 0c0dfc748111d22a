(** Stable-model search by conflict-driven nogood learning (CDNL-ASP).

    The one solving path the library ships. The ground program is
    compiled to its Clark completion over atom, aggregate and body
    variables ({!Completion}); search is a CDCL loop ({!Nogood}):
    two-watched-literal unit propagation over a trail with decision
    levels, 1-UIP conflict analysis with clause learning,
    non-chronological backjumping, VSIDS decision heuristic with saved
    phases, Luby restarts, and activity-based deletion of learned
    nogoods. On top of the clausal
    core sit three lazy ASP propagators:

    - {b aggregates} are evaluated against the candidate once every atom
      in their scope is assigned (the reference semantics: aggregates
      contribute no foundedness), asserting the aggregate variable with
      the scope assignment as reason;
    - {b choice bounds} likewise fire once their scope is assigned and
      contribute the violated assignment as a conflict;
    - {b unfounded-set checks} run on the non-trivial SCCs of the
      positive dependency graph whenever a support body becomes false:
      atoms without external support get loop nogoods (Lin–Zhao for
      arbitrary sets), so non-tight and non-stratified programs are
      solved natively, with no cap on the guess dimension.

    Models are enumerated with {e blocking nogoods under chronological
    backtracking}: recording a model pops one decision level and resumes
    instead of learning and restarting, so adjacent models are reached
    without rebuilding the assignment prefix (see DESIGN.md §12.3).
    Results are returned sorted, bit-for-bit identical to the test-only
    oracles in [test/oracle/] (an exhaustive enumerator and the pre-CDNL
    pruned search) projected on the program's [#show] signatures; the
    oracles return whole models and also hold the independent
    Gelfond–Lifschitz model check.
    {!solve_optimal} keeps branch-and-bound and learns a decision
    nogood from every bound violation; the bound is a per-priority-level
    lower bound that adds the weights of still-undecided negative tuples,
    so pruning stays sound (and enabled) under mixed-sign weights.

    Before search, the completion nogoods run through {!Preprocess}
    (unit propagation to fixpoint and, on tight programs, body-variable
    equivalence reduction). Programs whose negation the well-founded
    bounds decide skip completion, preprocessing and CDNL entirely
    ({!Cheap}): a lower and an upper closure, computed as an alternating
    fixpoint over the negated literals, enclose every stable model, so
    when no negated literal or choice guard is left undecided the models
    are the least fixpoints of the remaining definite rules over the free
    choice atoms. Stratified programs — the sweeps' what-if simulations
    among them — always qualify. Both are on by default; the {!Config}
    switches are library-level, for the differential tests and benches
    that A/B them — no shipped command exposes them. *)

module Stats = Solver_stats
(** Search statistics; fresh per [solve_*_with_stats] call, so repeated
    or re-entrant solves report independent counters and wall times. *)

module Config : sig
  type t = {
    preprocess : bool;
        (** run {!Preprocess} over the completion nogoods (default on) *)
    cheap_tier : bool;
        (** dispatch eligible programs to the propagation-only {!Cheap}
            tier (default on): no aggregates or choice bounds, and every
            negated literal and choice guard decided by the well-founded
            bounds, which enclose every stable model. Disabled
            automatically under optimization with weak constraints *)
  }

  val default : t
end

val solve : ?limit:int -> ?config:Config.t -> Ground.t -> Model.t list
(** All stable models (up to [limit], default unlimited). A model holds
    only the atoms of the program's [#show] signatures (every atom when
    it declares none): they are the only atoms built, never a whole model
    projected afterwards. The count is kept — stable models are distinct,
    but two may show the same atoms, and both are returned. The list is
    sorted by what the models show ({!Model.compare}). *)

val solve_with_stats :
  ?limit:int ->
  ?config:Config.t ->
  Ground.t ->
  Model.t list * Stats.t
(** Same as {!solve}, also returning search statistics. *)

val solve_optimal : ?config:Config.t -> Ground.t -> Model.t list
(** Models with the minimal weak-constraint cost (all optima). *)

val solve_optimal_with_stats :
  ?config:Config.t -> Ground.t -> Model.t list * Stats.t

val satisfiable : ?config:Config.t -> Ground.t -> bool

val cheap_eligible : Ground.t -> bool
(** Whether the cheap-tier classifier accepts the program (exposed for
    tests of the tier dispatch; see {!Cheap.eligible}). *)
