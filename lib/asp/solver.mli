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
    pruned search), which also hold the independent Gelfond–Lifschitz
    model check.
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
    that A/B them — no shipped command exposes them.

    [?assumptions] fixes atom values under dedicated decision levels
    before search starts — the guiding-path mechanism used by
    [Engine.Par] to split enumeration across domains deterministically.
    [Config.exchange] plugs the solver into a learned-nogood {!Exchange}
    between such domains: only clauses from 1-UIP analyses untainted by
    path-local nogoods are published, so imports are sound under any
    other path's assumptions and the merged result stays bit-for-bit
    identical to a sequential solve. *)

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
            automatically under assumptions and under optimization with
            weak constraints *)
    exchange : (Exchange.t * int) option;
        (** learned-nogood sharing: the hub and this solver's path id
            (default [None]) *)
  }

  val default : t
end

val solve :
  ?limit:int ->
  ?assumptions:(Atom.t * bool) list ->
  ?config:Config.t ->
  Ground.t ->
  Model.t list
(** All stable models (up to [limit], default unlimited), deduplicated,
    sorted by atom set; [#show] projections are {e not} applied — use
    {!Model.project} with [Ground.shows]. Under [assumptions], exactly
    the stable models consistent with the assumed atom values. *)

val solve_with_stats :
  ?limit:int ->
  ?assumptions:(Atom.t * bool) list ->
  ?config:Config.t ->
  Ground.t ->
  Model.t list * Stats.t
(** Same as {!solve}, also returning search statistics. *)

val solve_optimal :
  ?assumptions:(Atom.t * bool) list ->
  ?config:Config.t ->
  Ground.t ->
  Model.t list
(** Models with the minimal weak-constraint cost (all optima). *)

val solve_optimal_with_stats :
  ?assumptions:(Atom.t * bool) list ->
  ?config:Config.t ->
  Ground.t ->
  Model.t list * Stats.t

val satisfiable : ?config:Config.t -> Ground.t -> bool

val cheap_eligible : Ground.t -> bool
(** Whether the cheap-tier classifier accepts the program (exposed for
    tests of the tier dispatch; see {!Cheap.eligible}). *)

val guiding_atoms : Ground.t -> int -> Atom.t list
(** Up to [n] split atoms for guiding-path parallel enumeration: choice
    atoms in interned id order, then atoms under negation. Conditioning
    on any atom set partitions the model space, so fanning out over all
    [2^k] sign vectors and merging is equivalent to a sequential solve. *)
