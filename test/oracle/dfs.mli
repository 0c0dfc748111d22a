(** The retained pruned-DFS solving path (pre-CDNL), kept verbatim as a
    second test-only oracle next to {!Naive}.

    The ground program is compiled once into a dense interned form
    ({!Interned}): atoms become contiguous int ids, assignments become
    bitsets. Enumeration is a pruned depth-first search over the choice
    space, stratum by stratum:

    - {b Semi-naive propagation}: a watch index maps each atom to the rules
      and choice elements whose bodies mention it positively within the same
      stratum, so deterministic consequences fire incrementally instead of
      rescanning every rule to fixpoint.
    - {b Branching on fired elements only}: a choice element becomes a
      decision point only once its body and condition hold, which collapses
      guess classes that the exhaustive enumerator ({!Naive}) distinguishes.
    - {b Pruning}: a subtree is abandoned as soon as an integrity constraint
      or a choice upper bound is violated on atoms whose values are already
      final; remaining constraint/bound checks run at the stratum boundary
      where all their atoms are final.
    - {b Branch-and-bound} ({!solve_optimal}): once an incumbent model
      exists, a stratum boundary whose partial weak-constraint cost already
      exceeds the incumbent is pruned — only when all weights are
      non-negative, otherwise the partial cost is not a lower bound.

    Programs that are not stratified modulo choices fall back to exhaustive
    guessing over choice and negated atoms with a per-leaf reduct check,
    interned but still [2^n] and capped at {!default_max_guess} atoms —
    the limitation that motivated the CDNL rewrite ([Asp.Solver]). Results
    are bit-for-bit identical to {!Naive} on any program both accept. *)

exception Unsupported of string
(** The guess space is too large ([> max_guess] atoms), or a non-stratified
    program uses aggregates. *)

val default_max_guess : int
(** 64. The pruned search tolerates far larger choice spaces than the
    exhaustive enumerator's historical cap of 24, but the dimension check
    stays as a guard against accidentally huge groundings. *)

module Stats = Solver_stats

val solve : ?limit:int -> ?max_guess:int -> Ground.t -> Model.t list
(** All stable models (up to [limit], default unlimited), deduplicated,
    sorted by atom set; [#show] projections are {e not} applied — use
    {!Model.project} with [Ground.shows]. [max_guess] defaults to
    {!default_max_guess}. *)

val solve_with_stats :
  ?limit:int -> ?max_guess:int -> Ground.t -> Model.t list * Stats.t
(** Same as {!solve}, also returning search statistics. The stats record
    is fresh per call. *)

val solve_optimal : ?max_guess:int -> Ground.t -> Model.t list
(** Models with the minimal weak-constraint cost (all optima). *)

val solve_optimal_with_stats :
  ?max_guess:int -> Ground.t -> Model.t list * Stats.t

val satisfiable : ?max_guess:int -> Ground.t -> bool

val is_stable_model : Ground.t -> Model.AtomSet.t -> bool
(** {!Naive.is_stable_model}. *)
