(** Propagation-only solving tier for programs whose negation the
    well-founded bounds decide (see {!Solver}'s [Config.cheap_tier]).

    Fragment: no aggregates, no choice bounds. A lower closure [cf]
    (facts and forced choices) and an upper closure [cm] (every
    non-banned choice candidate too) are computed as an alternating
    fixpoint — a rule with [not b] fires in [cf] only if [b ∉ cm], in
    [cm] only if [b ∉ cf] — so every stable model lies between them.
    Rules blocked by [cf], dead under [cm] or with their head in [cf] are
    dropped; every other negated literal must be outside [cm] and is read
    as true. Every choice-element guard must be decided, every constraint
    dead or forcing a single free choice atom. The remaining program is
    definite, so stable models are exactly the least fixpoints of its
    rules over [cf] plus a subset of licensed choice atoms, and detection
    is sound on non-tight inputs too: an unsupported positive loop never
    enters a closure. Stratified programs are always inside the fragment;
    an undecided negated literal or guard (an even or odd negative loop,
    negation over a free choice atom) falls back to the full CDNL
    tier. *)

val eligible : Interned.t -> bool
(** True when the classifier accepts the program (including the case
    where it proves unsatisfiability outright). Exposed for tests. *)

val solve :
  ?limit:int -> stats:Solver_stats.t -> Interned.t -> Model.t list option
(** [None]: not in the fragment — the caller must run full CDNL.
    [Some models]: the complete (up to [limit]), deduplicated, sorted
    enumeration, bit-for-bit what the full tier returns. Sets
    [stats.cheap] and fills the search counters. *)
