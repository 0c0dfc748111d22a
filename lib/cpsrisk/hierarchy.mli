(** A hierarchical attack-surface case study for the incremental CEGAR
    driver and the engine-backed mitigation frontier — the scaled-up
    companion to the water tank: a layered ICS network whose structure is
    revealed level by level, in the spirit of the paper's model
    refinement step (§V): the coarse model over-approximates what the
    attacker can do, and each refinement adds discovered structure
    (firewall rules) that eliminates spurious attack hypotheses.

    {b Refinement side.} The abstraction is attacker routing: entry
    hypotheses [e1..eC] connect through per-entry gateways into a zone
    chain [z1 → … → zL → core → plant] with dead-end decoys and skip
    edges. A candidate claims "the attacker enters here and reaches the
    plant"; the encoding is stratified reachability

    {v reach(T) :- reach(S), flow(S, T), not blocked(S, T). v}

    and demands [:- not hazard.] — a candidate survives iff the plant is
    reachable from its entry. Refinement level [k] adds [blocked/2]
    facts: the firewall on gateway [k] (eliminating entry hypothesis
    [k]) and the decoy on zone [k]. With no route to choose, every
    candidate is decided by the grounder, with no solver.

    {b Frontier side.} A deterministic error-propagation plant (no
    choice, unique stable model): attacks injected at fixed sources
    propagate through a layered flow network unless shielded; each of
    the ≥12 costed actions shields specific nodes. The residual is the
    weight of erred assets — monotone in the active set (more shields,
    fewer errors), which licenses the branch-and-bound walk of every
    {!Mitigation.Frontier} search. *)

(** {1 Refinement schedule} *)

val default_levels : int
(** 6 — the bench's hierarchy depth. *)

val default_entries : int
(** 9 entry hypotheses: the first {!default_levels} are spurious (each
    refinement level eliminates one), the rest are confirmed. *)

val refine_spec :
  ?levels:int ->
  ?entries:int ->
  ?mode:[ `Assume | `Increment ] ->
  unit ->
  Cegar.Inc.spec
(** The CEGAR schedule: base abstraction plus [levels] structural
    increments over [entries] candidates (entry hypothesis [i] is the
    delta with fault ["Ei"], entering at node [ei]). Each hypothesis
    compiles to an [entry(ei).] fact that {!Asp.Grounder.decide} answers
    against the level's warm state. [mode] is ignored: both values build
    this one spec. It remains only because the end-to-end benchmark
    passes it, and goes with the benchmark's [--mode] runs. Requires
    [1 <= levels < entries]. *)

val spurious_entries : levels:int -> string list
(** The fault ids eliminated by the schedule, in elimination order. *)

(** {1 Mitigation frontier} *)

val frontier_actions : Mitigation.Action.t list
(** 12 costed shield actions [MS1..MS12], one per inner plant node, with
    deliberately overlapping coverage and varied costs so the Pareto
    front is non-trivial. *)

val frontier_base : Asp.Program.t
(** Plant topology facts, [protects/2] catalog and the propagation
    rules; scenario-independent, prepared once. *)

val frontier_compile : Engine.Delta.t -> Asp.Program.t
(** Delta mitigations → [active/1] facts. *)

val frontier_delta : active:string list -> Engine.Delta.t

val error_sig : string * int
(** [error/1], the one predicate {!frontier_measure} reads. *)

val frontier_measure : Asp.Model.t list -> int
(** Severity-weighted erred assets of the unique stable model; raises
    [Invalid_argument] if the model is not unique. *)

val frontier_spec : unit -> Engine.Job.spec
(** {!frontier_base} with [#show error/1] + {!frontier_compile}, no
    deltas — prepare it once and hand it to {!Mitigation.Frontier.make}. *)

val frontier_of :
  ?cache:Mitigation.Frontier.value Engine.Cache.t ->
  Engine.Job.prepared ->
  Mitigation.Frontier.t
(** The frontier over already-warm prepared state (a prepared
    {!frontier_spec}) — the serve layer shares a loaded model's state and
    cache this way. *)

val frontier :
  ?cache:Mitigation.Frontier.value Engine.Cache.t ->
  unit ->
  Mitigation.Frontier.t
(** A ready frontier over a freshly prepared {!frontier_spec}. *)
