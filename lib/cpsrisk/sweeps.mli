(** Sweep builders: the glue between the batch engine ({!Engine.Sweep}) and
    the framework's ASP backends. A builder fixes the shared base program
    and the delta→increment compiler; the engine does the rest (base reuse,
    content-addressed caching, results in delta order). *)

val scenario_delta : ?label:string -> Epa.Scenario.t -> Engine.Delta.t
val delta_scenario : Engine.Delta.t -> Epa.Scenario.t

val all_fault_deltas :
  ?mitigations:string list -> Epa.Fault.t list -> Engine.Delta.t list
(** One delta per fault combination (the §IV.A scenario space), each under
    the given mitigation set — the default sweep workload. *)

val random_deltas :
  ?fault_pool:string list ->
  ?mitigation_pool:string list ->
  seed:int -> int -> Engine.Delta.t list
(** [n] deltas drawn with a seeded PRNG: a uniform fault subset from
    [fault_pool] (default F1–F4) paired with a uniform mitigation subset
    from [mitigation_pool] (default M1–M3). Draws repeat — deliberately, to
    model mitigation-search/CEGAR workloads where identical what-ifs recur
    and exercise the solve cache. *)

(** {2 Water-tank temporal backend} *)

type horizon
(** The water-tank spec's horizon shortcut: its horizon, its probe
    horizon and counts of how it answered. *)

val violated_sig : string * int
(** [violated/1], the one predicate a water-tank reading uses. *)

val violated_atom : Epa.Requirement.t -> Asp.Atom.t
(** The {!violated_sig} atom of a requirement. *)

val water_tank_spec :
  ?horizon:int -> ?mode:Engine.Job.mode -> Engine.Delta.t list ->
  Engine.Job.spec
(** Jobs over {!Water_tank.asp_base} at [horizon] (default
    {!Water_tank.default_horizon}) with [#show violated/1], so job models
    hold only {!violated_sig} atoms; each delta compiled to its
    activation facts via {!Water_tank.asp_activation_facts}; [extra]
    delta statements are parsed and appended. The fingerprints, and so
    the cache and store keys, are those of this base.

    The horizon H is the semantics; the work is bounded by the trace's
    lasso. The spec's shortcut decides each delta without [extra] rules
    against a base at the probe horizon h0 = {!probe_horizon}[ H],
    also showing only [violated/1], prepared when the spec is built and
    ground on its first job. The dynamics are deterministic and
    time-homogeneous, so each trace is a lasso (prefix i, period p), and
    {!Telingo.Compile.reduce_horizon} (depth 2, the deeper of R1 and R2)
    folds H and h0 onto the same horizon whenever p divides 12 and
    i + 2p <= 12. The engine tests pin that premise for every subset of
    the catalog's faults and mitigations; any other id activates
    nothing. A delta with [extra] rules (they may break determinism or
    time-homogeneity) is unrolled at H, the generic {!Engine.Job} answer,
    whose base is then ground on first need; below 24 the probe is H
    itself and every job is that answer. Answers and models read as the
    full unrolling's would; the work counters are the probe's. Raises
    [Invalid_argument] on a negative horizon. *)

val water_tank :
  ?horizon:int -> ?mode:Engine.Job.mode ->
  Engine.Delta.t list -> Engine.Job.spec * horizon
(** {!water_tank_spec} with the handle on how its shortcut answers. *)

val probe_horizon : int -> int
(** The probe horizon of H: H itself below 12, else the horizon in
    [12..23] congruent to H modulo 12. Raises [Invalid_argument] on a
    negative H. *)

val render_horizon : horizon -> string
(** How the spec's fresh jobs were answered so far (cached answers do
    not count) as one [sweep --stats] line, newline included: the jobs
    decided at h0 and the jobs unrolled at H. *)

val verdicts : Engine.Job.result -> (string * bool) list
(** [(requirement id, violated?)] from a water-tank job's unique stable
    model; raises [Invalid_argument] if the model is not unique. *)

(** {2 Generic topology backend} *)

val affected_sig : string * int
(** [affected/1], the one predicate the topology reading uses. *)

val topology_spec :
  Archimate.Model.t -> Engine.Delta.t list -> Engine.Job.spec
(** Static error propagation over any system model (§VI focus 1): the base
    is the model's ASP facts ({!Archimate.To_asp.facts}) plus propagation
    rules along [flow/2] edges; a delta's faults are {e component ids}
    whose elements are error sources ([injected/1] facts), its mitigations
    become [active_mitigation/1] facts that shield the named components.
    Each job has one stable model listing the [affected/1] components;
    the base shows {!affected_sig}, so that is all the model holds. *)

val model_element_deltas : Archimate.Model.t -> Engine.Delta.t list
(** One single-injection delta per element that carries a
    [component_type] or [fault_modes] property — the default what-if set
    for {!topology_spec}. *)

val affected : Engine.Job.result -> string list
(** Affected component ids from a topology job's model, sorted. *)
