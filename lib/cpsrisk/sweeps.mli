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

val violated_sig : string * int
(** [violated/1], the one predicate a water-tank reading uses. *)

val violated_atom : Epa.Requirement.t -> Asp.Atom.t
(** The {!violated_sig} atom of a requirement. *)

val water_tank_spec :
  ?horizon:int -> ?mode:Engine.Job.mode -> Engine.Delta.t list ->
  Engine.Job.spec
(** Jobs over {!Water_tank.asp_base} (built once) with [#show violated/1],
    so job models hold only {!violated_sig} atoms; each delta compiled to
    its activation facts via {!Water_tank.asp_activation_facts}; [extra]
    delta statements are parsed and appended. *)

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
