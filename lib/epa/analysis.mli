(** The EPA engine (Fig. 1 steps 2–4): exhaustive evaluation of the
    scenario space against the safety requirements.

    A {!system} packages the fault catalog, the mitigation blocking
    relation (Listing 1 semantics), a builder producing the qualitative
    dynamics for a given set of active faults, and the requirements. *)

type system = {
  catalog : Fault.t list;
  blocks : string -> string list;
      (** fault ids blocked by an active mitigation *)
  build : faults:string list -> Ltl.Ts.t;
      (** dynamics of the system under the given {e effective} faults; a
          deterministic function of that list alone (see {!scope}) *)
  requirements : Requirement.t list;
}

type row = {
  scenario : Scenario.t;
  effective : string list;  (** faults after blocking + induced closure *)
  verdicts : (string * Requirement.verdict) list;  (** per requirement id *)
}

(** {2 Evaluation by effective fault set}

    A scenario's verdicts depend on it only through its {e effective}
    faults ({!Scenario.effective_faults}: the activated faults no
    mitigation blocks, closed over the faults they induce, sorted and
    duplicate-free): [build] is handed that list and nothing else, and
    the requirements are checked on what it returns. So scenarios whose
    effective lists are equal have equal verdicts, whatever their
    activated faults and mitigations. A {!scope} relies on exactly this
    contract: it builds and model-checks one transition system per
    distinct effective list and answers every other scenario with that
    list from its table. A [build] that reads anything besides its
    [~faults] argument, or that is not deterministic, breaks it. *)

type scope
(** The verdicts of one {!system} at one horizon, by effective fault
    list. A scope is a value owned by the call or search that made it
    ({!run} makes one per call): it lives as long as its owner holds it,
    is never shared between threads, and grows by at most one entry per
    distinct effective list. *)

val scope : ?horizon:int -> system -> scope

val evaluate : scope -> Scenario.t -> row
(** The scenario's row: its own [effective] list, with the verdicts of the
    first evaluation of that list in this scope (built and checked on a
    miss). Equal to {!run_scenario} with the scope's horizon. *)

val sweep : ?max_faults:int -> ?mitigations:string list -> scope -> row list
(** {!run} through the given scope: every fault combination under the
    mitigation set, each combination evaluated with {!evaluate}. *)

val loss : weights:(string * int) list -> scope -> active:string list -> int
(** Severity-weighted violations across the whole fault sweep under the
    mitigations [active]: each row adds the weight of every requirement
    it violates ([weights] maps requirement ids; an id without a weight
    counts 0). The residual of a mitigation search over the scope's
    system; every candidate set evaluated through one scope shares its
    table. *)

val run_scenario : ?horizon:int -> system -> Scenario.t -> row
(** One scenario in a scope of its own: builds one transition system. *)

val run :
  ?horizon:int ->
  ?max_faults:int ->
  ?mitigations:string list ->
  system ->
  row list
(** Exhaustive sweep over the fault combinations (§IV.A), each combined
    with the given mitigation set, through one scope per call. *)

val violations : row -> string list
(** Requirement ids violated in this row. *)

val hazardous : row list -> row list
(** Rows violating at least one requirement. *)

val most_severe : row list -> row list
(** Hazardous rows ranked: more violated requirements first, then {e fewer}
    simultaneous faults first — the paper's §VII argument that S5 (two
    faults) is more severe than S7 (three faults, same violations, lower
    simultaneous-occurrence probability). *)

val pp_row : Format.formatter -> row -> unit
