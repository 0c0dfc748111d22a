(** The paper's case study (§VII): a TEP-inspired water-tank system with
    input/output valve actuators, level sensor, controller, HMI and an
    Engineering Workstation.

    Two independent analysis backends are provided and must agree:
    - a discrete-time qualitative dynamics simulator checked with LTLf
      ({!build_dynamics}, {!system});
    - a generated temporal ASP program in the style of the paper's
      Listings 1–2 ({!asp_program}, {!asp_verdicts}), solved by the
      embedded stable-model engine.

    Fault modes: F1 input valve stuck-at-open, F2 output valve
    stuck-at-closed, F3 HMI no-signal, F4 infected engineering workstation
    (induces F1–F3). Mitigations: M1 user training, M2 endpoint security
    (both block F4). Requirements: R1 no overflow, R2 overflow is
    alerted. *)

val model : Archimate.Model.t
(** High-level Fig. 4 model. *)

val refined_model : Archimate.Model.t
(** With the Engineering Workstation decomposed into E-mail Client →
    Browser → Infected Computer and M1/M2 attached (Fig. 4 bottom). *)

val topology : Epa.Propagation.network
(** Flow topology for topology-based propagation (§VI focus 1). *)

val faults : Epa.Fault.t list
val mitigations : Mitigation.Action.t list
val requirements : Epa.Requirement.t list
val blocks : string -> string list

val build_dynamics : faults:string list -> Ltl.Ts.t
(** Qualitative dynamics under the given {e effective} fault ids. State
    variables: [level], [in_valve], [out_valve], [cmd_in], [cmd_out],
    [alert], [ews]. One-step actuation delay between controller command and
    valve position. *)

val system : Epa.Analysis.system

val build_dynamics_uncertain : faults:string list -> Ltl.Ts.t
(** Over-approximating variant for §V.B ("the phenomenon of error
    propagation itself may be non-deterministic"): when in- and outflow
    balance, the qualitative derivative of the level is ambiguous —
    unmodeled higher-order effects may still move it — so the state
    branches over all consistent successors. Every behaviour of
    {!build_dynamics} is included: requirements that hold here certainly
    hold; violations may be spurious and call for refinement. *)

val uncertain_system : Epa.Analysis.system
(** {!system} with {!build_dynamics_uncertain} as the builder. *)

val paper_scenarios : (string * Epa.Scenario.t) list
(** S1…S7 of Table II with their printed fault/mitigation activations. *)

val table_ii_rows : unit -> (string * Epa.Analysis.row) list
(** The Table II reproduction: each paper scenario evaluated on the
    dynamics backend. *)

val full_sweep : ?mitigations:string list -> unit -> Epa.Analysis.row list
(** All 2⁴ fault combinations under the given mitigation set. *)

val default_horizon : int
(** 12, the temporal horizon of {!asp_base} (and so of a sweep) unless
    given. *)

val asp_base : ?horizon:int -> unit -> Asp.Program.t
(** The scenario-independent part of the temporal encoding (default horizon
    {!default_horizon} steps): time/step facts, the fault/mitigation catalog, Listing-2
    style dynamics rules and the Telingo-compiled requirement rules. A
    sweep ({!Sweeps.water_tank_spec}) builds and grounds this once and
    appends per-scenario activation facts per job. *)

val asp_activation_facts : Epa.Scenario.t -> Asp.Program.t
(** The per-scenario increment: [activated/1] and [active_mitigation/2]
    facts (Listing-1 activation inputs). *)

val asp_program : ?horizon:int -> scenario:Epa.Scenario.t -> unit -> Asp.Program.t
(** Temporal ASP encoding of the scenario — {!asp_base} plus
    {!asp_activation_facts}: Listing-1 fault activation, Listing-2 style
    frame/fault rules, the qualitative tank dynamics and the
    requirement-violation rules. *)

val asp_verdicts : ?horizon:int -> scenario:Epa.Scenario.t -> unit -> (string * bool) list
(** [(requirement id, violated?)] per requirement, from the unique stable
    model of {!asp_program}. *)

val asp_critical_scenario :
  ?horizon:int -> ?mitigations:string list -> unit -> string list * string list
(** The §II.C cost-metric search run inside the reasoner: a choice rule
    over fault activation with two weak-constraint levels — maximize the
    severity-weighted violations (priority 2), then minimize the number of
    simultaneously activated faults (priority 1). Returns the activated
    fault ids and the violated requirement ids of the optimal stable model.
    With M1/M2 active this reproduces the paper's §VII finding that S5
    ({F2, F3}) is the most severe combination. *)

val asp_mitigation_program : ?horizon:int -> ?budget:int -> unit -> Asp.Program.t
(** The §IV.C/§IV.D reasoning task as {e one} logic program: all 2⁴ fault
    scenarios unrolled jointly, a choice rule over the mitigation catalog,
    Listing-1 blocking, the Telingo-compiled requirements per scenario, and
    two weak-constraint levels — severity-weighted violations at priority 2
    and mitigation cost at priority 1. The optimal stable models select the
    same mitigations as {!optimization_problem}'s exact search (default
    horizon 10). *)

val asp_optimal_mitigations : ?horizon:int -> ?budget:int -> unit -> string list * int
(** Selected mitigation ids (upper-case, sorted) and the residual loss at
    priority 2, from the weak-constraint-optimal stable model. A [budget]
    becomes a [#sum] integrity constraint over the chosen mitigations'
    costs. *)

val residual_loss : active:string list -> int
(** Optimization objective for the mitigation step: total severity-weighted
    violations across the fault sweep under the given active mitigations
    (weight 3 for R1 — physical damage — and 1 for R2). *)

val optimization_problem : Mitigation.Optimizer.problem
