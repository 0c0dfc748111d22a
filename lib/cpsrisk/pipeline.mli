(** The seven-step experimental framework of Fig. 1, end to end:

    1. system model — merge + validate;
    2. candidate system mutations — faults from the catalog plus techniques
       from the threat databases per typed component;
    3. reasoning — build the joint scenario space;
    4. hazard identification — exhaustive EPA over every scenario;
    5. model refinement — CEGAR round from topology-level candidates to
       behaviour-confirmed hazards (spurious candidates eliminated);
    6. quantitative risk analysis — O-RA qualitative risk per hazard;
    7. mitigation strategy — budget-constrained cost-benefit optimization. *)

type mutation = {
  component : string;
  source : [ `Fault of string | `Technique of string ];
}

type ranked_hazard = {
  row : Epa.Analysis.row;
  risk : Qual.Level.t;
}

type artifacts = {
  validation : Lint.Diagnostic.t list;
  mutations : mutation list;
  scenario_count : int;
  candidate_hazards : string list;   (** scenario labels before refinement *)
  confirmed_hazards : ranked_hazard list;  (** after refinement, ranked *)
  spurious_eliminated : string list; (** labels removed by refinement *)
  plan : Mitigation.Optimizer.solution;
  log : string list;                 (** one narrative line per step *)
}

type config = {
  model : Archimate.Model.t;
  topology : Epa.Propagation.network;
  system : Epa.Analysis.system;
  actions : Mitigation.Action.t list;
  weights : (string * int) list;
      (** severity weight per requirement id: step 7's residual of a
          mitigation set is {!Epa.Analysis.loss} over [system] *)
  budget : int option;
  semantic_lint : (string * Asp.Program.t) list;
      (** named ASP encodings to gate the run on: any non-[Info] L2xx
          semantic finding in one of them aborts the pipeline. Empty
          (the default) opts out. *)
}

val water_tank_config : ?budget:int -> ?semantic_lint:bool -> unit -> config
(** [semantic_lint:true] (default [false]) gates the run on the generated
    temporal ASP programs of every paper scenario. *)

val run : config -> artifacts
(** Steps 4 and 7 evaluate through one {!Epa.Analysis.scope} over
    [config.system]: the fault sweep and every candidate mitigation set
    share it, so each distinct effective fault set is built and checked
    once (16 transition systems for the water tank, where a scope per
    residual call made 528).

    Fails fast — raises [Invalid_argument] listing the offending
    diagnostics — when the model fails structural validation, or when an
    encoding listed in [config.semantic_lint] carries a semantic lint
    warning or error. *)

val render_log : artifacts -> string

(** {2 Engine-backed refinement (step 5 at scale)} *)

val render_refine : ?stats:bool -> Cegar.Inc.outcome -> string
(** The rounds and verdicts of the hierarchical case study
    ({!Hierarchy.refine_spec}) run through the incremental CEGAR engine
    ({!Cegar.Inc.run}); [stats] adds the solve, cache and grounding
    counters ([solves] counts the candidates the grounder could not
    decide). *)

(** {2 Engine-backed mitigation frontier (step 7 at scale)} *)

type frontier_request =
  | Frontier_optimal of int option  (** budget *)
  | Frontier_pareto
  | Frontier_sweep of int list  (** budgets *)

type frontier_answer =
  | Frontier_solution of Mitigation.Optimizer.solution
  | Frontier_front of Mitigation.Optimizer.solution list
  | Frontier_curve of (int * Mitigation.Optimizer.solution) list

val water_tank_frontier_of :
  ?cache:Mitigation.Frontier.value Engine.Cache.t ->
  Engine.Job.prepared ->
  Mitigation.Frontier.t
(** The water-tank mitigation catalog over the paper's §VII attack
    scenario (F4 — the infected engineering workstation inducing F1–F3),
    over already-warm prepared state (a prepared
    {!Sweeps.water_tank_spec}): candidate action sets are warm deltas,
    the residual weighs violated requirements by
    {!Water_tank.requirement_weights} (R1 at 3, R2 at 1). *)

val mitigate_frontier :
  Mitigation.Frontier.t ->
  frontier_request ->
  frontier_answer * Mitigation.Frontier.report

val render_frontier :
  ?stats:bool ->
  ?decided:int ->
  frontier_answer ->
  Mitigation.Frontier.report ->
  string
(** The answer, then with [stats] the report's counters, and with
    [decided] too how many of the fresh evaluations the grounder decided
    ({!Asp.Grounder.decide}). *)

val topology_sweep :
  ?deltas:Engine.Delta.t list ->
  config ->
  Engine.Sweep.report * (string * string list) list
(** Batch what-if analysis over the configured system model: every delta
    (default: one single-injection delta per component element, see
    {!Sweeps.model_element_deltas}) solved through the cache-reusing sweep
    engine. Returns the engine report plus, per delta in input order, the
    affected component ids from static error propagation. *)
