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
  candidate_hazards : string list;
  confirmed_hazards : ranked_hazard list;
  spurious_eliminated : string list;
  plan : Mitigation.Optimizer.solution;
  log : string list;
}

type config = {
  model : Archimate.Model.t;
  topology : Epa.Propagation.network;
  system : Epa.Analysis.system;
  actions : Mitigation.Action.t list;
  residual : active:string list -> int;
  budget : int option;
  semantic_lint : (string * Asp.Program.t) list;
}

let water_tank_config ?budget ?(semantic_lint = false) () =
  {
    model = Water_tank.refined_model;
    topology = Water_tank.topology;
    system = Water_tank.system;
    actions = Water_tank.mitigations;
    residual = Water_tank.residual_loss;
    budget;
    semantic_lint =
      (if semantic_lint then
         (* gate on the full-activation encoding: every fault on, no
            mitigation, so every rule family is live and any semantic
            finding is a real defect of the generator (a per-scenario
            encoding legitimately contains dead rules for the faults the
            scenario leaves deactivated) *)
         let scenario =
           Epa.Scenario.make
             (List.map (fun (f : Epa.Fault.t) -> f.Epa.Fault.id) Water_tank.faults)
         in
         [ ("water-tank/full-activation", Water_tank.asp_program ~scenario ()) ]
       else []);
  }

(* Step 6 ranking policy: loss magnitude VH when the physical requirement
   (first requirement) is violated, M when only monitoring degrades; loss
   event frequency decreases with the number of simultaneous root faults
   (single root causes are the likely ones). *)
let rank_risk (row : Epa.Analysis.row) =
  let violations = Epa.Analysis.violations row in
  let physical =
    match row.Epa.Analysis.verdicts with
    | (first, _) :: _ -> List.mem first violations
    | [] -> false
  in
  let lm = if physical then Qual.Level.Very_high else Qual.Level.Medium in
  let lef =
    match List.length row.Epa.Analysis.scenario.Epa.Scenario.faults with
    | 0 | 1 -> Qual.Level.Medium
    | 2 -> Qual.Level.Low
    | _ -> Qual.Level.Very_low
  in
  Risk.Ora.risk ~lm ~lef

let run config =
  let log = ref [] in
  let logf fmt = Printf.ksprintf (fun s -> log := s :: !log) fmt in
  (* 1. system model *)
  let validation = Lint.run_model config.model in
  if Lint.Diagnostic.has_errors validation then
    invalid_arg
      (Printf.sprintf "Pipeline.run: the system model has validation errors: %s"
         (String.concat "; "
            (List.map Lint.Diagnostic.to_string
               (List.filter
                  (fun (d : Lint.Diagnostic.t) ->
                    d.Lint.Diagnostic.severity = Lint.Diagnostic.Error)
                  validation))));
  logf "step 1 (system model): %d elements, %d relationships, %s"
    (Archimate.Model.element_count config.model)
    (Archimate.Model.relationship_count config.model)
    (Lint.Diagnostic.summary validation);
  (* opt-in semantic gate: the generated ASP encodings must carry no L2xx
     warning or error before any grounding/solving happens downstream *)
  List.iter
    (fun (name, prog) ->
      let diags = Analysis.Semlint.run prog in
      let blocking =
        List.filter
          (fun (d : Lint.Diagnostic.t) ->
            d.Lint.Diagnostic.severity <> Lint.Diagnostic.Info)
          diags
      in
      if blocking <> [] then
        invalid_arg
          (Printf.sprintf
             "Pipeline.run: semantic lint rejected encoding %s: %s" name
             (String.concat "; "
                (List.map Lint.Diagnostic.to_string blocking)));
      logf "step 1 (semantic lint): %s clean (%d findings, none blocking)"
        name (List.length diags))
    config.semantic_lint;
  (* 2. candidate system mutations *)
  let fault_mutations =
    List.map
      (fun (f : Epa.Fault.t) ->
        { component = f.Epa.Fault.component; source = `Fault f.Epa.Fault.id })
      config.system.Epa.Analysis.catalog
  in
  let technique_mutations =
    List.concat_map
      (fun (e : Archimate.Element.t) ->
        match Archimate.Element.property "component_type" e with
        | None -> []
        | Some ty ->
            List.map
              (fun (t : Threatdb.Db.threat) ->
                {
                  component = e.Archimate.Element.id;
                  source = `Technique t.Threatdb.Db.technique.Threatdb.Attck.id;
                })
              (Threatdb.Db.threats_for_type ty))
      (Archimate.Model.elements config.model)
  in
  let mutations = fault_mutations @ technique_mutations in
  logf "step 2 (candidate mutations): %d fault modes, %d applicable techniques"
    (List.length fault_mutations)
    (List.length technique_mutations);
  (* 3. reasoning: the joint scenario space *)
  let scenarios =
    Epa.Scenario.all_combinations config.system.Epa.Analysis.catalog
  in
  let scenario_count = List.length scenarios in
  logf "step 3 (reasoning): %d fault-combination scenarios" scenario_count;
  (* 4. hazard identification: exhaustive EPA *)
  let rows = Epa.Analysis.run config.system in
  let hazardous = Epa.Analysis.hazardous rows in
  logf "step 4 (hazard identification): %d/%d scenarios violate requirements"
    (List.length hazardous) scenario_count;
  (* 5. CEGAR refinement: topology-level candidates -> confirmed hazards *)
  let label (row : Epa.Analysis.row) = Epa.Scenario.label row.Epa.Analysis.scenario in
  let topological_candidate (row : Epa.Analysis.row) =
    (* abstract over-approximation: any scenario whose effective faults
       produce an error somewhere in the static topology is suspect *)
    let active =
      List.filter
        (fun (f : Epa.Fault.t) ->
          List.mem f.Epa.Fault.id row.Epa.Analysis.effective)
        config.system.Epa.Analysis.catalog
    in
    active <> []
    && Epa.Propagation.affected
         (Epa.Propagation.analyze config.topology ~active)
       <> []
  in
  let candidates = List.filter topological_candidate rows in
  (* refinement: the behaviour-level EPA confirms a candidate when it
     violates a requirement; the rest are spurious *)
  let confirmed, spurious =
    List.partition (fun row -> Epa.Analysis.violations row <> []) candidates
  in
  let candidate_hazards = List.map label candidates in
  let spurious_eliminated = List.map label spurious in
  logf
    "step 5 (refinement): %d topology-level candidates, %d spurious \
     eliminated, %d confirmed"
    (List.length candidate_hazards)
    (List.length spurious_eliminated)
    (List.length confirmed);
  (* 6. quantitative (qualitative-scale) risk analysis *)
  let confirmed_hazards =
    Epa.Analysis.most_severe confirmed
    |> List.map (fun row -> { row; risk = rank_risk row })
  in
  (match confirmed_hazards with
  | top :: _ ->
      logf "step 6 (risk analysis): top hazard %s at risk %s" (label top.row)
        (Qual.Level.to_string top.risk)
  | [] -> logf "step 6 (risk analysis): no hazards to rank");
  (* 7. mitigation strategy *)
  let problem =
    { Mitigation.Optimizer.actions = config.actions; residual = config.residual }
  in
  let plan = Mitigation.Optimizer.optimal ?budget:config.budget problem in
  logf "step 7 (mitigation): selected {%s} at cost %d, residual loss %d"
    (String.concat "," plan.Mitigation.Optimizer.selected)
    plan.Mitigation.Optimizer.cost plan.Mitigation.Optimizer.residual;
  {
    validation;
    mutations;
    scenario_count;
    candidate_hazards;
    confirmed_hazards;
    spurious_eliminated;
    plan;
    log = List.rev !log;
  }

let render_log artifacts = String.concat "\n" artifacts.log ^ "\n"

(* ------------------------------------------------------------------ *)
(* Engine-backed refinement (step 5 at scale)                          *)
(* ------------------------------------------------------------------ *)

let render_refine ?(stats = false) (o : Cegar.Inc.outcome) =
  let buf = Buffer.create 512 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun (r : Cegar.Inc.round) ->
      p "round %d (%s): %d survive%s\n" r.Cegar.Inc.r_level
        r.Cegar.Inc.r_label
        (List.length r.Cegar.Inc.r_survivors)
        (match r.Cegar.Inc.r_eliminated with
        | [] -> ""
        | e ->
            Printf.sprintf ", eliminated %s"
              (String.concat "," (List.map Engine.Delta.label e))))
    o.Cegar.Inc.rounds;
  p "confirmed: %s\n"
    (match o.Cegar.Inc.confirmed with
    | [] -> "(none)"
    | c -> String.concat "," (List.map Engine.Delta.label c));
  if stats then begin
    let s = o.Cegar.Inc.stats in
    p
      "rounds %d  solves %d  hits %d  disk %d  fresh %d  carried %d  \
       published %d  flushes %d\n"
      s.Cegar.Inc.s_rounds s.Cegar.Inc.s_solves s.Cegar.Inc.s_hits
      s.Cegar.Inc.s_disk_hits s.Cegar.Inc.s_fresh s.Cegar.Inc.s_carried
      s.Cegar.Inc.s_published s.Cegar.Inc.s_flushes;
    p "ground: %s\n"
      (Asp.Grounder.Stats.to_string s.Cegar.Inc.s_ground);
    p "wall: %.3fs\n" s.Cegar.Inc.s_wall_s
  end;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Engine-backed mitigation frontier (step 7 at scale)                 *)
(* ------------------------------------------------------------------ *)

type frontier_request =
  | Frontier_optimal of int option
  | Frontier_pareto
  | Frontier_sweep of int list

type frontier_answer =
  | Frontier_solution of Mitigation.Optimizer.solution
  | Frontier_front of Mitigation.Optimizer.solution list
  | Frontier_curve of (int * Mitigation.Optimizer.solution) list

(* The water-tank catalog over the paper's attack scenario (F4, the
   workstation compromise inducing F1–F3): each action set is one warm
   delta; the residual weighs the violated requirements as
   {!Water_tank.residual_loss} does (R1 physical damage 3, R2 lost
   alerting 1). Monotone: mitigations only ever block activations. *)
let water_tank_measure = function
  | [ m ] ->
      List.fold_left
        (fun acc (req, weight) ->
          if Asp.Model.holds m (Sweeps.violated_atom req) then acc + weight
          else acc)
        0
        (List.map2
           (fun r w -> (r, w))
           Water_tank.requirements [ 3; 1 ])
  | models ->
      invalid_arg
        (Printf.sprintf
           "Pipeline.water_tank_measure: expected a unique stable model, \
            got %d"
           (List.length models))

let water_tank_frontier_of ?cache prepared =
  Mitigation.Frontier.make ?cache ~actions:Water_tank.mitigations
    ~delta:(fun ~active ->
      Engine.Delta.make ~mitigations:active [ "F4" ])
    ~measure:water_tank_measure prepared

let mitigate_frontier f = function
  | Frontier_optimal budget ->
      let s, report = Mitigation.Frontier.optimal ?budget f in
      (Frontier_solution s, report)
  | Frontier_pareto ->
      let front, report = Mitigation.Frontier.pareto f in
      (Frontier_front front, report)
  | Frontier_sweep budgets ->
      let curve, report = Mitigation.Frontier.budget_sweep f ~budgets in
      (Frontier_curve curve, report)

let render_solution (s : Mitigation.Optimizer.solution) =
  Format.asprintf "%a" Mitigation.Optimizer.pp_solution s

let render_frontier ?(stats = false) ?decided answer
    (report : Mitigation.Frontier.report) =
  let buf = Buffer.create 256 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (match answer with
  | Frontier_solution s -> p "optimal: %s\n" (render_solution s)
  | Frontier_front front ->
      p "pareto front (%d points):\n" (List.length front);
      List.iter (fun s -> p "  %s\n" (render_solution s)) front
  | Frontier_curve curve ->
      p "budget sweep:\n";
      List.iter
        (fun (b, s) -> p "  budget %3d -> %s\n" b (render_solution s))
        curve);
  if stats then
    p
      "evals %d  hits %d  disk %d  fresh %d  pruned %d  sum %.3fs  \
       critical %.3fs  wall %.3fs\n"
      report.Mitigation.Frontier.r_evals report.Mitigation.Frontier.r_hits
      report.Mitigation.Frontier.r_disk_hits
      report.Mitigation.Frontier.r_fresh report.Mitigation.Frontier.r_pruned
      report.Mitigation.Frontier.r_sum_s
      report.Mitigation.Frontier.r_critical_s
      report.Mitigation.Frontier.r_wall_s;
  (match decided with
  | Some n when stats ->
      p "decided by the grounder: %d of %d fresh\n" n
        report.Mitigation.Frontier.r_fresh
  | Some _ | None -> ());
  Buffer.contents buf

let topology_sweep ?jobs ?deltas config =
  let deltas =
    match deltas with
    | Some ds -> ds
    | None -> Sweeps.model_element_deltas config.model
  in
  let report = Engine.Sweep.run ?jobs (Sweeps.topology_spec config.model deltas) in
  let impacts =
    Array.to_list report.Engine.Sweep.results
    |> List.map (fun (r : Engine.Job.result) ->
           (Engine.Delta.label r.Engine.Job.delta, Sweeps.affected r))
  in
  (report, impacts)
