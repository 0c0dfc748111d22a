(* Benchmark & reproduction harness.

   First prints one section per table/figure of the paper — the same rows
   the paper reports — then runs one Bechamel timing benchmark per
   experiment plus the scaling sweeps (see DESIGN.md §4 for the index). *)

let section title =
  Printf.printf "\n%s\n%s\n%s\n\n" (String.make 72 '=') title (String.make 72 '=')

(* ------------------------------------------------------------------ *)
(* T1: Table I — O-RA risk matrix                                       *)
(* ------------------------------------------------------------------ *)

let print_table1 () =
  section "T1: Table I — O-RA risk matrix (paper §IV.B)";
  print_string (Cpsrisk.Report.table_i ());
  Printf.printf "\npaper example: LM=M, LEF=L -> %s (paper: L)\n"
    (Qual.Level.to_string
       (Risk.Ora.risk ~lm:Qual.Level.Medium ~lef:Qual.Level.Low));
  Printf.printf "matrix monotone in both axes: %b\n"
    (Risk.Matrix.monotone Risk.Ora.risk_matrix)

(* ------------------------------------------------------------------ *)
(* T2: Table II — water-tank analysis results                           *)
(* ------------------------------------------------------------------ *)

let print_table2 () =
  section "T2: Table II — water-tank analysis results (paper §VII)";
  let rows = Cpsrisk.Water_tank.table_ii_rows () in
  print_string
    (Cpsrisk.Report.table_ii
       ~fault_ids:[ "F1"; "F2"; "F3"; "F4" ]
       ~mitigation_ids:[ "M1"; "M2" ]
       rows);
  (* cross-check against the ASP backend *)
  let agreements =
    List.for_all
      (fun (label, scenario) ->
        let row = List.assoc label rows in
        List.for_all
          (fun (rid, asp_violated) ->
            let dyn_violated =
              Epa.Requirement.violated (List.assoc rid row.Epa.Analysis.verdicts)
            in
            dyn_violated = asp_violated)
          (Cpsrisk.Water_tank.asp_verdicts ~scenario ()))
      Cpsrisk.Water_tank.paper_scenarios
  in
  Printf.printf
    "\nASP backend agreement on S1..S7 (dynamics vs stable models): %s\n"
    (if agreements then "7/7 scenarios agree" else "MISMATCH");
  let crit_faults, crit_violated =
    Cpsrisk.Water_tank.asp_critical_scenario ~mitigations:[ "M1"; "M2" ] ()
  in
  Printf.printf
    "reasoner cost-metric search (§II.C): most critical combination {%s} \
     violating {%s} — the paper's S5\n"
    (String.concat "," crit_faults)
    (String.concat "," crit_violated);
  let sweep = Cpsrisk.Water_tank.full_sweep ~mitigations:[ "M1"; "M2" ] () in
  match Epa.Analysis.most_severe sweep with
  | worst :: _ ->
      Printf.printf
        "most severe combination: {%s} — matches the paper's S5 discussion\n"
        (String.concat "," worst.Epa.Analysis.scenario.Epa.Scenario.faults)
  | [] -> ()

(* ------------------------------------------------------------------ *)
(* F1: the experimental framework pipeline                              *)
(* ------------------------------------------------------------------ *)

let print_fig1 () =
  section "F1: Fig. 1 — experimental framework, end to end";
  let artifacts = Cpsrisk.Pipeline.run (Cpsrisk.Pipeline.water_tank_config ()) in
  print_string (Cpsrisk.Pipeline.render_log artifacts);
  Printf.printf "\nranked hazards:\n";
  List.iter
    (fun h ->
      Printf.printf "  %-22s risk %s\n"
        (Epa.Scenario.label h.Cpsrisk.Pipeline.row.Epa.Analysis.scenario)
        (Qual.Level.to_string h.Cpsrisk.Pipeline.risk))
    artifacts.Cpsrisk.Pipeline.confirmed_hazards

(* ------------------------------------------------------------------ *)
(* F2: risk attribute derivation tree                                   *)
(* ------------------------------------------------------------------ *)

let fig2_attributes =
  {
    Risk.Ora.no_attributes with
    Risk.Ora.contact_frequency = Some Qual.Level.High;
    probability_of_action = Some Qual.Level.Medium;
    threat_capability = Some Qual.Level.High;
    resistance_strength = Some Qual.Level.Medium;
    primary_loss = Some Qual.Level.High;
    secondary_loss = Some Qual.Level.Low;
  }

let print_fig2 () =
  section "F2: Fig. 2 — O-RA risk attribute derivation (explainable)";
  match Risk.Ora.assess fig2_attributes with
  | Ok a -> print_string (Cpsrisk.Report.fair_tree a.Risk.Ora.tree)
  | Error missing -> Printf.printf "missing: %s\n" missing

(* ------------------------------------------------------------------ *)
(* F3: hierarchical evaluation matrix + the three focuses               *)
(* ------------------------------------------------------------------ *)

let print_fig3 () =
  section "F3: Fig. 3 — hierarchical evaluation";
  print_string (Cpsrisk.Report.hierarchical_matrix ());
  print_endline "\nfocus 1 (topology-based propagation): compromise at the EWS";
  let r =
    Epa.Propagation.analyze Cpsrisk.Water_tank.topology
      ~active:
        [ Epa.Fault.make ~id:"F4" ~component:"ews" ~mode:Epa.Fault.Compromise () ]
  in
  Printf.printf "  affected components: %s\n"
    (String.concat ", " (Epa.Propagation.affected r));
  let path = Epa.Propagation.path_to "tank" Epa.Propagation.Value_err r in
  Printf.printf "  propagation path to the tank: %s\n"
    (String.concat " -> " (List.map fst path));
  print_endline "\nfocus 2 (detailed propagation analysis): exhaustive EPA";
  let hazardous = Epa.Analysis.hazardous (Cpsrisk.Water_tank.full_sweep ()) in
  Printf.printf "  %d hazardous scenarios confirmed by behaviour-level EPA\n"
    (List.length hazardous);
  print_endline "\nfocus 3 (mitigation plan): optimal selection";
  let sol =
    Mitigation.Optimizer.optimal (Cpsrisk.Water_tank.optimization_problem ())
  in
  Format.printf "  %a@." Mitigation.Optimizer.pp_solution sol

(* ------------------------------------------------------------------ *)
(* F4: case-study model and asset refinement                            *)
(* ------------------------------------------------------------------ *)

let print_fig4 () =
  section "F4: Fig. 4 — case-study model and asset refinement";
  print_endline "high-level model:";
  print_string (Cpsrisk.Report.model_inventory Cpsrisk.Water_tank.model);
  Printf.printf "\nrefining 'Engineering Workstation': %d -> %d elements\n"
    (Archimate.Model.element_count Cpsrisk.Water_tank.model)
    (Archimate.Model.element_count Cpsrisk.Water_tank.refined_model);
  (match
     Cegar.Refine.attack_path Cpsrisk.Water_tank.refined_model ~entry:"email"
       ~target:"infected"
   with
  | Some path ->
      Printf.printf "attack flow (spam link): %s\n" (String.concat " -> " path)
  | None -> print_endline "no attack path (unexpected)");
  print_endline
    "mitigations attached to refined aspects: M1 -> E-mail Client, M2 -> Browser"

(* ------------------------------------------------------------------ *)
(* L: paper listings through the embedded ASP engine                    *)
(* ------------------------------------------------------------------ *)

let print_listings () =
  section "L: Listings 1-2 — parsed by the embedded ASP engine";
  let listing1 =
    "potential_fault(C, F) :- component(C), fault(F), mitigation(F, M), not \
     active_mitigation(C, M)."
  in
  let listing2 =
    "component_state(C, X) :- prev_component_state(C, X), active_fault(C, \
     stuck_at_x)."
  in
  List.iter
    (fun src ->
      let rule = Asp.Parser.parse_rule src in
      Printf.printf "parsed: %s\n" (Asp.Rule.to_string rule))
    [ listing1; listing2 ];
  let scenario = Epa.Scenario.make [ "F2"; "F3" ] in
  let g = Asp.Grounder.ground (Cpsrisk.Water_tank.asp_program ~scenario ()) in
  Printf.printf
    "\ngenerated temporal program for scenario {F2,F3}: %d ground rules, %d atoms\n"
    (Asp.Ground.rule_count g) (Asp.Ground.atom_count g);
  match Asp.Solver.solve g with
  | [ m ] ->
      Printf.printf "unique stable model; violated: %s\n"
        (String.concat ", "
           (List.map Asp.Atom.to_string (Asp.Model.by_predicate m "violated")))
  | models -> Printf.printf "unexpected model count %d\n" (List.length models)

(* ------------------------------------------------------------------ *)
(* X1: cost-benefit optimization sweep                                  *)
(* ------------------------------------------------------------------ *)

let print_opt () =
  section "X1: §IV.D — mitigation cost-benefit optimization";
  let problem = Cpsrisk.Water_tank.optimization_problem () in
  print_endline "budget sweep (residual = severity-weighted violations):";
  List.iter
    (fun (budget, sol) ->
      Printf.printf "  budget %2d -> {%-12s} cost=%2d residual=%2d\n" budget
        (String.concat "," sol.Mitigation.Optimizer.selected)
        sol.Mitigation.Optimizer.cost sol.Mitigation.Optimizer.residual)
    (Mitigation.Optimizer.budget_sweep problem
       ~budgets:[ 0; 1; 2; 4; 6; 7; 9; 12; 24 ]);
  print_endline "\nPareto front (cost vs residual):";
  List.iter
    (fun sol -> Format.printf "  %a@." Mitigation.Optimizer.pp_solution sol)
    (Mitigation.Optimizer.pareto problem);
  print_endline "\nmulti-phase consolidation (budgets 2 then 4 then 7):";
  List.iteri
    (fun i sol ->
      Printf.printf "  after phase %d: {%s} residual=%d\n" (i + 1)
        (String.concat "," sol.Mitigation.Optimizer.selected)
        sol.Mitigation.Optimizer.residual)
    (Mitigation.Optimizer.multi_phase problem ~phase_budgets:[ 2; 4; 7 ]);
  print_endline
    "\nASP cross-check: one joint logic program (16 scenarios x mitigation \
     choice x weak constraints):";
  let asp_selected, asp_residual = Cpsrisk.Water_tank.asp_optimal_mitigations () in
  let ocaml = Mitigation.Optimizer.optimal problem in
  Printf.printf "  ASP optimum   {%s} residual=%d\n"
    (String.concat "," asp_selected)
    asp_residual;
  Printf.printf "  OCaml optimum {%s} residual=%d -> %s\n"
    (String.concat "," ocaml.Mitigation.Optimizer.selected)
    ocaml.Mitigation.Optimizer.residual
    (if
       asp_selected = ocaml.Mitigation.Optimizer.selected
       && asp_residual = ocaml.Mitigation.Optimizer.residual
     then "AGREE"
     else "MISMATCH")

(* ------------------------------------------------------------------ *)
(* X2: uncertainty — RST + sensitivity                                  *)
(* ------------------------------------------------------------------ *)

let print_uncertainty () =
  section "X2: §V — uncertainty handling (RST + sensitivity)";
  let lvl = Qual.Level.of_index_clamped in
  let narrow = { Rough.Risk_bridge.lm = [ lvl 0; lvl 1 ]; lef = [ lvl 1 ] } in
  let wide =
    { Rough.Risk_bridge.lm = [ lvl 1; lvl 2; lvl 3; lvl 4 ]; lef = [ lvl 1 ] }
  in
  let show name u =
    Printf.printf "  %-22s outcomes {%s} -> %s\n" name
      (String.concat ","
         (List.map Qual.Level.to_string (Rough.Risk_bridge.possible_risks u)))
      (if Rough.Risk_bridge.is_sensitive u then "sensitive" else "insensitive")
  in
  print_endline "the paper's LM example (LEF = L):";
  show "LM in {VL,L}" narrow;
  show "LM in {L..VH}" wide;
  print_endline "\nsensitivity tornado around (LM=M, LEF=L):";
  let f a = Risk.Ora.risk ~lm:(List.assoc "lm" a) ~lef:(List.assoc "lef" a) in
  print_string
    (Sensitivity.Oat.render
       (Sensitivity.Oat.analyze
          ~factors:
            [
              { Sensitivity.Oat.name = "lm"; candidates = Qual.Level.all };
              { Sensitivity.Oat.name = "lef"; candidates = Qual.Level.all };
            ]
          ~baseline:[ ("lm", Qual.Level.Medium); ("lef", Qual.Level.Low) ]
          ~f))

(* ------------------------------------------------------------------ *)
(* X3: FTA baseline comparison                                          *)
(* ------------------------------------------------------------------ *)

let print_fta () =
  section "X3: §III.A — qualitative EPA vs naive structural FTA";
  let rows = Cpsrisk.Water_tank.full_sweep () in
  List.iter
    (fun rid ->
      let exact = Fta.From_epa.of_analysis ~requirement:rid rows in
      Printf.printf "exact minimal cut sets for %s: %s\n" rid
        (String.concat " "
           (List.map
              (fun c -> "{" ^ String.concat "," c ^ "}")
              (Fta.Cutset.minimal_cut_sets exact))))
    [ "R1"; "R2" ];
  let structural =
    Fta.From_epa.structural ~topology:Cpsrisk.Water_tank.topology ~asset:"tank"
      ~faults:Cpsrisk.Water_tank.faults
  in
  let exact_r1 =
    Fta.Cutset.minimal_cut_sets (Fta.From_epa.of_analysis ~requirement:"R1" rows)
  in
  let structural_cuts = Fta.Cutset.minimal_cut_sets structural in
  Printf.printf "\nstructural (topology-only) cut sets for the tank: %s\n"
    (String.concat " "
       (List.map (fun c -> "{" ^ String.concat "," c ^ "}") structural_cuts));
  let cmp =
    Fta.From_epa.compare_cut_sets ~exact:exact_r1 ~structural:structural_cuts
  in
  Printf.printf
    "spurious structural cut sets (compensated faults EPA eliminates): %s\n"
    (String.concat " "
       (List.map
          (fun c -> "{" ^ String.concat "," c ^ "}")
          cmp.Fta.From_epa.spurious));
  Printf.printf
    "hazards escaping the structural tree: %s (over-approximation holds: %b)\n"
    (String.concat " "
       (List.map (fun c -> "{" ^ String.concat "," c ^ "}") cmp.Fta.From_epa.escaped))
    (cmp.Fta.From_epa.escaped = [])

(* ------------------------------------------------------------------ *)
(* X4: quantitative risk — DTMC, quantitative FTA, expected loss        *)
(* ------------------------------------------------------------------ *)

let fault_probability = function
  | "F4" -> 0.05 (* phishing campaign succeeds during the mission *)
  | _ -> 0.02 (* physical fault modes *)

let print_quantitative () =
  section "X4: quantitative risk (step 6 'rough-granular' analysis)";
  let rows = Cpsrisk.Water_tank.full_sweep () in
  let all = [ "F1"; "F2"; "F3"; "F4" ] in
  (* quantitative FTA over the EPA-exact trees *)
  List.iter
    (fun rid ->
      let tree = Fta.From_epa.of_analysis ~requirement:rid rows in
      Printf.printf "P(%s violated) = %.4f   (cut sets %s)\n" rid
        (Fta.Quant.top_event_probability tree fault_probability)
        (String.concat " "
           (List.map
              (fun c -> "{" ^ String.concat "," c ^ "}")
              (Fta.Cutset.minimal_cut_sets tree))))
    [ "R1"; "R2" ];
  let r1_tree = Fta.From_epa.of_analysis ~requirement:"R1" rows in
  print_endline "\nBirnbaum importance (which fault most deserves a mitigation):";
  List.iter
    (fun (e, v) -> Printf.printf "  %-4s %.4f\n" e v)
    (Fta.Quant.birnbaum_importance r1_tree fault_probability);
  (* the paper's S5-vs-S7 probability argument, quantified *)
  let s5 = Fta.Quant.scenario_probability ~all fault_probability [ "F2"; "F3" ] in
  let s7 =
    Fta.Quant.scenario_probability ~all fault_probability [ "F1"; "F2"; "F3" ]
  in
  Printf.printf
    "\nP(exactly S5 faults) = %.6f vs P(exactly S7 faults) = %.6f (x%.0f)\n" s5
    s7 (s5 /. s7);
  (* mission-level DTMC: phishing -> compromise -> overflow *)
  let chain ~training =
    let p_phish = if training then 0.01 else 0.05 in
    Markov.Dtmc.make
      ~states:[ "nominal"; "compromised"; "valve_fault"; "overflow" ]
      ~transitions:
        [
          ("nominal", "compromised", p_phish);
          ("nominal", "valve_fault", 0.02);
          ("compromised", "overflow", 0.5);
          ("compromised", "nominal", 0.3);
          ("valve_fault", "overflow", 0.6);
          ("valve_fault", "nominal", 0.4);
          ("overflow", "overflow", 1.0);
        ]
  in
  let p_base =
    Markov.Dtmc.transient (chain ~training:false) ~init:"nominal" ~steps:52
    |> List.assoc "overflow"
  in
  let p_trained =
    Markov.Dtmc.transient (chain ~training:true) ~init:"nominal" ~steps:52
    |> List.assoc "overflow"
  in
  Printf.printf
    "\nDTMC (52-week mission): P(overflow) = %.3f untrained vs %.3f with user \
     training\n"
    p_base p_trained;
  (* expected-loss intervals: the cost-benefit in money *)
  let exposure p = Risk.Loss.annual_loss_exposure [ (p, Qual.Level.Very_high) ] in
  let base = exposure p_base and trained = exposure p_trained in
  Format.printf
    "annual loss exposure: %a untrained vs %a trained — benefit midpoint %.0f \
     vs M1 cost 2 (money units scale: see Risk.Loss bands)@."
    Risk.Loss.pp base Risk.Loss.pp trained
    (Risk.Loss.midpoint base -. Risk.Loss.midpoint trained)

(* ------------------------------------------------------------------ *)
(* AG: attack-graph view of the scenario space                         *)
(* ------------------------------------------------------------------ *)

let print_attack_graph () =
  section "AG: attack graph over the refined model (scenario space, §IV.A)";
  let g = Attackgraph.Graph.generate Cpsrisk.Water_tank.refined_model in
  let n_nodes, n_edges = Attackgraph.Graph.size g in
  Printf.printf "nodes (component x technique): %d, edges: %d\n" n_nodes n_edges;
  Printf.printf "entry nodes: %d, goal nodes: %d\n"
    (List.length (Attackgraph.Graph.entry_nodes g))
    (List.length (Attackgraph.Graph.goal_nodes g));
  let scenarios = Attackgraph.Graph.attack_scenarios ~max_length:5 g in
  Printf.printf "entry->goal attack scenarios (<=5 steps): %d\n"
    (List.length scenarios);
  print_endline "sample scenarios:";
  List.iteri
    (fun i path ->
      if i < 5 then
        Printf.printf "  [%s] %s\n"
          (Qual.Level.to_string (Attackgraph.Graph.severity path))
          (String.concat " -> "
             (List.map (Format.asprintf "%a" Attackgraph.Graph.pp_node) path)))
    scenarios

(* ------------------------------------------------------------------ *)
(* AB: abstraction ablation — ambiguous vs deterministic dynamics       *)
(* ------------------------------------------------------------------ *)

let print_ablation () =
  section
    "AB: ablation — qualitative ambiguity (§V.B) vs deterministic dynamics";
  let exact = Epa.Analysis.run Cpsrisk.Water_tank.system in
  let uncertain =
    Epa.Analysis.run ~horizon:12 Cpsrisk.Water_tank.uncertain_system
  in
  Printf.printf
    "deterministic model: %2d/%d scenarios hazardous\n"
    (List.length (Epa.Analysis.hazardous exact))
    (List.length exact);
  Printf.printf
    "ambiguous model:     %2d/%d scenarios hazardous (over-approximation: no \
     hazard overlooked, spurious ones included)\n"
    (List.length (Epa.Analysis.hazardous uncertain))
    (List.length uncertain);
  let exact_labels =
    List.map
      (fun (r : Epa.Analysis.row) -> Epa.Scenario.label r.Epa.Analysis.scenario)
      (Epa.Analysis.hazardous exact)
  in
  let spurious =
    List.filter
      (fun (r : Epa.Analysis.row) ->
        not (List.mem (Epa.Scenario.label r.Epa.Analysis.scenario) exact_labels))
      (Epa.Analysis.hazardous uncertain)
  in
  Printf.printf "spurious candidates eliminated by CEGAR refinement: %s\n"
    (String.concat " "
       (List.map
          (fun (r : Epa.Analysis.row) ->
            Epa.Scenario.label r.Epa.Analysis.scenario)
          spurious))

(* ------------------------------------------------------------------ *)
(* S1: scaling shapes                                                   *)
(* ------------------------------------------------------------------ *)

let print_scaling () =
  section "S1: scaling — scenario space and ground-program growth";
  print_endline "cascaded tanks (n faults -> 2^n scenarios, EPA sweep):";
  List.iter
    (fun n ->
      let rows = Epa.Analysis.run (Cpsrisk.Cascade.system n) in
      Printf.printf "  n=%d: %4d scenarios, %4d hazardous\n" n
        (List.length rows)
        (List.length (Epa.Analysis.hazardous rows)))
    [ 2; 4; 6; 8 ];
  print_endline "\nASP grounder growth (transitive closure over an n-chain):";
  List.iter
    (fun n ->
      let g = Asp.Grounder.ground (Cpsrisk.Cascade.asp_chain_program n) in
      Printf.printf "  n=%2d: %5d ground rules, %5d atoms\n" n
        (Asp.Ground.rule_count g) (Asp.Ground.atom_count g))
    [ 10; 20; 40 ];
  print_endline "\nstable-model enumeration (k choice atoms -> 2^(k-1) models):";
  List.iter
    (fun k ->
      let g = Asp.Grounder.ground (Cpsrisk.Cascade.asp_choice_program k) in
      let models, stats = Asp.Solver.solve_with_stats g in
      Printf.printf "  k=%2d: %5d stable models  (%s)\n" k
        (List.length models)
        (Asp.Solver.Stats.to_string stats))
    [ 4; 8; 12 ]

(* ------------------------------------------------------------------ *)
(* Bechamel timing benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let timing_tests () =
  let open Bechamel in
  let stage = Staged.stage in
  [
    Test.make ~name:"table1/ora-matrix"
      (stage (fun () ->
           List.iter
             (fun lm ->
               List.iter
                 (fun lef -> ignore (Risk.Ora.risk ~lm ~lef))
                 Qual.Level.all)
             Qual.Level.all));
    Test.make ~name:"table2/scenario-analysis"
      (stage (fun () -> ignore (Cpsrisk.Water_tank.table_ii_rows ())));
    Test.make ~name:"table2/asp-backend-s5"
      (stage (fun () ->
           ignore
             (Cpsrisk.Water_tank.asp_verdicts
                ~scenario:
                  (Epa.Scenario.make ~mitigations:[ "M1"; "M2" ] [ "F2"; "F3" ])
                ())));
    Test.make ~name:"fig1/pipeline"
      (stage (fun () ->
           ignore (Cpsrisk.Pipeline.run (Cpsrisk.Pipeline.water_tank_config ()))));
    Test.make ~name:"fig2/fair-derivation"
      (stage (fun () -> ignore (Risk.Ora.assess fig2_attributes)));
    Test.make ~name:"fig3/hierarchical-epa-sweep"
      (stage (fun () -> ignore (Cpsrisk.Water_tank.full_sweep ())));
    Test.make ~name:"fig4/refinement-attack-path"
      (stage (fun () ->
           ignore
             (Cegar.Refine.attack_path Cpsrisk.Water_tank.refined_model
                ~entry:"email" ~target:"infected")));
    Test.make ~name:"listings/parse-ground-solve"
      (stage (fun () ->
           let scenario = Epa.Scenario.make [ "F2"; "F3" ] in
           ignore
             (Asp.Solver.solve
                (Asp.Grounder.ground (Cpsrisk.Water_tank.asp_program ~scenario ())))));
    Test.make ~name:"opt/budget-sweep"
      (stage (fun () ->
           ignore
             (Mitigation.Optimizer.budget_sweep
                (Cpsrisk.Water_tank.optimization_problem ()) ~budgets:[ 0; 2; 7 ])));
    Test.make ~name:"uncertainty/rst+oat"
      (stage (fun () ->
           let wide =
             { Rough.Risk_bridge.lm = Qual.Level.all; lef = [ Qual.Level.Low ] }
           in
           ignore (Rough.Risk_bridge.possible_risks wide);
           ignore
             (Sensitivity.Oat.analyze
                ~factors:
                  [ { Sensitivity.Oat.name = "lm"; candidates = Qual.Level.all } ]
                ~baseline:[ ("lm", Qual.Level.Medium); ("lef", Qual.Level.Low) ]
                ~f:(fun a ->
                  Risk.Ora.risk ~lm:(List.assoc "lm" a)
                    ~lef:(List.assoc "lef" a)))));
    Test.make ~name:"fta/cutsets"
      (stage
         (let rows = Cpsrisk.Water_tank.full_sweep () in
          fun () ->
            ignore
              (Fta.Cutset.minimal_cut_sets
                 (Fta.From_epa.of_analysis ~requirement:"R2" rows))));
    Test.make ~name:"x4/quant-fta"
      (stage
         (let rows = Cpsrisk.Water_tank.full_sweep () in
          let tree = Fta.From_epa.of_analysis ~requirement:"R1" rows in
          fun () ->
            ignore (Fta.Quant.top_event_probability tree fault_probability);
            ignore (Fta.Quant.birnbaum_importance tree fault_probability)));
    Test.make ~name:"x4/dtmc-transient"
      (stage
         (let chain =
            Markov.Dtmc.make
              ~states:[ "nominal"; "compromised"; "valve_fault"; "overflow" ]
              ~transitions:
                [
                  ("nominal", "compromised", 0.05);
                  ("nominal", "valve_fault", 0.02);
                  ("compromised", "overflow", 0.5);
                  ("compromised", "nominal", 0.3);
                  ("valve_fault", "overflow", 0.6);
                  ("valve_fault", "nominal", 0.4);
                  ("overflow", "overflow", 1.0);
                ]
          in
          fun () -> ignore (Markov.Dtmc.transient chain ~init:"nominal" ~steps:52)));
    Test.make ~name:"ag/generate+scenarios"
      (stage (fun () ->
           let g = Attackgraph.Graph.generate Cpsrisk.Water_tank.refined_model in
           ignore (Attackgraph.Graph.attack_scenarios ~max_length:5 g)));
    Test.make_indexed ~name:"scale/epa-sweep" ~args:[ 2; 4; 6 ] (fun n ->
        stage (fun () -> ignore (Epa.Analysis.run (Cpsrisk.Cascade.system n))));
    Test.make_indexed ~name:"scale/asp-ground-chain" ~args:[ 10; 20; 40 ]
      (fun n ->
        stage (fun () ->
            ignore (Asp.Grounder.ground (Cpsrisk.Cascade.asp_chain_program n))));
    Test.make_indexed ~name:"scale/asp-enumerate" ~args:[ 4; 8; 10 ] (fun k ->
        stage (fun () ->
            ignore
              (Asp.Solver.solve
                 (Asp.Grounder.ground (Cpsrisk.Cascade.asp_choice_program k)))));
  ]

let run_timings () =
  section "timings (Bechamel, monotonic clock)";
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.4) ~kde:None () in
  let raw =
    Benchmark.all cfg [ instance ]
      (Test.make_grouped ~name:"cpsrisk" ~fmt:"%s %s" (timing_tests ()))
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name result acc ->
        match Analyze.OLS.estimates result with
        | Some [ ns ] -> (name, ns) :: acc
        | Some _ | None -> (name, nan) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, ns) ->
      let pretty =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
        else Printf.sprintf "%8.0f ns" ns
      in
      Printf.printf "  %-40s %s/run\n" name pretty)
    rows

let () =
  print_table1 ();
  print_table2 ();
  print_fig1 ();
  print_fig2 ();
  print_fig3 ();
  print_fig4 ();
  print_listings ();
  print_opt ();
  print_uncertainty ();
  print_fta ();
  print_quantitative ();
  print_attack_graph ();
  print_ablation ();
  print_scaling ();
  run_timings ();
  print_newline ()
