(* Integration tests for the tool core (lib/cpsrisk): the exact Table II
   reproduction, agreement of the dynamics and ASP backends, the Fig. 1
   pipeline, and report rendering. *)

let check = Alcotest.check
let fail = Alcotest.fail

(* -------------------------------------------------------------------- *)
(* Table II — the paper's analysis results, row by row                   *)
(* -------------------------------------------------------------------- *)

(* (scenario, R1 violated, R2 violated) exactly as printed in Table II *)
let paper_table_ii =
  [
    ("S1", false, false);
    ("S2", true, true);
    ("S3", false, false);
    ("S4", true, false);
    ("S5", true, true);
    ("S6", false, false);
    ("S7", true, true);
  ]

let verdict_of row rid =
  match List.assoc_opt rid row.Epa.Analysis.verdicts with
  | Some v -> Epa.Requirement.violated v
  | None -> fail ("missing verdict " ^ rid)

let test_table_ii_exact () =
  let rows = Cpsrisk.Water_tank.table_ii_rows () in
  List.iter
    (fun (label, r1, r2) ->
      match List.assoc_opt label rows with
      | Some row ->
          check Alcotest.bool (label ^ " R1") r1 (verdict_of row "R1");
          check Alcotest.bool (label ^ " R2") r2 (verdict_of row "R2")
      | None -> fail ("missing row " ^ label))
    paper_table_ii

let test_table_ii_s2_expansion () =
  (* S2: the compromised workstation induces all three physical faults *)
  let rows = Cpsrisk.Water_tank.table_ii_rows () in
  let s2 = List.assoc "S2" rows in
  check (Alcotest.list Alcotest.string) "induced closure"
    [ "F1"; "F2"; "F3"; "F4" ] s2.Epa.Analysis.effective

let test_table_ii_mitigated_f4_excluded () =
  (* activating M1/M2 excludes the F4 scenario (§VII: "it allows excluding
     this specific scenario from the evaluation") *)
  let row =
    Epa.Analysis.run_scenario Cpsrisk.Water_tank.system
      (Epa.Scenario.make ~mitigations:[ "M1"; "M2" ] [ "F4" ])
  in
  check (Alcotest.list Alcotest.string) "nothing effective" []
    row.Epa.Analysis.effective;
  check (Alcotest.list Alcotest.string) "no violations" []
    (Epa.Analysis.violations row)

let test_s5_most_severe () =
  (* §VII: S5 (two faults) dominates S7 (three faults, same violations) *)
  let rows = Cpsrisk.Water_tank.full_sweep ~mitigations:[ "M1"; "M2" ] () in
  match Epa.Analysis.most_severe rows with
  | first :: _ ->
      check (Alcotest.list Alcotest.string) "S5 faults first" [ "F2"; "F3" ]
        first.Epa.Analysis.scenario.Epa.Scenario.faults;
      check Alcotest.int "both requirements violated" 2
        (List.length (Epa.Analysis.violations first))
  | [] -> fail "expected hazards"

let test_full_sweep_size () =
  check Alcotest.int "2^4 scenarios" 16
    (List.length (Cpsrisk.Water_tank.full_sweep ()))

(* -------------------------------------------------------------------- *)
(* Backend agreement: dynamics+LTLf vs generated temporal ASP            *)
(* -------------------------------------------------------------------- *)

let test_asp_backend_agrees_on_paper_scenarios () =
  List.iter
    (fun (label, scenario) ->
      let row = Epa.Analysis.run_scenario Cpsrisk.Water_tank.system scenario in
      let asp = Cpsrisk.Water_tank.asp_verdicts ~scenario () in
      List.iter
        (fun (rid, asp_violated) ->
          check Alcotest.bool
            (Printf.sprintf "%s/%s backends agree" label rid)
            (verdict_of row rid) asp_violated)
        asp)
    Cpsrisk.Water_tank.paper_scenarios

let prop_backends_agree_everywhere =
  (* all 16 fault combinations x random mitigation subsets *)
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 0 4) (oneofl [ "F1"; "F2"; "F3"; "F4" ]))
        (list_size (int_range 0 3) (oneofl [ "M1"; "M2"; "M3"; "M4"; "M5" ])))
  in
  QCheck.Test.make ~name:"water tank: ASP and dynamics backends agree"
    ~count:60
    (QCheck.make
       ~print:(fun (fs, ms) ->
         Printf.sprintf "{%s}+{%s}" (String.concat "," fs) (String.concat "," ms))
       gen)
    (fun (fault_ids, mitigation_ids) ->
      let scenario = Epa.Scenario.make ~mitigations:mitigation_ids fault_ids in
      let row = Epa.Analysis.run_scenario Cpsrisk.Water_tank.system scenario in
      let asp = Cpsrisk.Water_tank.asp_verdicts ~scenario () in
      List.for_all
        (fun (rid, asp_violated) -> verdict_of row rid = asp_violated)
        asp)

let test_asp_backend_horizon_robustness () =
  (* the qualitative system settles quickly: verdicts must not depend on
     the unrolling depth once past the settling time *)
  let scenario = Epa.Scenario.make [ "F2"; "F3" ] in
  let reference = Cpsrisk.Water_tank.asp_verdicts ~horizon:12 ~scenario () in
  List.iter
    (fun horizon ->
      check
        (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.bool))
        (Printf.sprintf "horizon %d" horizon)
        reference
        (Cpsrisk.Water_tank.asp_verdicts ~horizon ~scenario ()))
    [ 8; 10; 16 ]

let test_asp_program_is_stratified_single_model () =
  let scenario = Epa.Scenario.make [ "F2"; "F3" ] in
  let g =
    Asp.Grounder.ground (Cpsrisk.Water_tank.asp_program ~scenario ())
  in
  let models = Asp.Solver.solve g in
  check Alcotest.int "unique stable model" 1 (List.length models);
  check Alcotest.bool "passes the GL oracle" true
    (Asp_oracle.Naive.is_stable_model g (Asp.Model.atoms (List.hd models)))

let test_dynamics_trace_shape () =
  (* fault-free: level cycles low..high, never overflow *)
  let ts = Cpsrisk.Water_tank.build_dynamics ~faults:[] in
  let tr = Ltl.Ts.run ts (List.hd (Ltl.Ts.init ts)) in
  let levels =
    List.map (Qual.Qstate.get "level") (Ltl.Trace.to_list tr)
  in
  check Alcotest.bool "visits high" true (List.mem "high" levels);
  check Alcotest.bool "never overflows" false (List.mem "overflow" levels)

let test_dynamics_f2_overflow_path () =
  let ts = Cpsrisk.Water_tank.build_dynamics ~faults:[ "F2" ] in
  let tr = Ltl.Ts.run ts (List.hd (Ltl.Ts.init ts)) in
  let states = Ltl.Trace.to_list tr in
  let levels = List.map (Qual.Qstate.get "level") states in
  check Alcotest.bool "overflows" true (List.mem "overflow" levels);
  (* alert fires because the HMI is healthy *)
  check Alcotest.bool "alert latched" true
    (List.exists (Qual.Qstate.holds "alert" "true") states)

(* -------------------------------------------------------------------- *)
(* §V.B non-deterministic over-approximation                             *)
(* -------------------------------------------------------------------- *)

let test_uncertain_over_approximates () =
  (* every hazard of the exact model is also flagged by the uncertain one *)
  let exact = Cpsrisk.Water_tank.full_sweep () in
  List.iter
    (fun (row : Epa.Analysis.row) ->
      let uncertain_row =
        Epa.Analysis.run_scenario ~horizon:12 Cpsrisk.Water_tank.uncertain_system
          row.Epa.Analysis.scenario
      in
      List.iter
        (fun rid ->
          check Alcotest.bool
            (Printf.sprintf "%s/%s preserved"
               (Epa.Scenario.label row.Epa.Analysis.scenario)
               rid)
            true
            (List.mem rid (Epa.Analysis.violations uncertain_row)))
        (Epa.Analysis.violations row))
    exact

let test_uncertain_has_spurious_hazards () =
  (* the fault-free scenario is spuriously hazardous under ambiguity *)
  let row =
    Epa.Analysis.run_scenario ~horizon:12 Cpsrisk.Water_tank.uncertain_system
      (Epa.Scenario.make [])
  in
  check Alcotest.bool "spurious violation" true
    (Epa.Analysis.violations row <> []);
  (* and the exact model clears it *)
  let exact_row =
    Epa.Analysis.run_scenario Cpsrisk.Water_tank.system (Epa.Scenario.make [])
  in
  check (Alcotest.list Alcotest.string) "exact is clean" []
    (Epa.Analysis.violations exact_row)

let test_uncertain_cegar_refinement () =
  (* CEGAR: abstract (uncertain) candidates refined by the exact model *)
  let candidates =
    Epa.Analysis.hazardous
      (Epa.Analysis.run ~horizon:12 Cpsrisk.Water_tank.uncertain_system)
  in
  let confirmed, spurious =
    List.partition
      (fun (row : Epa.Analysis.row) ->
        Epa.Analysis.violations
          (Epa.Analysis.run_scenario Cpsrisk.Water_tank.system
             row.Epa.Analysis.scenario)
        <> [])
      candidates
  in
  check Alcotest.int "16 abstract candidates" 16 (List.length candidates);
  check Alcotest.int "12 confirmed" 12 (List.length confirmed);
  check Alcotest.int "4 spurious eliminated" 4 (List.length spurious)

(* -------------------------------------------------------------------- *)
(* §II.C cost-metric search inside the reasoner                          *)
(* -------------------------------------------------------------------- *)

let test_asp_critical_scenario_unmitigated () =
  (* without mitigations, a single fault (the workstation compromise)
     already produces the worst consequence *)
  let faults, violated = Cpsrisk.Water_tank.asp_critical_scenario () in
  check (Alcotest.list Alcotest.string) "F4 alone" [ "F4" ] faults;
  check (Alcotest.list Alcotest.string) "both requirements" [ "R1"; "R2" ]
    violated

let test_asp_critical_scenario_reproduces_s5 () =
  (* §VII: "the most severe fault combination is when the output valve is
     stuck in the closed state, and the HMI does not get an alert" *)
  let faults, violated =
    Cpsrisk.Water_tank.asp_critical_scenario ~mitigations:[ "M1"; "M2" ] ()
  in
  check (Alcotest.list Alcotest.string) "S5 = {F2,F3}" [ "F2"; "F3" ] faults;
  check (Alcotest.list Alcotest.string) "both requirements" [ "R1"; "R2" ]
    violated;
  (* agreement with the native severity ranking *)
  let rows = Cpsrisk.Water_tank.full_sweep ~mitigations:[ "M1"; "M2" ] () in
  match Epa.Analysis.most_severe rows with
  | top :: _ ->
      check (Alcotest.list Alcotest.string) "matches most_severe"
        top.Epa.Analysis.scenario.Epa.Scenario.faults faults
  | [] -> fail "expected hazards"

(* -------------------------------------------------------------------- *)
(* Joint ASP mitigation optimization (§IV.C-D)                           *)
(* -------------------------------------------------------------------- *)

let test_asp_mitigation_optimum_agrees () =
  (* the single joint logic program (all scenarios + mitigation choice +
     weak constraints) must find the same optimum as the exact OCaml
     search over the same objective *)
  let asp_selected, asp_residual = Cpsrisk.Water_tank.asp_optimal_mitigations () in
  let ocaml =
    Mitigation.Optimizer.optimal (Cpsrisk.Water_tank.optimization_problem ())
  in
  check (Alcotest.list Alcotest.string) "same selection"
    ocaml.Mitigation.Optimizer.selected asp_selected;
  check Alcotest.int "same residual" ocaml.Mitigation.Optimizer.residual
    asp_residual

let test_asp_mitigation_budget_agrees () =
  (* budget 5: the #sum constraint must match the OCaml budgeted optimum *)
  List.iter
    (fun budget ->
      let asp_selected, asp_residual =
        Cpsrisk.Water_tank.asp_optimal_mitigations ~budget ()
      in
      let ocaml =
        Mitigation.Optimizer.optimal ~budget
          (Cpsrisk.Water_tank.optimization_problem ())
      in
      check Alcotest.int
        (Printf.sprintf "budget %d residual" budget)
        ocaml.Mitigation.Optimizer.residual asp_residual;
      check Alcotest.bool
        (Printf.sprintf "budget %d cost bound" budget)
        true
        (Mitigation.Action.total_cost Cpsrisk.Water_tank.mitigations asp_selected
        <= budget))
    [ 2; 5 ]

let test_asp_mitigation_no_selection_residual () =
  (* with every mitigation forbidden, the priority-2 weight equals the
     OCaml residual objective for the empty selection *)
  let program =
    Asp.Program.append
      (Cpsrisk.Water_tank.asp_mitigation_program ())
      (Asp.Parser.parse_program ":- chosen(M).")
  in
  match Asp.Solver.solve (Asp.Grounder.ground program) with
  | m :: _ ->
      let weight = Option.value ~default:0 (List.assoc_opt 2 (Asp.Model.cost m)) in
      check Alcotest.int "residual matches"
        (Cpsrisk.Water_tank.residual_loss ~active:[])
        weight
  | [] -> fail "expected a model"

(* -------------------------------------------------------------------- *)
(* Models                                                                *)
(* -------------------------------------------------------------------- *)

let test_case_study_model_valid () =
  check Alcotest.bool "high-level model valid" true
    (Archimate.Validate.is_valid Cpsrisk.Water_tank.model);
  check Alcotest.bool "refined model valid" true
    (Archimate.Validate.is_valid Cpsrisk.Water_tank.refined_model)

let test_refined_model_attack_path () =
  match
    Cegar.Refine.attack_path Cpsrisk.Water_tank.refined_model ~entry:"email"
      ~target:"infected"
  with
  | Some [ "email"; "browser"; "infected" ] -> ()
  | Some other -> fail ("unexpected path " ^ String.concat "," other)
  | None -> fail "expected the spam-link attack path"

let test_topology_ews_reaches_tank () =
  (* the IT compromise can reach the physical asset through the valves *)
  let active =
    [
      Epa.Fault.make ~id:"FX" ~component:"ews" ~mode:Epa.Fault.Compromise ();
    ]
  in
  let r = Epa.Propagation.analyze Cpsrisk.Water_tank.topology ~active in
  check Alcotest.bool "tank affected" true
    (List.mem "tank" (Epa.Propagation.affected r));
  let path = Epa.Propagation.path_to "tank" Epa.Propagation.Value_err r in
  check Alcotest.bool "path starts at the workstation" true
    (match path with ("ews", _) :: _ -> true | _ -> false)

(* -------------------------------------------------------------------- *)
(* Optimization objective                                                *)
(* -------------------------------------------------------------------- *)

let test_residual_loss_decreases () =
  let base = Cpsrisk.Water_tank.residual_loss ~active:[] in
  let with_m1 = Cpsrisk.Water_tank.residual_loss ~active:[ "M1" ] in
  let all = Cpsrisk.Water_tank.residual_loss ~active:[ "M1"; "M3"; "M4"; "M5" ] in
  check Alcotest.bool "M1 helps" true (with_m1 < base);
  check Alcotest.int "full protection" 0 all

let test_optimizer_prefers_cheaper_equivalent () =
  (* M1 and M2 both block F4; the optimum must pick M1 (cost 2 < 5) *)
  let s =
    Mitigation.Optimizer.optimal ~budget:6
      (Cpsrisk.Water_tank.optimization_problem ())
  in
  check Alcotest.bool "M1 selected" true
    (List.mem "M1" s.Mitigation.Optimizer.selected);
  check Alcotest.bool "M2 skipped" false
    (List.mem "M2" s.Mitigation.Optimizer.selected)

(* -------------------------------------------------------------------- *)
(* Evaluation by effective fault set (Epa.Analysis.scope)                *)
(* -------------------------------------------------------------------- *)

let rec subsets = function
  | [] -> [ [] ]
  | x :: rest ->
      let s = subsets rest in
      s @ List.map (fun l -> x :: l) s

let mitigation_subsets =
  subsets
    (List.map
       (fun (a : Mitigation.Action.t) -> a.Mitigation.Action.id)
       Cpsrisk.Water_tank.mitigations)

(* a row with its counterexample traces, as text *)
let row_text (row : Epa.Analysis.row) =
  Format.asprintf "%s effective={%s} %s"
    (Epa.Scenario.label row.Epa.Analysis.scenario)
    (String.concat "," row.Epa.Analysis.effective)
    (String.concat "; "
       (List.map
          (fun (id, v) -> Format.asprintf "%s %a" id Epa.Requirement.pp_verdict v)
          row.Epa.Analysis.verdicts))

(* All 16 fault sets under all 32 mitigation subsets through one scope
   per horizon: each row equals the one its scenario gets alone, in a
   scope of its own, and the scope built one transition system per
   distinct effective set. A memo keyed on anything coarser than the
   effective set (the activated faults, say) answers a mitigated
   scenario with an unmitigated one's verdicts. *)
let test_scope_differential () =
  List.iter
    (fun horizon ->
      let builds = ref 0 in
      let scope =
        Epa.Analysis.scope ~horizon
          {
            Cpsrisk.Water_tank.system with
            Epa.Analysis.build =
              (fun ~faults ->
                incr builds;
                Cpsrisk.Water_tank.build_dynamics ~faults);
          }
      in
      List.iter
        (fun mitigations ->
          List.iter
            (fun scenario ->
              check Alcotest.string
                (Printf.sprintf "H=%d %s" horizon (Epa.Scenario.label scenario))
                (row_text
                   (Epa.Analysis.run_scenario ~horizon
                      Cpsrisk.Water_tank.system scenario))
                (row_text (Epa.Analysis.evaluate scope scenario)))
            (Epa.Scenario.all_combinations ~mitigations
               Cpsrisk.Water_tank.faults))
        mitigation_subsets;
      check Alcotest.int
        (Printf.sprintf "H=%d: one build per effective set" horizon)
        16 !builds)
    [ 0; 1; 12; 48 ]

(* the residual without a shared scope: every scenario in a scope of its
   own, so no two share a transition system *)
let unmemoised_problem =
  let residual ~active =
    List.fold_left
      (fun acc scenario ->
        let row =
          Epa.Analysis.run_scenario Cpsrisk.Water_tank.system scenario
        in
        List.fold_left
          (fun acc id ->
            acc + List.assoc id Cpsrisk.Water_tank.requirement_weights)
          acc
          (Epa.Analysis.violations row))
      0
      (Epa.Scenario.all_combinations ~mitigations:active
         Cpsrisk.Water_tank.faults)
  in
  { Mitigation.Optimizer.actions = Cpsrisk.Water_tank.mitigations; residual }

let test_scope_searches () =
  let memo = Cpsrisk.Water_tank.optimization_problem () in
  let solution = Alcotest.testable Mitigation.Optimizer.pp_solution ( = ) in
  List.iter
    (fun active ->
      check Alcotest.int
        ("residual of {" ^ String.concat "," active ^ "}")
        (unmemoised_problem.Mitigation.Optimizer.residual ~active)
        (Cpsrisk.Water_tank.residual_loss ~active))
    mitigation_subsets;
  let budgets = List.init 16 Fun.id in
  List.iter
    (fun budget ->
      check solution
        (Printf.sprintf "optimal at budget %d" budget)
        (Mitigation.Optimizer.optimal ~budget unmemoised_problem)
        (Mitigation.Optimizer.optimal ~budget memo))
    budgets;
  check (Alcotest.list solution) "pareto"
    (Mitigation.Optimizer.pareto unmemoised_problem)
    (Mitigation.Optimizer.pareto memo);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int solution))
    "budget sweep 0..15"
    (Mitigation.Optimizer.budget_sweep unmemoised_problem ~budgets)
    (Mitigation.Optimizer.budget_sweep memo ~budgets)

(* Steps 4 and 7 of the pipeline share one scope over the config's own
   system: 16 builds, one per effective set. Evaluating each scenario on
   its own builds 528 (16 at step 4, 32 x 16 at step 7); step 4 alone
   reaches only 9 distinct sets, so the sets with F4 but not all of
   F1-F3 (F4 under M3, M4 or M5) show that step 7 read the config's
   system. *)
let test_pipeline_builds () =
  let asked = ref [] in
  let system =
    {
      Cpsrisk.Water_tank.system with
      Epa.Analysis.build =
        (fun ~faults ->
          asked := faults :: !asked;
          Cpsrisk.Water_tank.build_dynamics ~faults);
    }
  in
  let a =
    Cpsrisk.Pipeline.run
      { (Cpsrisk.Pipeline.water_tank_config ()) with Cpsrisk.Pipeline.system }
  in
  check Alcotest.int "builds" 16 (List.length !asked);
  check Alcotest.int "distinct effective sets" 16
    (List.length (List.sort_uniq compare !asked));
  check Alcotest.bool "step 7 built {F2,F3,F4}" true
    (List.mem [ "F2"; "F3"; "F4" ] !asked);
  check Alcotest.string "log unchanged"
    (Cpsrisk.Pipeline.render_log
       (Cpsrisk.Pipeline.run (Cpsrisk.Pipeline.water_tank_config ())))
    (Cpsrisk.Pipeline.render_log a)

(* -------------------------------------------------------------------- *)
(* Pipeline (Fig. 1)                                                     *)
(* -------------------------------------------------------------------- *)

let test_pipeline_end_to_end () =
  let artifacts = Cpsrisk.Pipeline.run (Cpsrisk.Pipeline.water_tank_config ()) in
  check Alcotest.int "seven log lines" 7 (List.length artifacts.Cpsrisk.Pipeline.log);
  check Alcotest.int "scenario space" 16 artifacts.Cpsrisk.Pipeline.scenario_count;
  check Alcotest.bool "mutations include faults and techniques" true
    (List.exists
       (fun m -> match m.Cpsrisk.Pipeline.source with `Fault _ -> true | _ -> false)
       artifacts.Cpsrisk.Pipeline.mutations
    && List.exists
         (fun m ->
           match m.Cpsrisk.Pipeline.source with `Technique _ -> true | _ -> false)
         artifacts.Cpsrisk.Pipeline.mutations);
  (* refinement eliminated the compensated scenarios *)
  check Alcotest.bool "spurious eliminated" true
    (artifacts.Cpsrisk.Pipeline.spurious_eliminated <> []);
  check Alcotest.bool "hazards confirmed" true
    (artifacts.Cpsrisk.Pipeline.confirmed_hazards <> []);
  (* every confirmed hazard indeed violates something *)
  List.iter
    (fun h ->
      check Alcotest.bool "confirmed violates" true
        (Epa.Analysis.violations h.Cpsrisk.Pipeline.row <> []))
    artifacts.Cpsrisk.Pipeline.confirmed_hazards

let test_pipeline_step5_labels () =
  (* Fig. 1 step 5 on the water tank: the topology-level candidates, the
     spurious ones the behaviour level removes, and the confirmed hazards
     in the risk order of step 6 *)
  let a = Cpsrisk.Pipeline.run (Cpsrisk.Pipeline.water_tank_config ()) in
  let labels = Alcotest.list Alcotest.string in
  check labels "candidate hazards"
    [ "{F1}"; "{F2}"; "{F3}"; "{F4}"; "{F1,F2}"; "{F1,F3}"; "{F1,F4}";
      "{F2,F3}"; "{F2,F4}"; "{F3,F4}"; "{F1,F2,F3}"; "{F1,F2,F4}";
      "{F1,F3,F4}"; "{F2,F3,F4}"; "{F1,F2,F3,F4}" ]
    a.Cpsrisk.Pipeline.candidate_hazards;
  check labels "spurious eliminated" [ "{F1}"; "{F3}"; "{F1,F3}" ]
    a.Cpsrisk.Pipeline.spurious_eliminated;
  check labels "confirmed"
    [ "{F4}"; "{F1,F4}"; "{F2,F3}"; "{F2,F4}"; "{F3,F4}"; "{F1,F2,F3}";
      "{F1,F2,F4}"; "{F1,F3,F4}"; "{F2,F3,F4}"; "{F1,F2,F3,F4}"; "{F2}";
      "{F1,F2}" ]
    (List.map
       (fun (h : Cpsrisk.Pipeline.ranked_hazard) ->
         Epa.Scenario.label h.Cpsrisk.Pipeline.row.Epa.Analysis.scenario)
       a.Cpsrisk.Pipeline.confirmed_hazards)

let test_pipeline_budget_respected () =
  let artifacts =
    Cpsrisk.Pipeline.run (Cpsrisk.Pipeline.water_tank_config ~budget:2 ())
  in
  check Alcotest.bool "cost within budget" true
    (artifacts.Cpsrisk.Pipeline.plan.Mitigation.Optimizer.cost <= 2)

let test_pipeline_semantic_gate () =
  (* the opt-in L2xx gate runs against the full-activation encoding, which
     must be semantically clean — the pipeline completes and logs the
     extra step; the default config skips the gate entirely *)
  let artifacts =
    Cpsrisk.Pipeline.run
      (Cpsrisk.Pipeline.water_tank_config ~semantic_lint:true ())
  in
  check Alcotest.int "eight log lines with the gate" 8
    (List.length artifacts.Cpsrisk.Pipeline.log);
  check Alcotest.bool "gate line present" true
    (List.exists
       (fun l ->
         String.length l >= 24
         && String.sub l 0 24 = "step 1 (semantic lint): ")
       artifacts.Cpsrisk.Pipeline.log);
  check Alcotest.bool "hazards still confirmed" true
    (artifacts.Cpsrisk.Pipeline.confirmed_hazards <> [])

let test_pipeline_candidates_superset_confirmed () =
  let artifacts = Cpsrisk.Pipeline.run (Cpsrisk.Pipeline.water_tank_config ()) in
  List.iter
    (fun h ->
      let label =
        Epa.Scenario.label h.Cpsrisk.Pipeline.row.Epa.Analysis.scenario
      in
      check Alcotest.bool ("candidate covers " ^ label) true
        (List.mem label artifacts.Cpsrisk.Pipeline.candidate_hazards))
    artifacts.Cpsrisk.Pipeline.confirmed_hazards

(* -------------------------------------------------------------------- *)
(* Reports                                                               *)
(* -------------------------------------------------------------------- *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_report_table_ii_rendering () =
  let s =
    Cpsrisk.Report.table_ii
      ~fault_ids:[ "F1"; "F2"; "F3"; "F4" ]
      ~mitigation_ids:[ "M1"; "M2" ]
      (Cpsrisk.Water_tank.table_ii_rows ())
  in
  check Alcotest.bool "has S5" true (contains s "S5");
  check Alcotest.bool "has Violated" true (contains s "Violated");
  check Alcotest.bool "has Active" true (contains s "Active");
  (* S3 row: F1 active but nothing violated *)
  let s3_line =
    List.find (fun l -> String.length l >= 2 && String.sub l 0 2 = "S3")
      (String.split_on_char '\n' s)
  in
  check Alcotest.bool "S3 not violated" false (contains s3_line "Violated")

let test_report_table_i_rendering () =
  let s = Cpsrisk.Report.table_i () in
  check Alcotest.bool "labels" true (contains s "LM");
  check Alcotest.bool "has VH cells" true (contains s "VH")

let test_report_model_inventory () =
  let s = Cpsrisk.Report.model_inventory Cpsrisk.Water_tank.refined_model in
  check Alcotest.bool "engineering workstation listed" true
    (contains s "Engineering Workstation");
  check Alcotest.bool "browser listed after refinement" true
    (contains s "Browser");
  check Alcotest.bool "composition shown" true (contains s "composition")

let test_report_markdown_table () =
  let s =
    Cpsrisk.Report.markdown_table ~header:[ "a"; "bb" ]
      [ [ "1"; "2" ]; [ "333" ] ]
  in
  let lines = String.split_on_char '\n' s in
  check Alcotest.int "5 lines (incl trailing)" 5 (List.length lines);
  check Alcotest.bool "separator" true (contains s "|-")

let test_report_propagation_paths () =
  let r =
    Epa.Propagation.analyze Cpsrisk.Water_tank.topology
      ~active:
        [ Epa.Fault.make ~id:"F4" ~component:"ews" ~mode:Epa.Fault.Compromise () ]
  in
  let s = Cpsrisk.Report.propagation_paths r in
  check Alcotest.bool "mentions the workstation" true (contains s "ews");
  check Alcotest.bool "mentions the tank" true (contains s "tank");
  check Alcotest.bool "shows provenance" true (contains s "from ")

let test_solver_show_projection () =
  (* #show projects the models the CLI prints *)
  let g =
    Asp.Grounder.ground
      (Asp.Parser.parse_program "#show b/1. a(1..2). b(X) :- a(X).")
  in
  match Asp.Solver.solve g with
  | [ m ] ->
      let projected = Asp.Model.project g.Asp.Ground.shows m in
      check Alcotest.int "only b atoms" 2
        (List.length (Asp.Model.to_list projected));
      check Alcotest.bool "a filtered" false
        (Asp.Model.holds_pred projected "a")
  | _ -> fail "expected one model"

(* paper listings parse with the embedded engine *)
let test_paper_listings_parse () =
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
      match Asp.Parser.parse_rule src with
      | _ -> ()
      | exception Asp.Parser.Error e -> fail e)
    [ listing1; listing2 ]

let qcheck t = QCheck_alcotest.to_alcotest t

let suites =
  [
    ( "cpsrisk.table2",
      [
        Alcotest.test_case "Table II exact" `Quick test_table_ii_exact;
        Alcotest.test_case "S2 induced closure" `Quick test_table_ii_s2_expansion;
        Alcotest.test_case "mitigated F4 excluded" `Quick
          test_table_ii_mitigated_f4_excluded;
        Alcotest.test_case "S5 most severe" `Quick test_s5_most_severe;
        Alcotest.test_case "sweep size" `Quick test_full_sweep_size;
      ] );
    ( "cpsrisk.backends",
      [
        Alcotest.test_case "ASP agrees on S1-S7" `Quick
          test_asp_backend_agrees_on_paper_scenarios;
        Alcotest.test_case "ASP program single model" `Quick
          test_asp_program_is_stratified_single_model;
        Alcotest.test_case "ASP horizon robustness" `Quick
          test_asp_backend_horizon_robustness;
        Alcotest.test_case "fault-free trace" `Quick test_dynamics_trace_shape;
        Alcotest.test_case "F2 overflow path" `Quick
          test_dynamics_f2_overflow_path;
        qcheck prop_backends_agree_everywhere;
        Alcotest.test_case "uncertain over-approximates" `Quick
          test_uncertain_over_approximates;
        Alcotest.test_case "uncertain spurious hazards" `Quick
          test_uncertain_has_spurious_hazards;
        Alcotest.test_case "uncertain CEGAR refinement" `Quick
          test_uncertain_cegar_refinement;
        Alcotest.test_case "ASP critical scenario (unmitigated)" `Quick
          test_asp_critical_scenario_unmitigated;
        Alcotest.test_case "ASP critical scenario = S5" `Quick
          test_asp_critical_scenario_reproduces_s5;
        Alcotest.test_case "ASP mitigation optimum agrees" `Slow
          test_asp_mitigation_optimum_agrees;
        Alcotest.test_case "ASP no-mitigation residual" `Slow
          test_asp_mitigation_no_selection_residual;
        Alcotest.test_case "ASP budgeted optimum agrees" `Slow
          test_asp_mitigation_budget_agrees;
      ] );
    ( "cpsrisk.models",
      [
        Alcotest.test_case "case-study models valid" `Quick
          test_case_study_model_valid;
        Alcotest.test_case "refined attack path" `Quick
          test_refined_model_attack_path;
        Alcotest.test_case "IT reaches OT" `Quick test_topology_ews_reaches_tank;
      ] );
    ( "cpsrisk.optimization",
      [
        Alcotest.test_case "residual decreases" `Quick test_residual_loss_decreases;
        Alcotest.test_case "cheaper equivalent preferred" `Quick
          test_optimizer_prefers_cheaper_equivalent;
      ] );
    ( "cpsrisk.scope",
      [
        Alcotest.test_case "rows equal run_scenario's" `Quick
          test_scope_differential;
        Alcotest.test_case "searches equal the unmemoised ones" `Quick
          test_scope_searches;
        Alcotest.test_case "pipeline builds 16" `Quick test_pipeline_builds;
      ] );
    ( "cpsrisk.pipeline",
      [
        Alcotest.test_case "end to end" `Quick test_pipeline_end_to_end;
        Alcotest.test_case "step 5 labels" `Quick test_pipeline_step5_labels;
        Alcotest.test_case "budget respected" `Quick test_pipeline_budget_respected;
        Alcotest.test_case "semantic gate" `Quick test_pipeline_semantic_gate;
        Alcotest.test_case "over-approximation" `Quick
          test_pipeline_candidates_superset_confirmed;
      ] );
    ( "cpsrisk.report",
      [
        Alcotest.test_case "table II rendering" `Quick
          test_report_table_ii_rendering;
        Alcotest.test_case "table I rendering" `Quick test_report_table_i_rendering;
        Alcotest.test_case "model inventory" `Quick test_report_model_inventory;
        Alcotest.test_case "markdown table" `Quick test_report_markdown_table;
        Alcotest.test_case "propagation paths" `Quick
          test_report_propagation_paths;
        Alcotest.test_case "#show projection" `Quick test_solver_show_projection;
        Alcotest.test_case "paper listings parse" `Quick test_paper_listings_parse;
      ] );
  ]
