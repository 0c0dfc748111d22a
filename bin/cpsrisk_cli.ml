(* cpsrisk — command-line front end of the risk-assessment framework.

   Subcommands:
     casestudy   reproduce the paper's §VII water-tank evaluation
     pipeline    run the Fig. 1 pipeline end to end
     matrices    print the qualitative risk matrices (Table I, IEC 61508)
     model       parse, validate and inspect a textual system model
     lint        static analysis of ASP programs and system models
     analyze     semantic fixpoint analysis of an ASP program
     threats     threat landscape of a typed model
     solve       run the embedded ASP solver on a program file
     score       CVSS v3.1 calculator
     sweep       batch what-if analysis through the sweep engine
     serve       persistent assessment service on a Unix-domain socket
     request     client for a running assessment service

   The options and input loaders they share are in common.ml. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* casestudy                                                            *)
(* ------------------------------------------------------------------ *)

let casestudy backend =
  print_endline "Water tank case study (paper §VII)\n";
  (match backend with
  | `Dynamics ->
      print_string
        (Cpsrisk.Report.table_ii
           ~fault_ids:[ "F1"; "F2"; "F3"; "F4" ]
           ~mitigation_ids:[ "M1"; "M2" ]
           (Cpsrisk.Water_tank.table_ii_rows ()))
  | `Asp ->
      List.iter
        (fun (label, scenario) ->
          let verdicts = Cpsrisk.Water_tank.asp_verdicts ~scenario () in
          Printf.printf "%-4s %s\n" label
            (String.concat "  "
               (List.map
                  (fun (r, v) ->
                    Printf.sprintf "%s=%s" r (if v then "Violated" else "-"))
                  verdicts)))
        Cpsrisk.Water_tank.paper_scenarios);
  print_newline ();
  let rows = Cpsrisk.Water_tank.full_sweep ~mitigations:[ "M1"; "M2" ] () in
  (match Epa.Analysis.most_severe rows with
  | worst :: _ ->
      Printf.printf
        "most severe combination: {%s} (%d violations from %d faults)\n"
        (String.concat "," worst.Epa.Analysis.scenario.Epa.Scenario.faults)
        (List.length (Epa.Analysis.violations worst))
        (List.length worst.Epa.Analysis.scenario.Epa.Scenario.faults)
  | [] -> ());
  0

let backend_arg =
  let backend_conv = Arg.enum [ ("dynamics", `Dynamics); ("asp", `Asp) ] in
  Arg.(
    value & opt backend_conv `Dynamics
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:"Analysis backend: $(b,dynamics) (LTLf model checking) or \
              $(b,asp) (generated temporal ASP program).")

let casestudy_cmd =
  Cmd.v
    (Cmd.info "casestudy" ~doc:"Reproduce the paper's water-tank evaluation (Table II)")
    Term.(const casestudy $ backend_arg)

(* ------------------------------------------------------------------ *)
(* pipeline                                                             *)
(* ------------------------------------------------------------------ *)

let pipeline budget semantic_lint =
  let artifacts =
    Cpsrisk.Pipeline.run
      (Cpsrisk.Pipeline.water_tank_config ?budget ~semantic_lint ())
  in
  print_string (Cpsrisk.Pipeline.render_log artifacts);
  print_newline ();
  print_endline "confirmed hazards (ranked):";
  List.iter
    (fun h ->
      Printf.printf "  %-28s risk %s\n"
        (Epa.Scenario.label h.Cpsrisk.Pipeline.row.Epa.Analysis.scenario)
        (Qual.Level.to_string h.Cpsrisk.Pipeline.risk))
    artifacts.Cpsrisk.Pipeline.confirmed_hazards;
  0

let budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "budget" ] ~docv:"N" ~doc:"Mitigation budget constraint.")

let semantic_lint_flag =
  Arg.(
    value & flag
    & info [ "semantic-lint" ]
        ~doc:
          "Fail fast when the generated full-activation ASP encoding \
           carries a semantic lint ($(b,L200)+) warning or error.")

let pipeline_cmd =
  Cmd.v
    (Cmd.info "pipeline" ~doc:"Run the seven-step Fig. 1 pipeline end to end")
    Term.(const pipeline $ budget_arg $ semantic_lint_flag)

(* ------------------------------------------------------------------ *)
(* matrices                                                             *)
(* ------------------------------------------------------------------ *)

let matrices () =
  print_endline "Table I — O-RA risk matrix (LM x LEF):\n";
  print_string (Cpsrisk.Report.table_i ());
  print_endline "\nIEC 61508 risk classes (likelihood x consequence):\n";
  print_string (Cpsrisk.Report.iec_matrix ());
  print_endline "\nHierarchical evaluation matrix (Fig. 3):\n";
  print_string (Cpsrisk.Report.hierarchical_matrix ());
  0

let matrices_cmd =
  Cmd.v
    (Cmd.info "matrices" ~doc:"Print the qualitative risk matrices")
    Term.(const matrices $ const ())

(* ------------------------------------------------------------------ *)
(* model                                                                *)
(* ------------------------------------------------------------------ *)

let model_cmd_run file =
  Common.guard "model" @@ fun () ->
  let m = Common.load_model file in
  print_string (Cpsrisk.Report.model_inventory m);
  let issues = Archimate.Validate.run m in
  if issues = [] then print_endline "\nvalidation: clean"
  else begin
    print_endline "\nvalidation:";
    List.iter (fun i -> Format.printf "  %a@." Archimate.Validate.pp_issue i) issues
  end;
  if Archimate.Validate.is_valid m then 0 else 1

let model_cmd =
  Cmd.v
    (Cmd.info "model" ~doc:"Parse, validate and inspect a textual system model")
    Term.(const model_cmd_run $ Common.model_file)

(* ------------------------------------------------------------------ *)
(* lint                                                                 *)
(* ------------------------------------------------------------------ *)

(* the paper's S5 scenario: both mitigations and the worst fault pair, so
   every predicate family is populated *)
let builtin_program () =
  let scenario = List.assoc "S5" Cpsrisk.Water_tank.paper_scenarios in
  Cpsrisk.Water_tank.asp_program ~scenario ()

let semlint_config threshold =
  match threshold with
  | None -> Analysis.Semlint.default_config
  | Some t -> { Analysis.Semlint.blowup_threshold = t }

let lint_run file builtin json strict list_codes semantic threshold =
  let module D = Lint.Diagnostic in
  if list_codes then begin
    List.iter
      (fun (code, sev, doc) ->
        Printf.printf "%-6s %-8s %s\n" code (D.severity_to_string sev) doc)
      (Lint.codes @ Analysis.Semlint.codes);
    0
  end
  else
    Common.guard ~code:2 "lint" @@ fun () ->
    let config = semlint_config threshold in
    let semantic_diags program =
      if semantic then Analysis.Semlint.run ~config program else []
    in
    let diags =
      match builtin, file with
      | Some `Water_tank, _ ->
          let program = builtin_program () in
          let encode atom time_term =
            if atom = "alert" then
              Asp.Lit.Pos (Asp.Atom.make "alert" [ time_term ])
            else Telingo.Compile.default_encoding atom time_term
          in
          let requirements =
            List.map
              (fun (r : Epa.Requirement.t) ->
                (r.Epa.Requirement.id, r.Epa.Requirement.formula))
              Cpsrisk.Water_tank.requirements
          in
          D.sort
            (Lint.run_program ~requirements ~encode program
            @ semantic_diags program)
      | None, Some file ->
          let src = Common.read_file file in
          if Filename.check_suffix file ".model" then Lint.run_model_source src
          else
            let semantic =
              (* a syntax error is already a diagnostic of the
                 syntactic battery; skip the semantic pass then *)
              match Asp.Parser.parse_program src with
              | exception Asp.Parser.Error _ -> []
              | program -> semantic_diags program
            in
            D.sort (Lint.run_source src @ semantic)
      | None, None -> Common.fail "a FILE or --builtin water-tank is required"
    in
    if json then Common.print_json (Serve.Answer.diagnostics diags)
    else begin
      List.iter (fun d -> print_endline (D.to_string d)) diags;
      Printf.printf "lint: %s\n" (D.summary diags)
    end;
    if D.has_errors diags || (strict && not (D.is_clean diags)) then 1 else 0

let lint_file_arg =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"FILE"
        ~doc:"ASP program ($(b,.lp)) or textual system model ($(b,.model)); \
              files ending in $(b,.model) get the model checks, everything \
              else the program checks.")

let builtin_arg =
  Arg.(
    value
    & opt (some (enum [ ("water-tank", `Water_tank) ])) None
    & info [ "builtin" ] ~docv:"NAME"
        ~doc:"Lint a built-in encoding instead of a file ($(b,water-tank): \
              the generated S5 scenario program with requirement coverage).")

let strict_flag =
  Arg.(
    value & flag
    & info [ "strict" ] ~doc:"Exit non-zero on warnings too, not just errors.")

let list_codes_flag =
  Arg.(
    value & flag
    & info [ "list-codes" ] ~doc:"Print the table of diagnostic codes and exit.")

let semantic_flag =
  Arg.(
    value & flag
    & info [ "semantic" ]
        ~doc:
          "Also run the fixpoint semantic analysis (codes $(b,L200)+): \
           inferred-domain dead rules, always-false comparisons, \
           subsumed/duplicate rules, type clashes, grounding-blowup \
           prediction.")

let threshold_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "blowup-threshold" ] ~docv:"N"
        ~doc:
          "Estimated ground instantiations at which $(b,L212) flags a rule \
           (default 512).")

let lint_cmd =
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Static analysis of ASP programs and system models"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs the pre-grounding check battery and prints located \
              diagnostics. Exit status is 0 when no error-severity \
              diagnostic was produced, 1 otherwise (with $(b,--strict), \
              warnings also fail), 2 on usage errors. Info-severity \
              diagnostics never affect the exit status.";
         ])
    Term.(
      const lint_run $ lint_file_arg $ builtin_arg $ Common.json $ strict_flag
      $ list_codes_flag $ semantic_flag $ threshold_arg)

(* ------------------------------------------------------------------ *)
(* analyze                                                              *)
(* ------------------------------------------------------------------ *)

let analyze_run file builtin json threshold =
  let module D = Lint.Diagnostic in
  Common.guard ~code:2 "analyze" @@ fun () ->
  let program =
    match builtin, file with
    | Some `Water_tank, _ -> builtin_program ()
    | None, Some file -> Common.load_program file
    | None, None -> Common.fail "a FILE or --builtin water-tank is required"
  in
  let info = Analysis.Infer.analyze program in
  let diags = Analysis.Semlint.run_infer ~config:(semlint_config threshold) info in
  if json then Common.print_json (Serve.Answer.diagnostics diags)
  else begin
    print_string (Analysis.Report.render info);
    if diags <> [] then begin
      print_endline "\nsemantic diagnostics:";
      List.iter (fun d -> print_endline ("  " ^ D.to_string d)) diags
    end;
    Printf.printf "\nanalyze: %s\n" (D.summary diags)
  end;
  if D.has_errors diags then 1 else 0

let analyze_file_arg =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"ASP program to analyze.")

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Semantic analysis of an ASP program (domains, costs, dead code)"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs the bottom-up fixpoint abstract interpretation: inferred \
              per-argument domains and cardinality estimates per predicate, \
              estimated firings and instantiation cost per rule, \
              stratification and tightness, and the $(b,L200)+ semantic \
              diagnostics. Exit status is 1 when an error-severity \
              diagnostic was produced, 2 on usage errors, 0 otherwise.";
         ])
    Term.(
      const analyze_run $ analyze_file_arg $ builtin_arg $ Common.json
      $ threshold_arg)

(* ------------------------------------------------------------------ *)
(* threats                                                              *)
(* ------------------------------------------------------------------ *)

let threats file =
  Common.guard "threats" @@ fun () ->
  let m = Common.load_model file in
  List.iter
    (fun (e : Archimate.Element.t) ->
      match Archimate.Element.property "component_type" e with
      | None -> ()
      | Some ty ->
          let threats = Threatdb.Db.threats_for_type ty in
          if threats <> [] then begin
            Printf.printf "%s (%s):\n" e.Archimate.Element.id ty;
            List.iter
              (fun (t : Threatdb.Db.threat) ->
                Printf.printf "  %-6s %-36s severity %s\n"
                  t.Threatdb.Db.technique.Threatdb.Attck.id
                  t.Threatdb.Db.technique.Threatdb.Attck.name
                  (Qual.Level.to_string t.Threatdb.Db.severity))
              threats
          end)
    (Archimate.Model.elements m);
  0

let threats_cmd =
  Cmd.v
    (Cmd.info "threats" ~doc:"Threat landscape of a typed system model")
    Term.(const threats $ Common.model_file)

(* ------------------------------------------------------------------ *)
(* solve                                                                *)
(* ------------------------------------------------------------------ *)

let solve file limit optimal stats =
  Common.guard "solve" @@ fun () ->
  match Serve.Answer.solve ?limit ~optimal (Common.read_file file) with
  | Error msg -> Common.fail "%s: %s" file msg
  | Ok s ->
      List.iteri
        (fun i m -> Printf.printf "Answer %d: %s\n" (i + 1) (Asp.Model.to_string m))
        s.Serve.Answer.answers;
      let n = List.length s.Serve.Answer.answers in
      if n = 0 then print_endline "UNSATISFIABLE"
      else Printf.printf "SATISFIABLE (%d model%s)\n" n (if n = 1 then "" else "s");
      if stats then begin
        Printf.printf "Ground: %s\n"
          (Asp.Grounder.Stats.to_string s.Serve.Answer.ground_stats);
        Printf.printf "Stats: %s\n" (Asp.Solver.Stats.to_string s.Serve.Answer.stats)
      end;
      if n = 0 then 1 else 0

let optimal_arg =
  Arg.(
    value & flag
    & info [ "opt" ] ~doc:"Report only weak-constraint-optimal models.")

let program_file =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"ASP program.")

let solve_cmd =
  Cmd.v
    (Cmd.info "solve" ~doc:"Run the embedded ASP solver on a program file")
    Term.(
      const solve $ program_file $ Common.limit [ "n"; "models" ] $ optimal_arg
      $ Common.stats)

(* ------------------------------------------------------------------ *)
(* score                                                                *)
(* ------------------------------------------------------------------ *)

let score vector =
  match Threatdb.Cvss.of_vector vector with
  | Error msg ->
      Printf.eprintf "invalid vector: %s\n" msg;
      1
  | Ok base ->
      let s = Threatdb.Cvss.base_score base in
      Printf.printf "%s\nbase score: %.1f (%s)\n"
        (Threatdb.Cvss.to_vector base) s
        (Threatdb.Cvss.severity_to_string (Threatdb.Cvss.severity s));
      0

let vector_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"VECTOR" ~doc:"CVSS v3.1 vector string.")

let score_cmd =
  Cmd.v
    (Cmd.info "score" ~doc:"CVSS v3.1 base-score calculator")
    Term.(const score $ vector_arg)

(* ------------------------------------------------------------------ *)
(* attackgraph                                                          *)
(* ------------------------------------------------------------------ *)

let attackgraph file dot =
  Common.guard "attackgraph" @@ fun () ->
  let model =
    match file with
    | Some f -> Common.load_model f
    | None -> Cpsrisk.Water_tank.refined_model
  in
  let g = Attackgraph.Graph.generate model in
  if dot then begin
    print_string (Attackgraph.Graph.to_dot g);
    0
  end
  else begin
    let n_nodes, n_edges = Attackgraph.Graph.size g in
    Printf.printf "nodes: %d, edges: %d\n" n_nodes n_edges;
    let scenarios = Attackgraph.Graph.attack_scenarios ~max_length:5 g in
    Printf.printf "entry->goal scenarios (max 5 steps): %d\n\n"
      (List.length scenarios);
    List.iteri
      (fun i path ->
        if i < 20 then
          Printf.printf "[%s] %s\n"
            (Qual.Level.to_string (Attackgraph.Graph.severity path))
            (String.concat " -> "
               (List.map (Format.asprintf "%a" Attackgraph.Graph.pp_node) path)))
      scenarios;
    if List.length scenarios > 20 then
      Printf.printf "... (%d more)\n" (List.length scenarios - 20);
    0
  end

let dot_flag =
  Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead of a listing.")

let attackgraph_cmd =
  Cmd.v
    (Cmd.info "attackgraph"
       ~doc:"Generate the attack graph of a typed system model")
    Term.(const attackgraph $ Common.optional_model_file $ dot_flag)

(* ------------------------------------------------------------------ *)
(* dot (model diagram)                                                  *)
(* ------------------------------------------------------------------ *)

let dot_cmd_run file =
  Common.guard "dot" @@ fun () ->
  let model =
    match file with
    | Some f -> Common.load_model f
    | None -> Cpsrisk.Water_tank.refined_model
  in
  print_string (Archimate.Dot.render model);
  0

let dot_cmd =
  Cmd.v
    (Cmd.info "dot" ~doc:"Render a system model as Graphviz")
    Term.(const dot_cmd_run $ Common.optional_model_file)

(* ------------------------------------------------------------------ *)
(* sweep                                                                *)
(* ------------------------------------------------------------------ *)

let sweep mutations model horizon stats json =
  Common.guard "sweep" @@ fun () ->
  let deltas = Option.map Common.load_mutations mutations in
  let target =
    match model with
    | None -> Cpsrisk.Backend.target ?horizon Cpsrisk.Backend.Water_tank
    | Some file ->
        Cpsrisk.Backend.target ~model:(Common.load_model file)
          Cpsrisk.Backend.Topology
  in
  let deltas = Option.value ~default:target.Cpsrisk.Backend.what_if deltas in
  let report =
    try Engine.Sweep.run { target.Cpsrisk.Backend.spec with Engine.Job.deltas }
    with Asp.Grounder.Unsafe msg | Asp.Grounder.Overflow msg ->
      (* an `! ASP` tail whose rules cannot be ground *)
      let file = Option.fold ~none:"" ~some:(fun f -> f ^ ": ") mutations in
      Common.fail "%sgrounding error: %s" file msg
  in
  let backend = target.Cpsrisk.Backend.backend in
  if json then
    Common.print_json
      (Serve.Json.Obj
         (Serve.Answer.sweep backend report.Engine.Sweep.results
            ~extra:
              [
                ("base_atoms", Serve.Json.Int (Engine.Sweep.base_atoms report));
                ("wall_s", Serve.Json.Float report.Engine.Sweep.wall_s);
              ]))
  else begin
    Array.iter
      (fun (r : Engine.Job.result) ->
        print_endline
          (Cpsrisk.Backend.render_result
             ~label:(Engine.Delta.label r.Engine.Job.delta)
             ~cached:r.Engine.Job.cached (Cpsrisk.Backend.read backend r)))
      report.Engine.Sweep.results;
    if stats then begin
      print_newline ();
      print_string (Engine.Sweep.render report);
      Option.iter
        (fun h -> print_string (Cpsrisk.Sweeps.render_horizon h))
        target.Cpsrisk.Backend.horizon
    end
  end;
  0

let mutations_arg =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"MUTATIONS"
        ~doc:
          "Mutations file, one delta per line: $(b,[LABEL:] FAULTS [/ \
           MITIGATIONS] [! ASP]) with comma-separated id lists, $(b,-) for \
           none, $(b,#) comments. Defaults to the backend's full what-if \
           space (every fault combination, or one injection per model \
           component).")

let sweep_model_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "model" ] ~docv:"FILE"
        ~doc:
          "Sweep a textual system model with static error propagation \
           instead of the built-in water-tank temporal encoding; delta \
           faults name injected component ids, delta mitigations shield \
           the associated components.")

let sweep_cmd =
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Batch what-if analysis through the sweep engine"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs every mutation delta against the shared base encoding \
              through the cache-reusing scenario-sweep engine: the base \
              program is built, fingerprinted and grounded once, the jobs \
              run in order against it, and structurally identical deltas \
              are solved once.";
         ])
    Term.(
      const sweep $ mutations_arg $ sweep_model_arg $ Common.horizon
      $ Common.stats $ Common.json)

(* ------------------------------------------------------------------ *)
(* refine / mitigate                                                    *)
(* ------------------------------------------------------------------ *)

let refine levels entries (_mode : [ `Assume | `Increment ]) stats json =
  match Cegar.Inc.run (Cpsrisk.Hierarchy.refine_spec ~levels ~entries ()) with
  | outcome ->
      if json then Common.print_json (Serve.Answer.refine outcome)
      else print_string (Cpsrisk.Pipeline.render_refine ~stats outcome);
      0
  | exception Invalid_argument msg ->
      Printf.eprintf "cpsrisk refine: %s\n" msg;
      1

let refine_cmd =
  let levels_arg =
    Arg.(
      value
      & opt int Cpsrisk.Hierarchy.default_levels
      & info [ "levels"; "l" ] ~docv:"N"
          ~doc:"Refinement levels of the zone hierarchy.")
  in
  let entries_arg =
    Arg.(
      value
      & opt int Cpsrisk.Hierarchy.default_entries
      & info [ "entries"; "e" ] ~docv:"N"
          ~doc:"Candidate entry-point hypotheses (must exceed --levels).")
  in
  let mode_arg =
    Arg.(
      value
      & opt (enum [ ("assume", `Assume); ("increment", `Increment) ]) `Assume
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "Accepted for compatibility with scripts that pass it: \
             $(b,assume) and $(b,increment) run the same refinement, \
             with the same output.")
  in
  Cmd.v
    (Cmd.info "refine"
       ~doc:"Incremental CEGAR over the hierarchical case study"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs the layered-zone refinement schedule through the \
              incremental CEGAR driver: the base abstraction is grounded \
              once, every refinement level extends the warm grounder state \
              of the previous one, and candidate hypotheses are assessed \
              in turn. A hypothesis survives a level when the plant is \
              reachable from its entry point past that level's firewall \
              rules. That is stratified reachability: each candidate adds \
              its entry point as a fact, and the grounder decides it \
              against the level's warm state with no solver (the cache \
              answers a candidate it has already seen).";
         ])
    Term.(
      const refine $ levels_arg $ entries_arg $ mode_arg $ Common.stats
      $ Common.json)

let mitigate frontier case search horizon stats json =
  let target = Cpsrisk.Backend.target ?horizon case in
  (* --case offers only targets that carry an action catalog *)
  let build = Option.get target.Cpsrisk.Backend.frontier in
  (* the private cache hands every fresh answer to its store hook once:
     count there the evaluations the grounder decided *)
  let decided = Atomic.make 0 in
  let cache =
    Engine.Cache.create
      ~persist:
        {
          Engine.Cache.load = (fun _ -> None);
          store =
            (fun _ (_, _, g) ->
              ignore (Atomic.fetch_and_add decided g.Asp.Grounder.Stats.decided));
        }
      ()
  in
  let f = build ~cache (Engine.Job.prepare target.Cpsrisk.Backend.spec) in
  let answer, report =
    if frontier then Cpsrisk.Pipeline.mitigate_frontier f search
    else
      (* the retained scratch search: cold per-evaluation grounding, no
         cache, no pool — the differential oracle of --frontier *)
      let p = Mitigation.Frontier.scratch_problem f in
      let answer =
        match search with
        | Cpsrisk.Pipeline.Frontier_optimal budget ->
            Cpsrisk.Pipeline.Frontier_solution
              (Mitigation.Optimizer.optimal ?budget p)
        | Cpsrisk.Pipeline.Frontier_pareto ->
            Cpsrisk.Pipeline.Frontier_front (Mitigation.Optimizer.pareto p)
        | Cpsrisk.Pipeline.Frontier_sweep budgets ->
            Cpsrisk.Pipeline.Frontier_curve
              (Mitigation.Optimizer.budget_sweep p ~budgets)
      in
      ( answer,
        {
          Mitigation.Frontier.r_evals = 0;
          r_hits = 0;
          r_disk_hits = 0;
          r_fresh = 0;
          r_pruned = 0;
          r_sum_s = 0.0;
          r_critical_s = 0.0;
          r_wall_s = 0.0;
        } )
  in
  if json then Common.print_json (Serve.Json.Obj (Serve.Answer.frontier answer report))
  else
    print_string
      (Cpsrisk.Pipeline.render_frontier ~stats:(stats && frontier)
         ~decided:(Atomic.get decided) answer report);
  0

let mitigate_cmd =
  let frontier_flag =
    Arg.(
      value & flag
      & info [ "frontier" ]
          ~doc:
            "Evaluate candidate action sets as fingerprinted deltas over \
             warm engine state — cache-deduplicated and branch-and-bound \
             pruned. Without it the retained scratch search runs (same \
             answers, cold).")
  in
  let case_arg =
    let cases = Cpsrisk.Backend.[ Hierarchy; Water_tank ] in
    Arg.(
      value
      & opt (enum (List.map (fun b -> (Cpsrisk.Backend.name b, b)) cases))
          Cpsrisk.Backend.Hierarchy
      & info [ "case" ] ~docv:"CASE"
          ~doc:
            "Action catalog: $(b,hierarchy) (12 shield placements over the \
             layered plant) or $(b,water-tank) (the paper's M1/M2 catalog \
             under the F4 workstation-compromise scenario).")
  in
  Cmd.v
    (Cmd.info "mitigate"
       ~doc:"Mitigation search over the engine-backed frontier"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Searches the mitigation-action subsets of the chosen case \
              study for optimal plans, Pareto fronts and cost/benefit \
              curves. With $(b,--frontier), every candidate subset is one \
              fingerprinted delta over the prepared base encoding: \
              structurally identical what-ifs are answered from the cache, \
              and every search cuts the subtrees whose full-inclusion \
              bound already loses (for $(b,--pareto): is strictly \
              dominated by a front point found so far). Answers are \
              bit-for-bit those of the retained scratch search.";
         ])
    Term.(
      const mitigate $ frontier_flag $ case_arg $ Common.search
      $ Common.horizon $ Common.stats $ Common.json)

(* ------------------------------------------------------------------ *)
(* serve / request                                                      *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  Arg.(
    value
    & opt string "cpsrisk.sock"
    & info [ "socket"; "s" ] ~docv:"PATH"
        ~doc:"Unix-domain socket the daemon listens on.")

let serve socket cache_dir cache_mb quiet =
  let log =
    if quiet then None
    else
      Some
        (fun msg ->
          Printf.eprintf "cpsrisk serve: %s\n%!" msg)
  in
  match
    Serve.Server.run { Serve.Server.socket; cache_dir; cache_mb; log }
  with
  | () -> 0
  | exception Unix.Unix_error (err, fn, _) ->
      Printf.eprintf "cpsrisk serve: %s: %s\n" fn (Unix.error_message err);
      1

let serve_cmd =
  let cache_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Persist solved answers in an on-disk content-addressed store \
             rooted here (created if needed); re-sweeps against a restarted \
             daemon are then served from disk with no fresh grounding or \
             solving. Omitted: the cache is in-memory only.")
  in
  let cache_mb_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-mb" ] ~docv:"MB"
          ~doc:
            "Bound the on-disk store; least-recently-used entries are \
             evicted past the bound. Omitted: unbounded.")
  in
  let quiet_flag =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No event log on stderr.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the persistent assessment service"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Starts a daemon on a Unix-domain socket speaking a \
              line-delimited JSON protocol (one request object per line, \
              one response object back). Loaded models keep their base \
              encoding grounded and fingerprinted in memory, so what-if \
              sweeps extend warm state; each connection's requests are \
              answered on its own thread, and concurrent sweeps of one \
              model share its answer cache; with $(b,--cache-dir), \
              every solved delta is also persisted content-addressed on \
              disk and survives restarts. Use $(b,cpsrisk request) as the \
              client, or any tool that can write JSON lines to a socket. \
              Stop it with $(b,cpsrisk request shutdown).";
         ])
    Term.(
      const serve $ socket_arg $ cache_dir_arg $ cache_mb_arg $ quiet_flag)

(* --- request: client side ------------------------------------------ *)

(* Reproduce `cpsrisk sweep`'s text output from the wire response, so
   `cpsrisk request sweep` is diffable bit-for-bit against the one-shot
   command on the same model and mutations. *)
let print_sweep_text response =
  List.iter
    (fun r ->
      print_endline
        (Cpsrisk.Backend.render_result
           ~label:(Option.value ~default:"?" (Serve.Json.mem_string "label" r))
           ~cached:false (Serve.Answer.reading_of_json r)))
    (Option.value ~default:[] (Serve.Json.mem_list "results" response))

let request socket op name model_file backend horizon file limit optimal
    search json =
  Common.guard "request" @@ fun () ->
  let needs what = function
    | Some file -> Common.read_file file
    | None -> Common.fail "%s needs a %s file argument" op what
  in
  let req =
    match op with
    | "load-model" -> (
        match model_file with
        | Some file ->
            Serve.Protocol.Load_model
              {
                name;
                backend = Serve.Protocol.Topology;
                horizon;
                model_src = Some (Common.read_file file);
              }
        | None -> Serve.Protocol.Load_model { name; backend; horizon; model_src = None })
    | "mitigate" -> Serve.Protocol.Mitigate { model = name; search }
    | "sweep" ->
        Serve.Protocol.Sweep
          { model = name; mutations = needs "MUTATIONS" file; jobs = None }
    | "solve" ->
        Serve.Protocol.Solve { program = needs "PROGRAM" file; limit; optimal }
    | "status" -> Serve.Protocol.Status
    | "stats" -> Serve.Protocol.Stats
    | "list-models" -> Serve.Protocol.List_models
    | "evict-model" -> Serve.Protocol.Evict_model { name }
    | "shutdown" -> Serve.Protocol.Shutdown
    | op ->
        Common.fail
          "unknown op %S (load-model | sweep | mitigate | solve | status | \
           stats | list-models | evict-model | shutdown)"
          op
  in
  match Serve.Client.request ~socket (Serve.Protocol.request_to_json req) with
  | Error msg -> Common.fail "%s" msg
  | Ok response ->
      if (not json) && op = "sweep" then print_sweep_text response
      else Common.print_json response;
      0

let request_cmd =
  let op_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OP"
          ~doc:
            "One of $(b,load-model), $(b,sweep), $(b,mitigate), $(b,solve), \
             $(b,status), $(b,stats), $(b,list-models), $(b,evict-model), \
             $(b,shutdown).")
  in
  let backend_arg =
    let built_in = Cpsrisk.Backend.[ Water_tank; Hierarchy ] in
    Arg.(
      value
      & opt (enum (List.map (fun b -> (Cpsrisk.Backend.name b, b)) built_in))
          Cpsrisk.Backend.Water_tank
      & info [ "backend" ] ~docv:"BACKEND"
          ~doc:
            "For $(b,load-model) without $(b,--model): the built-in \
             encoding to load — $(b,water-tank) or $(b,hierarchy) (the \
             12-action layered plant).")
  in
  let file_arg =
    Arg.(
      value
      & pos 1 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "Mutations file for $(b,sweep), ASP program for $(b,solve).")
  in
  let name_arg =
    Arg.(
      value
      & opt string "default"
      & info [ "name"; "n" ] ~docv:"NAME"
          ~doc:"Model name to load / sweep against / evict.")
  in
  let model_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "model" ] ~docv:"FILE"
          ~doc:
            "For $(b,load-model): load this textual system model under the \
             topology backend (the file is inlined into the request). \
             Omitted: the built-in water-tank temporal encoding.")
  in
  let optimal_flag =
    Arg.(
      value & flag
      & info [ "optimal" ] ~doc:"For $(b,solve): only cost-minimal models.")
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:"Send one request to a running assessment service"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Connects to the daemon started by $(b,cpsrisk serve), sends \
              one JSON request line, prints the response as one line of \
              JSON, except for $(b,sweep) without $(b,--json): its \
              output matches the one-shot $(b,cpsrisk sweep) text format, \
              so warm answers from the daemon can be diffed against a cold \
              batch run; every other op prints the JSON response, which \
              for sweeps includes per-job cache provenance \
              (fresh/memory/disk), hit counters and timings.";
         ])
    Term.(
      const request $ socket_arg $ op_arg $ name_arg $ model_arg
      $ backend_arg $ Common.horizon $ file_arg $ Common.limit [ "limit" ]
      $ optimal_flag $ Common.search $ Common.json)

(* ------------------------------------------------------------------ *)
(* quant                                                                *)
(* ------------------------------------------------------------------ *)

let quant p_physical p_attack =
  let rows = Cpsrisk.Water_tank.full_sweep () in
  let p = function "F4" -> p_attack | _ -> p_physical in
  List.iter
    (fun rid ->
      let tree = Fta.From_epa.of_analysis ~requirement:rid rows in
      Printf.printf "P(%s violated) = %.4f\n" rid
        (Fta.Quant.top_event_probability tree p))
    [ "R1"; "R2" ];
  print_endline "\nBirnbaum importance (R1):";
  List.iter
    (fun (e, v) -> Printf.printf "  %-4s %.4f\n" e v)
    (Fta.Quant.birnbaum_importance
       (Fta.From_epa.of_analysis ~requirement:"R1" rows)
       p);
  0

let p_physical_arg =
  Arg.(
    value & opt float 0.02
    & info [ "p-physical" ] ~docv:"P"
        ~doc:"Per-mission probability of each physical fault mode.")

let p_attack_arg =
  Arg.(
    value & opt float 0.05
    & info [ "p-attack" ] ~docv:"P"
        ~doc:"Per-mission probability of the workstation compromise (F4).")

let quant_cmd =
  Cmd.v
    (Cmd.info "quant"
       ~doc:"Quantitative FTA over the case study (probabilities, importance)")
    Term.(const quant $ p_physical_arg $ p_attack_arg)

(* ------------------------------------------------------------------ *)

let main_cmd =
  let doc = "preliminary risk and mitigation assessment for cyber-physical systems" in
  Cmd.group
    (Cmd.info "cpsrisk" ~version:"1.0.0" ~doc)
    [
      casestudy_cmd; pipeline_cmd; matrices_cmd; model_cmd; lint_cmd;
      analyze_cmd; threats_cmd; solve_cmd; score_cmd; attackgraph_cmd;
      dot_cmd; quant_cmd; sweep_cmd; refine_cmd; mitigate_cmd; serve_cmd;
      request_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
