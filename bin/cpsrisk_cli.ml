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
     sweep       batch what-if analysis through the parallel sweep engine
     serve       persistent assessment service on a Unix-domain socket
     request     client for a running assessment service *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

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
  match Archimate.Text.parse (read_file file) with
  | exception Archimate.Text.Error msg ->
      Printf.eprintf "parse error: %s\n" msg;
      1
  | exception Sys_error msg ->
      Printf.eprintf "%s\n" msg;
      1
  | m ->
      print_string (Cpsrisk.Report.model_inventory m);
      let issues = Archimate.Validate.run m in
      if issues = [] then print_endline "\nvalidation: clean"
      else begin
        print_endline "\nvalidation:";
        List.iter
          (fun i -> Format.printf "  %a@." Archimate.Validate.pp_issue i)
          issues
      end;
      if Archimate.Validate.is_valid m then 0 else 1

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Textual system model.")

let model_cmd =
  Cmd.v
    (Cmd.info "model" ~doc:"Parse, validate and inspect a textual system model")
    Term.(const model_cmd_run $ file_arg)

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
          Some
            (D.sort
               (Lint.run_program ~requirements ~encode program
               @ semantic_diags program))
      | None, Some file -> (
          match read_file file with
          | exception Sys_error msg ->
              Printf.eprintf "%s\n" msg;
              None
          | src ->
              if Filename.check_suffix file ".model" then
                Some (Lint.run_model_source src)
              else
                let semantic =
                  (* a syntax error is already a diagnostic of the
                     syntactic battery; skip the semantic pass then *)
                  match Asp.Parser.parse_program src with
                  | exception Asp.Parser.Error _ -> []
                  | program -> semantic_diags program
                in
                Some (D.sort (Lint.run_source src @ semantic)))
      | None, None ->
          Printf.eprintf
            "lint: a FILE or --builtin water-tank is required\n";
          None
    in
    match diags with
    | None -> 2
    | Some diags ->
        if json then print_endline (D.list_to_json diags)
        else begin
          List.iter (fun d -> print_endline (D.to_string d)) diags;
          Printf.printf "lint: %s\n" (D.summary diags)
        end;
        if D.has_errors diags || (strict && not (D.is_clean diags)) then 1
        else 0

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

let json_flag =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit diagnostics as a JSON array.")

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
      const lint_run $ lint_file_arg $ builtin_arg $ json_flag $ strict_flag
      $ list_codes_flag $ semantic_flag $ threshold_arg)

(* ------------------------------------------------------------------ *)
(* analyze                                                              *)
(* ------------------------------------------------------------------ *)

let analyze_run file builtin json threshold =
  let module D = Lint.Diagnostic in
  let program =
    match builtin, file with
    | Some `Water_tank, _ -> Some (builtin_program ())
    | None, Some file -> (
        match Asp.Parser.parse_program (read_file file) with
        | exception Sys_error msg ->
            Printf.eprintf "%s\n" msg;
            None
        | exception Asp.Parser.Error msg ->
            Printf.eprintf "parse error: %s\n" msg;
            None
        | p -> Some p)
    | None, None ->
        Printf.eprintf "analyze: a FILE or --builtin water-tank is required\n";
        None
  in
  match program with
  | None -> 2
  | Some program ->
      let info = Analysis.Infer.analyze program in
      let diags =
        Analysis.Semlint.run_infer ~config:(semlint_config threshold) info
      in
      if json then print_endline (D.list_to_json diags)
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
      const analyze_run $ analyze_file_arg $ builtin_arg $ json_flag
      $ threshold_arg)

(* ------------------------------------------------------------------ *)
(* threats                                                              *)
(* ------------------------------------------------------------------ *)

let threats file =
  match Archimate.Text.parse (read_file file) with
  | exception Archimate.Text.Error msg ->
      Printf.eprintf "parse error: %s\n" msg;
      1
  | m ->
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
    Term.(const threats $ file_arg)

(* ------------------------------------------------------------------ *)
(* solve                                                                *)
(* ------------------------------------------------------------------ *)

let solve file limit optimal stats jobs =
  match Asp.Parser.parse_program (read_file file) with
  | exception Asp.Parser.Error msg ->
      Printf.eprintf "parse error: %s\n" msg;
      1
  | program -> (
      let ground_stats = Asp.Grounder.Stats.create () in
      match Asp.Grounder.ground ~stats:ground_stats program with
      | exception Asp.Grounder.Unsafe msg | exception Asp.Grounder.Overflow msg ->
          Printf.eprintf "grounding error: %s\n" msg;
          1
      | ground -> (
          let models, search_stats =
            match jobs with
            | Some j when j > 1 ->
                let r =
                  if optimal then Engine.Par.optimal ~jobs:j ground
                  else Engine.Par.enumerate ~jobs:j ?limit ground
                in
                (r.Engine.Par.models, r.Engine.Par.stats)
            | _ ->
                if optimal then Asp.Solver.solve_optimal_with_stats ground
                else Asp.Solver.solve_with_stats ?limit ground
          in
          let shows = ground.Asp.Ground.shows in
          let project m = if shows = [] then m else Asp.Model.project shows m in
          let report_stats () =
            if stats then begin
              Printf.printf "Ground: %s\n"
                (Asp.Grounder.Stats.to_string ground_stats);
              Printf.printf "Stats: %s\n"
                (Asp.Solver.Stats.to_string search_stats)
            end
          in
          match models with
          | [] ->
              print_endline "UNSATISFIABLE";
              report_stats ();
              1
          | models ->
              List.iteri
                (fun i m ->
                  Printf.printf "Answer %d: %s\n" (i + 1)
                    (Asp.Model.to_string (project m)))
                models;
              Printf.printf "SATISFIABLE (%d model%s)\n" (List.length models)
                (if List.length models = 1 then "" else "s");
              report_stats ();
              0))

(* a model limit below 1 is a usage error, not a request for one model *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ ->
        Error (`Msg (Printf.sprintf "expected a count of at least 1, got %s" s))
    | None -> Error (`Msg (Printf.sprintf "invalid integer %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let limit_arg =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "n"; "models" ] ~docv:"N"
        ~doc:"Stop after $(docv) models (at least 1).")

let optimal_arg =
  Arg.(
    value & flag
    & info [ "opt" ] ~doc:"Report only weak-constraint-optimal models.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print grounding and search statistics (rule firings, decisions, \
           conflicts, models, wall time) after solving.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Enumerate on $(docv) worker domains via guiding-path splitting \
           (the merged result is identical to a sequential solve).")

let solve_cmd =
  Cmd.v
    (Cmd.info "solve" ~doc:"Run the embedded ASP solver on a program file")
    Term.(
      const solve $ file_arg $ limit_arg $ optimal_arg $ stats_arg $ jobs_arg)

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
  let model =
    match file with
    | Some f -> Archimate.Text.parse (read_file f)
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

let optional_file_arg =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"FILE"
        ~doc:"Textual system model (defaults to the built-in case study).")

let dot_flag =
  Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead of a listing.")

let attackgraph_cmd =
  Cmd.v
    (Cmd.info "attackgraph"
       ~doc:"Generate the attack graph of a typed system model")
    Term.(const attackgraph $ optional_file_arg $ dot_flag)

(* ------------------------------------------------------------------ *)
(* dot (model diagram)                                                  *)
(* ------------------------------------------------------------------ *)

let dot_cmd_run file =
  let model =
    match file with
    | Some f -> Archimate.Text.parse (read_file f)
    | None -> Cpsrisk.Water_tank.refined_model
  in
  print_string (Archimate.Dot.render model);
  0

let dot_cmd =
  Cmd.v
    (Cmd.info "dot" ~doc:"Render a system model as Graphviz")
    Term.(const dot_cmd_run $ optional_file_arg)

(* ------------------------------------------------------------------ *)
(* sweep                                                                *)
(* ------------------------------------------------------------------ *)

let sweep mutations model jobs horizon stats json =
  let deltas =
    match mutations with
    | None -> None
    | Some file -> (
        match Engine.Delta.parse (read_file file) with
        | Ok ds -> Some ds
        | Error e ->
            Printf.eprintf "%s: %s\n" file (Engine.Delta.error_to_string e);
            exit 2)
  in
  match model with
  | None ->
      (* water-tank temporal backend; default workload: the full 2^4
         fault-combination space, Table II style *)
      let deltas =
        match deltas with
        | Some ds -> ds
        | None -> Cpsrisk.Sweeps.all_fault_deltas Cpsrisk.Water_tank.faults
      in
      let spec = Cpsrisk.Sweeps.water_tank_spec ?horizon deltas in
      let report = Engine.Sweep.run ?jobs spec in
      if json then print_endline (Engine.Sweep.to_json report)
      else begin
        Array.iter
          (fun (r : Engine.Job.result) ->
            Printf.printf "%-28s %s%s\n"
              (Engine.Delta.label r.Engine.Job.delta)
              (String.concat "  "
                 (List.map
                    (fun (req, v) ->
                      Printf.sprintf "%s=%s" req
                        (if v then "Violated" else "-"))
                    (Cpsrisk.Sweeps.verdicts r)))
              (if r.Engine.Job.cached then "  [cached]" else ""))
          report.Engine.Sweep.results;
        if stats then begin
          print_newline ();
          print_string (Engine.Sweep.render report)
        end
      end;
      0
  | Some file -> (
      match Archimate.Text.parse (read_file file) with
      | exception Archimate.Text.Error msg ->
          Printf.eprintf "parse error: %s\n" msg;
          1
      | m ->
          let deltas =
            match deltas with
            | Some ds -> ds
            | None -> Cpsrisk.Sweeps.model_element_deltas m
          in
          let spec = Cpsrisk.Sweeps.topology_spec m deltas in
          let report = Engine.Sweep.run ?jobs spec in
          if json then print_endline (Engine.Sweep.to_json report)
          else begin
            Array.iter
              (fun (r : Engine.Job.result) ->
                let affected = Cpsrisk.Sweeps.affected r in
                Printf.printf "%-28s -> %s%s\n"
                  (Engine.Delta.label r.Engine.Job.delta)
                  (if affected = [] then "(contained)"
                   else String.concat ", " affected)
                  (if r.Engine.Job.cached then "  [cached]" else ""))
              report.Engine.Sweep.results;
            if stats then begin
              print_newline ();
              print_string (Engine.Sweep.render report)
            end
          end;
          0)

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

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Worker domains (default: the hardware's useful parallelism).")

let horizon_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "horizon" ] ~docv:"N"
        ~doc:"Temporal horizon of the water-tank encoding (default 12).")

let sweep_stats_flag =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print the engine report: domains, wall time, cache hit rate, \
           aggregated fresh-solve statistics.")

let sweep_json_flag =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit the full machine-readable report as JSON.")

let sweep_cmd =
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Batch what-if analysis through the parallel sweep engine"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs every mutation delta against the shared base encoding \
              through the cache-reusing scenario-sweep engine: the base \
              program is built, fingerprinted and grounded once, jobs fan \
              out over worker domains, and structurally identical deltas \
              are solved once. Results are deterministic regardless of \
              $(b,--jobs).";
         ])
    Term.(
      const sweep $ mutations_arg $ sweep_model_arg $ jobs_arg $ horizon_arg
      $ sweep_stats_flag $ sweep_json_flag)

(* ------------------------------------------------------------------ *)
(* refine / mitigate                                                    *)
(* ------------------------------------------------------------------ *)

let refine levels entries mode jobs scratch no_share stats json =
  match
    Cpsrisk.Pipeline.refine_hierarchy ?jobs ~levels ~entries ~mode
      ~share:(not no_share) ~scratch ()
  with
  | outcome ->
      if json then print_endline (Cpsrisk.Pipeline.refine_to_json outcome)
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
            "Candidate encoding: $(b,assume) pins hypotheses with solver \
             assumptions over one shared ground program (enables \
             learned-nogood carry); $(b,increment) extends the warm \
             grounder per candidate (deduplicated through the cache).")
  in
  let scratch_flag =
    Arg.(
      value & flag
      & info [ "scratch" ]
          ~doc:
            "Run the retained cold-grounding oracle instead of the \
             incremental driver (same outcome, no reuse).")
  in
  let no_share_flag =
    Arg.(
      value & flag
      & info [ "no-share" ]
          ~doc:"Disable learned-nogood carry between candidate solves.")
  in
  let stats_flag =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print solver/cache/grounding statistics: fresh solves vs \
             cache hits, nogoods carried and published, extend-vs-scratch \
             grounding reuse.")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit rounds, verdicts and stats as JSON.")
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
              of the previous one, candidate hypotheses are assessed in \
              parallel, and (in assume mode) conflict clauses learned \
              while refuting one candidate prune the others. The outcome \
              is bit-for-bit the one of $(b,--scratch), which re-grounds \
              everything from nothing each round.";
         ])
    Term.(
      const refine $ levels_arg $ entries_arg $ mode_arg $ jobs_arg
      $ scratch_flag $ no_share_flag $ stats_flag $ json_flag)

let mitigate frontier case budget budgets pareto jobs horizon stats json =
  let f =
    match case with
    | `Hierarchy -> Cpsrisk.Hierarchy.frontier ()
    | `Water_tank -> Cpsrisk.Pipeline.water_tank_frontier ?horizon ()
  in
  let request =
    if pareto then Cpsrisk.Pipeline.Frontier_pareto
    else
      match budgets with
      | Some bs -> Cpsrisk.Pipeline.Frontier_sweep bs
      | None -> Cpsrisk.Pipeline.Frontier_optimal budget
  in
  let answer, report =
    if frontier then Cpsrisk.Pipeline.mitigate_frontier ?jobs f request
    else
      (* the retained scratch search: cold per-evaluation grounding, no
         cache, no pool — the differential oracle of --frontier *)
      let p = Mitigation.Frontier.scratch_problem f in
      let answer =
        match request with
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
  if json then print_endline (Cpsrisk.Pipeline.frontier_to_json answer report)
  else
    print_string
      (Cpsrisk.Pipeline.render_frontier ~stats:(stats && frontier) answer
         report);
  0

let mitigate_cmd =
  let frontier_flag =
    Arg.(
      value & flag
      & info [ "frontier" ]
          ~doc:
            "Evaluate candidate action sets as fingerprinted deltas over \
             warm engine state — cache-deduplicated, fanned out over \
             worker domains, branch-and-bound pruned. Without it the \
             retained scratch search runs (same answers, cold).")
  in
  let case_arg =
    Arg.(
      value
      & opt (enum [ ("hierarchy", `Hierarchy); ("water-tank", `Water_tank) ])
          `Hierarchy
      & info [ "case" ] ~docv:"CASE"
          ~doc:
            "Action catalog: $(b,hierarchy) (12 shield placements over the \
             layered plant) or $(b,water-tank) (the paper's M1/M2 catalog \
             under the F4 workstation-compromise scenario).")
  in
  let budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget"; "b" ] ~docv:"COST"
          ~doc:"Budget for the single optimal search.")
  in
  let budgets_arg =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "budgets" ] ~docv:"B1,B2,..."
          ~doc:
            "Sweep these budgets; sweeps share one cache, so subsets \
             within several budgets are solved once.")
  in
  let pareto_flag =
    Arg.(
      value & flag
      & info [ "pareto" ] ~doc:"Compute the full cost/residual front.")
  in
  let stats_flag =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print the frontier report: evaluations, cache hit sources, \
             subtrees pruned, critical-path vs summed solve time.")
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit answer and report as JSON.")
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
              independent evaluations fan out over worker domains, and \
              the optimal search prunes subtrees whose full-inclusion \
              bound already loses. Answers are bit-for-bit those of the \
              retained scratch search.";
         ])
    Term.(
      const mitigate $ frontier_flag $ case_arg $ budget_arg $ budgets_arg
      $ pareto_flag $ jobs_arg $ horizon_arg $ stats_flag $ json_flag)

(* ------------------------------------------------------------------ *)
(* serve / request                                                      *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  Arg.(
    value
    & opt string "cpsrisk.sock"
    & info [ "socket"; "s" ] ~docv:"PATH"
        ~doc:"Unix-domain socket the daemon listens on.")

let serve socket cache_dir cache_mb jobs quiet =
  let log =
    if quiet then None
    else
      Some
        (fun msg ->
          Printf.eprintf "cpsrisk serve: %s\n%!" msg)
  in
  match
    Serve.Server.run { Serve.Server.socket; cache_dir; cache_mb; jobs; log }
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
              sweeps extend warm state; concurrent sweep requests are \
              coalesced into single engine batches; with $(b,--cache-dir), \
              every solved delta is also persisted content-addressed on \
              disk and survives restarts. Use $(b,cpsrisk request) as the \
              client, or any tool that can write JSON lines to a socket. \
              Stop it with $(b,cpsrisk request shutdown).";
         ])
    Term.(
      const serve $ socket_arg $ cache_dir_arg $ cache_mb_arg $ jobs_arg
      $ quiet_flag)

(* --- request: client side ------------------------------------------ *)

let request_fail msg =
  Printf.eprintf "cpsrisk request: %s\n" msg;
  1

(* Reproduce `cpsrisk sweep`'s text output from the wire response, so
   `cpsrisk request sweep` is diffable bit-for-bit against the one-shot
   command on the same model and mutations. *)
let print_sweep_text response =
  let results =
    Option.value ~default:[] (Serve.Json.mem_list "results" response)
  in
  List.iter
    (fun r ->
      let label =
        Option.value ~default:"?" (Serve.Json.mem_string "label" r)
      in
      match Serve.Json.member "verdicts" r with
      | Some (Serve.Json.Obj verdicts) ->
          Printf.printf "%-28s %s\n" label
            (String.concat "  "
               (List.map
                  (fun (req, v) ->
                    Printf.sprintf "%s=%s" req
                      (match v with
                      | Serve.Json.Bool true -> "Violated"
                      | _ -> "-"))
                  verdicts))
      | _ -> (
          match Serve.Json.mem_list "affected" r with
          | Some affected ->
              let affected =
                List.filter_map
                  (function Serve.Json.String s -> Some s | _ -> None)
                  affected
              in
              Printf.printf "%-28s -> %s\n" label
                (if affected = [] then "(contained)"
                 else String.concat ", " affected)
          | None -> Printf.printf "%-28s\n" label))
    results

let request socket op name model_file backend horizon mutations jobs limit
    optimal budget budgets pareto json =
  let build_request () =
    match op with
    | "load-model" -> (
        match model_file with
        | Some file ->
            Ok
              (Serve.Protocol.Load_model
                 {
                   name;
                   backend = Serve.Protocol.Topology;
                   horizon;
                   model_src = Some (read_file file);
                 })
        | None ->
            Ok
              (Serve.Protocol.Load_model
                 { name; backend; horizon; model_src = None }))
    | "mitigate" ->
        let op =
          if pareto then Serve.Protocol.Pareto
          else
            match budgets with
            | Some _ -> Serve.Protocol.Budget_curve
            | None -> Serve.Protocol.Optimal
        in
        Ok
          (Serve.Protocol.Mitigate
             {
               model = name;
               op;
               budget;
               budgets = Option.value ~default:[] budgets;
               jobs;
             })
    | "sweep" -> (
        match mutations with
        | None -> Error "sweep needs a MUTATIONS file argument"
        | Some file ->
            Ok
              (Serve.Protocol.Sweep
                 { model = name; mutations = read_file file; jobs }))
    | "solve" -> (
        match mutations with
        | None -> Error "solve needs a PROGRAM file argument"
        | Some file ->
            Ok
              (Serve.Protocol.Solve
                 { program = read_file file; limit; optimal }))
    | "status" -> Ok Serve.Protocol.Status
    | "stats" -> Ok Serve.Protocol.Stats
    | "list-models" -> Ok Serve.Protocol.List_models
    | "evict-model" -> Ok (Serve.Protocol.Evict_model { name })
    | "shutdown" -> Ok Serve.Protocol.Shutdown
    | op ->
        Error
          (Printf.sprintf
             "unknown op %S (load-model | sweep | mitigate | solve | status \
              | stats | list-models | evict-model | shutdown)"
             op)
  in
  match build_request () with
  | Error msg -> request_fail msg
  | Ok req -> (
      match
        Serve.Client.request ~socket (Serve.Protocol.request_to_json req)
      with
      | Error msg -> request_fail msg
      | Ok response ->
          if (not json) && op = "sweep" then print_sweep_text response
          else print_endline (Serve.Json.to_string response);
          0)

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
    Arg.(
      value
      & opt
          (enum
             [
               ("water-tank", Serve.Protocol.Water_tank);
               ("hierarchy", Serve.Protocol.Hierarchy);
             ])
          Serve.Protocol.Water_tank
      & info [ "backend" ] ~docv:"BACKEND"
          ~doc:
            "For $(b,load-model) without $(b,--model): the built-in \
             encoding to load — $(b,water-tank) or $(b,hierarchy) (the \
             12-action layered plant).")
  in
  let req_budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget"; "b" ] ~docv:"COST"
          ~doc:"For $(b,mitigate): budget of the optimal search.")
  in
  let req_budgets_arg =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "budgets" ] ~docv:"B1,B2,..."
          ~doc:"For $(b,mitigate): request a budget curve.")
  in
  let req_pareto_flag =
    Arg.(
      value & flag
      & info [ "pareto" ]
          ~doc:"For $(b,mitigate): request the full cost/residual front.")
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
  let limit_arg =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "limit" ] ~docv:"N"
          ~doc:"For $(b,solve): stop after N models (at least 1).")
  in
  let optimal_flag =
    Arg.(
      value & flag
      & info [ "optimal" ] ~doc:"For $(b,solve): only cost-minimal models.")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the raw JSON response (default for every op except \
             $(b,sweep), which prints `cpsrisk sweep`-compatible text).")
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:"Send one request to a running assessment service"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Connects to the daemon started by $(b,cpsrisk serve), sends \
              one JSON request line, prints the response. $(b,sweep) \
              output matches the one-shot $(b,cpsrisk sweep) text format, \
              so warm answers from the daemon can be diffed against a cold \
              batch run; every other op prints the JSON response, which \
              for sweeps includes per-job cache provenance \
              (fresh/memory/disk), hit counters and timings.";
         ])
    Term.(
      const request $ socket_arg $ op_arg $ name_arg $ model_arg
      $ backend_arg $ horizon_arg $ file_arg $ jobs_arg $ limit_arg
      $ optimal_flag $ req_budget_arg $ req_budgets_arg $ req_pareto_flag
      $ json_flag)

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
