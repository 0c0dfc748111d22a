module D = Lint.Diagnostic
module B = Cpsrisk.Backend

let diagnostic (d : D.t) =
  Json.Obj
    (List.concat
       [
         [
           ("code", Json.String d.D.code);
           ("severity", Json.String (D.severity_to_string d.D.severity));
         ];
         (match d.D.pos with
         | Some p when p.D.col > 0 ->
             [ ("line", Json.Int p.D.line); ("col", Json.Int p.D.col) ]
         | Some p -> [ ("line", Json.Int p.D.line) ]
         | None -> []);
         (match d.D.subject with
         | Some s -> [ ("subject", Json.String s) ]
         | None -> []);
         [ ("message", Json.String d.D.message) ];
       ])

let diagnostics ds = Json.List (List.map diagnostic ds)

(* ------------------------------------------------------------------ *)
(* Sweeps                                                              *)
(* ------------------------------------------------------------------ *)

let reading_fields = function
  | B.Verdicts vs ->
      [ ("verdicts", Json.Obj (List.map (fun (req, v) -> (req, Json.Bool v)) vs)) ]
  | B.Affected cs -> [ ("affected", Json.List (List.map (fun c -> Json.String c) cs)) ]
  | B.Residual n -> [ ("residual", Json.Int n) ]

let reading_of_json r =
  match
    (Json.member "verdicts" r, Json.mem_list "affected" r, Json.mem_int "residual" r)
  with
  | Some (Json.Obj vs), _, _ ->
      Some (B.Verdicts (List.map (fun (req, v) -> (req, v = Json.Bool true)) vs))
  | _, Some cs, _ -> Some (B.Affected (List.filter_map Json.string_opt cs))
  | _, _, Some n -> Some (B.Residual n)
  | _ -> None

let job_result backend (r : Engine.Job.result) =
  Json.Obj
    ([
       ("label", Json.String (Engine.Delta.label r.Engine.Job.delta));
       ("fingerprint", Json.String (Engine.Fingerprint.to_hex r.Engine.Job.fingerprint));
       ("models", Json.Int (List.length r.Engine.Job.models));
       ("source", Json.String (Engine.Cache.source_to_string r.Engine.Job.source));
     ]
    @ Option.fold ~none:[] ~some:reading_fields (B.read backend r))

let sweep ?(extra = []) backend results =
  let hits, disk_hits, misses, fresh, ground = Engine.Sweep.tally results in
  [
    ("deltas", Json.Int (Array.length results));
    ("hits", Json.Int hits);
    ("disk_hits", Json.Int disk_hits);
    ("misses", Json.Int misses);
    ( "fresh",
      Json.Obj
        [
          ("guesses", Json.Int fresh.Asp.Solver.Stats.guesses);
          ("firings", Json.Int fresh.Asp.Solver.Stats.firings);
          ("conflicts", Json.Int fresh.Asp.Solver.Stats.conflicts);
          ("models", Json.Int fresh.Asp.Solver.Stats.models);
          ("wall_s", Json.Float fresh.Asp.Solver.Stats.wall_s);
        ] );
    ( "ground",
      Json.Obj
        [
          ("fresh_rules", Json.Int ground.Asp.Grounder.Stats.fresh_rules);
          ("reused_rules", Json.Int ground.Asp.Grounder.Stats.reused_rules);
          ("decided", Json.Int ground.Asp.Grounder.Stats.decided);
        ] );
  ]
  @ extra
  @ [ ("results", Json.List (Array.to_list (Array.map (job_result backend) results))) ]

(* ------------------------------------------------------------------ *)
(* Refinement and mitigation                                           *)
(* ------------------------------------------------------------------ *)

let labels ds = Json.List (List.map (fun d -> Json.String (Engine.Delta.label d)) ds)

let refine (o : Cegar.Inc.outcome) =
  let s = o.Cegar.Inc.stats in
  let g = s.Cegar.Inc.s_ground in
  Json.Obj
    [
      ( "rounds",
        Json.List
          (List.map
             (fun (r : Cegar.Inc.round) ->
               Json.Obj
                 [
                   ("level", Json.Int r.Cegar.Inc.r_level);
                   ("label", Json.String r.Cegar.Inc.r_label);
                   ("survivors", labels r.Cegar.Inc.r_survivors);
                   ("eliminated", labels r.Cegar.Inc.r_eliminated);
                 ])
             o.Cegar.Inc.rounds) );
      ("confirmed", labels o.Cegar.Inc.confirmed);
      ( "stats",
        Json.Obj
          [
            ("rounds", Json.Int s.Cegar.Inc.s_rounds);
            ("solves", Json.Int s.Cegar.Inc.s_solves);
            ("hits", Json.Int s.Cegar.Inc.s_hits);
            ("disk_hits", Json.Int s.Cegar.Inc.s_disk_hits);
            ("fresh", Json.Int s.Cegar.Inc.s_fresh);
            ( "ground",
              Json.Obj
                [
                  ("fresh_rules", Json.Int g.Asp.Grounder.Stats.fresh_rules);
                  ("reused_rules", Json.Int g.Asp.Grounder.Stats.reused_rules);
                  ("wall_s", Json.Float g.Asp.Grounder.Stats.wall_s);
                ] );
            ("wall_s", Json.Float s.Cegar.Inc.s_wall_s);
          ] );
    ]

let solution (s : Mitigation.Optimizer.solution) =
  Json.Obj
    [
      ( "selected",
        Json.List (List.map (fun a -> Json.String a) s.Mitigation.Optimizer.selected) );
      ("cost", Json.Int s.Mitigation.Optimizer.cost);
      ("residual", Json.Int s.Mitigation.Optimizer.residual);
    ]

let frontier answer (r : Mitigation.Frontier.report) =
  [
    (match (answer : Cpsrisk.Pipeline.frontier_answer) with
    | Cpsrisk.Pipeline.Frontier_solution s -> ("optimal", solution s)
    | Cpsrisk.Pipeline.Frontier_front front ->
        ("pareto", Json.List (List.map solution front))
    | Cpsrisk.Pipeline.Frontier_curve curve ->
        ( "curve",
          Json.List
            (List.map
               (fun (b, s) ->
                 Json.Obj [ ("budget", Json.Int b); ("solution", solution s) ])
               curve) ));
    ( "report",
      Json.Obj
        [
          ("evals", Json.Int r.Mitigation.Frontier.r_evals);
          ("hits", Json.Int r.Mitigation.Frontier.r_hits);
          ("disk_hits", Json.Int r.Mitigation.Frontier.r_disk_hits);
          ("fresh", Json.Int r.Mitigation.Frontier.r_fresh);
          ("pruned", Json.Int r.Mitigation.Frontier.r_pruned);
          ("sum_s", Json.Float r.Mitigation.Frontier.r_sum_s);
          ("critical_s", Json.Float r.Mitigation.Frontier.r_critical_s);
          ("wall_s", Json.Float r.Mitigation.Frontier.r_wall_s);
        ] );
  ]

(* ------------------------------------------------------------------ *)
(* Solving a program                                                   *)
(* ------------------------------------------------------------------ *)

type solved = {
  answers : Asp.Model.t list;
  stats : Asp.Solver.Stats.t;
  ground_stats : Asp.Grounder.Stats.t;
}

let solve ?limit ~optimal src =
  match Asp.Parser.parse_program src with
  | exception Asp.Parser.Error msg -> Error ("parse error: " ^ msg)
  | program -> (
      let ground_stats = Asp.Grounder.Stats.create () in
      match Asp.Grounder.ground ~stats:ground_stats program with
      | exception (Asp.Grounder.Unsafe msg | Asp.Grounder.Overflow msg) ->
          Error ("grounding error: " ^ msg)
      | ground ->
          let answers, stats =
            if optimal then Asp.Solver.solve_optimal_with_stats ground
            else Asp.Solver.solve_with_stats ?limit ground
          in
          Ok { answers; stats; ground_stats })

let solved s =
  [
    ("models", Json.Int (List.length s.answers));
    ( "answers",
      Json.List (List.map (fun m -> Json.String (Asp.Model.to_string m)) s.answers) );
    ("guesses", Json.Int s.stats.Asp.Solver.Stats.guesses);
    ("conflicts", Json.Int s.stats.Asp.Solver.Stats.conflicts);
    ("wall_s", Json.Float s.stats.Asp.Solver.Stats.wall_s);
  ]
