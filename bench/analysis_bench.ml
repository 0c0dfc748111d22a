(* Semantic-analysis bench: wall-time of the Analysis.Infer fixpoint and
   the accuracy of its cardinality prediction, on three workload shapes:

   - tank h:   the water-tank temporal encoding at horizon h (the paper's
               actual workload shape);
   - pigeon h: h+1 pigeons into h holes — the grounding-blowup shape L212
               warns about;
   - tc n:     transitive closure over an n-node chain (recursive,
               interval-heavy).

   Every entry times the analysis itself and compares the predicted ground
   universe against the actual one (the within-10x contract pinned by
   test_analysis), next to the wall time of grounding the same program, so
   the analysis cost reads against the work it predicts. Emits JSON
   (committed as BENCH_analysis.json at the repo root for the full sweep;
   `dune build @analysis-smoke` runs a seconds-scale subset as part of the
   test tree). *)

let time = Registry.time

let pigeon_program holes =
  let pigeons = holes + 1 in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "pigeon(1..%d).\n" pigeons);
  Buffer.add_string buf (Printf.sprintf "hole(1..%d).\n" holes);
  Buffer.add_string buf "{ at(P,H) : hole(H) } :- pigeon(P).\n";
  Buffer.add_string buf "placed(P) :- at(P,H).\n";
  Buffer.add_string buf ":- pigeon(P), not placed(P).\n";
  Buffer.add_string buf ":- at(P,H), at(Q,H), P < Q.\n";
  Asp.Parser.parse_program (Buffer.contents buf)

type entry = {
  workload : string;
  param : int;
  analysis_s : float;
  predicted_atoms : float;
  ground_atoms : int;
  ground_s : float;
  rules : int;
}

let run ~reps name param program =
  let info, analysis_s = time ~reps (fun () -> Analysis.Infer.analyze program) in
  let predicted_atoms =
    List.fold_left
      (fun acc (p : Analysis.Infer.pred_info) -> acc +. p.Analysis.Infer.card)
      0.0
      (Analysis.Infer.preds info)
  in
  let g, ground_s = time ~reps (fun () -> Asp.Grounder.ground program) in
  let rules = List.length (Asp.Program.rules program) in
  let ground_atoms = Asp.Ground.atom_count g in
  Printf.eprintf
    "  %-6s %4d: analyze %8.4fs, predicted %8.0f / actual %6d atoms, \
     ground %8.4fs (%d rules)\n%!"
    name param analysis_s predicted_atoms ground_atoms ground_s rules;
  {
    workload = name;
    param;
    analysis_s;
    predicted_atoms;
    ground_atoms;
    ground_s;
    rules;
  }

let emit_json out mode entries =
  let oc = open_out out in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"bench\": \"semantic-analysis\",\n";
  p "  \"mode\": %S,\n" mode;
  p "%s" (Registry.host_fields ());
  p "  \"reference\": \"Asp.Grounder.ground of the analysed program\",\n";
  p "  \"entries\": [\n";
  List.iteri
    (fun i e ->
      p
        "    {\"workload\": %S, \"param\": %d, \"analysis_s\": %.6f,\n\
        \     \"predicted_atoms\": %.1f, \"ground_atoms\": %d, \
         \"card_ratio\": %.3f,\n\
        \     \"ground_s\": %.6f, \"rules\": %d}%s\n"
        e.workload e.param e.analysis_s e.predicted_atoms e.ground_atoms
        (e.predicted_atoms /. float_of_int (max 1 e.ground_atoms))
        e.ground_s e.rules
        (if i = List.length entries - 1 then "" else ","))
    entries;
  p "  ]\n}\n";
  close_out oc

let run_bench ~smoke ~out =
  let reps = if smoke then 1 else 3 in
  let tank_hs = if smoke then [ 6 ] else [ 6; 12; 24; 48 ] in
  let pigeon_hs = if smoke then [ 6 ] else [ 6; 10; 14 ] in
  let tc_ns = if smoke then [ 40 ] else [ 40; 80; 120; 200 ] in
  let entries =
    List.map
      (fun h ->
        run ~reps "tank" h
          (Cpsrisk.Water_tank.asp_program ~horizon:h
             ~scenario:(Epa.Scenario.make [])
             ()))
      tank_hs
    @ List.map (fun h -> run ~reps "pigeon" h (pigeon_program h)) pigeon_hs
    @ List.map
        (fun n -> run ~reps "tc" n (Cpsrisk.Cascade.asp_chain_program n))
        tc_ns
  in
  emit_json out (if smoke then "smoke" else "full") entries;
  Printf.eprintf "wrote %s\n" out;
  List.map
    (fun e ->
      Registry.row ~ground_atoms:e.ground_atoms
        ~note:
          (Printf.sprintf "analyze %.4fs, predicted/actual %.2f"
             e.analysis_s
             (e.predicted_atoms /. float_of_int (max 1 e.ground_atoms)))
        ~param:(string_of_int e.param) e.workload e.ground_s)
    entries

let bench =
  {
    Registry.name = "analysis";
    descr = "semantic-analysis fixpoint + cardinality prediction";
    default_out = "BENCH_analysis.json";
    run = run_bench;
  }
