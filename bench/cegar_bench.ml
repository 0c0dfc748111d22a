(* Incremental CEGAR and the engine-backed mitigation frontier vs their
   retained scratch oracles, on the hierarchical case study
   (Cpsrisk.Hierarchy): a layered-zone refinement schedule and a
   12-action shield catalog over a deterministic propagation plant.

   Sections (every one checked bit-identical to its oracle first):

   - refine:       Cegar.Inc.run (each candidate's entry fact decided
                   by the grounder against the level's warm state, no
                   solver) vs Cegar.Inc.run_scratch — the
                   accumulated-reground loop the incremental driver
                   replaces, which grounds cold and solves every
                   candidate. The spec is stratified reachability, so
                   the rows count solves and grounder decisions apart.
                   Measured two ways: a single cold pass (where the win
                   is grounding reuse and skipping the solver; kept
                   honest by the never-slower guard), and the iterative
                   workload the incremental engine exists for — the
                   analyst retracts one confirmed hypothesis at a time
                   and re-runs the schedule, with one Engine.Cache
                   shared across passes, while scratch repays every
                   round from nothing. Acceptance: iterative
                   incremental >= 3x scratch.
   - pareto:       Mitigation.Frontier.pareto's branch-and-bound walk
                   vs the exhaustive Optimizer.pareto over the same warm
                   problem, each with a fresh cache; both walls are
                   measured, and the fronts must be identical. The row
                   carries the walk's evals / fresh / pruned counters.
   - budget-sweep: Frontier.budget_sweep over an overlapping budget
                   ladder; successive budgets re-request the smaller
                   budgets' bound and leaf sets, so the shared cache
                   must answer > 50% of evaluations.

   A never-slower guard (tolerance 1.25, exit 2) keeps the incremental
   refine honest against scratch in CI. Emits JSON (committed as
   BENCH_cegar.json at the repo root for the full run; `dune build
   @cegar-smoke` runs a seconds-scale subset as part of the test tree). *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let tolerance = 1.25
let min_reliable_s = 0.010

let labels ds = List.map Engine.Delta.label ds

let outcome_key (o : Cegar.Inc.outcome) =
  ( List.map
      (fun (r : Cegar.Inc.round) ->
        (r.Cegar.Inc.r_level, r.Cegar.Inc.r_label,
         labels r.Cegar.Inc.r_survivors, labels r.Cegar.Inc.r_eliminated))
      o.Cegar.Inc.rounds,
    labels o.Cegar.Inc.confirmed )

type refine_entry = {
  re_name : string;
  re_wall_s : float;
  re_solves : int;
  re_decided : int;
  re_hits : int;
  re_fresh_rules : int;
  re_reused_rules : int;
}

let refine_entry name (o : Cegar.Inc.outcome) w =
  let s = o.Cegar.Inc.stats in
  {
    re_name = name;
    re_wall_s = w;
    re_solves = s.Cegar.Inc.s_solves;
    re_decided = s.Cegar.Inc.s_ground.Asp.Grounder.Stats.decided;
    re_hits = s.Cegar.Inc.s_hits;
    re_fresh_rules = s.Cegar.Inc.s_ground.Asp.Grounder.Stats.fresh_rules;
    re_reused_rules = s.Cegar.Inc.s_ground.Asp.Grounder.Stats.reused_rules;
  }

let run ~smoke ~out =
  (* --- refine: incremental vs accumulated-reground scratch ------------ *)
  let levels = if smoke then 6 else 10 in
  let entries = if smoke then 9 else 14 in
  (* scratch pays per round: reground the whole accumulated program and
     re-assess every surviving candidate from scratch with no cache. Smoke
     mode also takes the best of three: one 20-50 ms sample per side is
     too noisy for the never-slower guard on a loaded host; so do the
     iterative passes below *)
  let reps = 3 in
  let best f =
    let r = ref None and w = ref infinity in
    for _ = 1 to reps do
      let r', w' = wall f in
      if w' < !w then begin r := Some r'; w := w' end
    done;
    (Option.get !r, !w)
  in
  (* the iterative workload: pass 0 runs the full hypothesis set, then
     each later pass retracts one more confirmed entry hypothesis and
     re-runs the whole schedule *)
  let passes = if smoke then 4 else 6 in
  let spec = Cpsrisk.Hierarchy.refine_spec ~levels ~entries () in
  let spec_at j =
    { spec with
      Cegar.Inc.candidates =
        List.filteri (fun i _ -> i >= j) spec.Cegar.Inc.candidates
    }
  in
  (* single cold pass, best of reps *)
  let scratch, scratch_s = best (fun () -> Cegar.Inc.run_scratch spec) in
  let inc, inc_s = best (fun () -> Cegar.Inc.run spec) in
  if outcome_key inc <> outcome_key scratch then begin
    Printf.eprintf "cegar_bench: incremental refine disagrees with scratch\n";
    exit 2
  end;
  Printf.eprintf
    "  refine          : inc %8.4fs, scratch %8.4fs (%.1fx), %d solves / %d \
     decided / %d hits, reused %d instances\n%!"
    inc_s scratch_s (scratch_s /. inc_s)
    inc.Cegar.Inc.stats.Cegar.Inc.s_solves
    inc.Cegar.Inc.stats.Cegar.Inc.s_ground.Asp.Grounder.Stats.decided
    inc.Cegar.Inc.stats.Cegar.Inc.s_hits
    inc.Cegar.Inc.stats.Cegar.Inc.s_ground.Asp.Grounder.Stats.reused_rules;
  (* never-slower guard: the warm path must not lose to the oracle even on
     a single cold pass, where the cache cannot help *)
  if scratch_s >= min_reliable_s && inc_s > scratch_s *. tolerance then begin
    Printf.eprintf
      "cegar_bench: incremental refine %.4fs slower than scratch %.4fs x %.2f\n"
      inc_s scratch_s tolerance;
    exit 2
  end;
  (* iterative retraction passes: one shared cache for the incremental
     driver, fresh in every rep; scratch by definition repays everything
     each pass. Best of reps, like the single pass *)
  let specs = List.init passes spec_at in
  let scratch_outs, scratch_total =
    best (fun () -> List.map Cegar.Inc.run_scratch specs)
  in
  let inc_outs, inc_total =
    best (fun () ->
        let cache = Engine.Cache.create () in
        List.map (fun s -> Cegar.Inc.run ~cache s) specs)
  in
  List.iter2
    (fun a b ->
      if outcome_key a <> outcome_key b then begin
        Printf.eprintf "cegar_bench: iterative refine pass disagrees\n";
        exit 2
      end)
    inc_outs scratch_outs;
  let sum f = List.fold_left (fun acc o -> acc + f o.Cegar.Inc.stats) 0 in
  let it_solves = sum (fun s -> s.Cegar.Inc.s_solves) inc_outs in
  let it_hits = sum (fun s -> s.Cegar.Inc.s_hits) inc_outs in
  let it_speedup = scratch_total /. inc_total in
  Printf.eprintf
    "  retract         : inc %8.4fs, scratch %8.4fs (%.1fx) over %d passes, \
     %d solves / %d hits\n%!"
    inc_total scratch_total it_speedup passes it_solves it_hits;
  if scratch_total >= min_reliable_s && inc_total > scratch_total *. tolerance
  then begin
    Printf.eprintf
      "cegar_bench: iterative refine %.4fs slower than scratch %.4fs x %.2f\n"
      inc_total scratch_total tolerance;
    exit 2
  end;
  let scratch_e = refine_entry "scratch" scratch scratch_s in
  let inc_e = refine_entry "increment" inc inc_s in

  (* --- pareto: branch-and-bound walk vs exhaustive warm search -------- *)
  let f_seq = Cpsrisk.Hierarchy.frontier () in
  let seq_front, seq_s =
    wall (fun () -> Mitigation.Optimizer.pareto (Mitigation.Frontier.problem f_seq))
  in
  let f_walk = Cpsrisk.Hierarchy.frontier () in
  let (front, walk_report), walk_s =
    wall (fun () -> Mitigation.Frontier.pareto f_walk)
  in
  if front <> seq_front then begin
    Printf.eprintf "cegar_bench: branch-and-bound pareto front differs\n";
    exit 2
  end;
  let counters (r : Mitigation.Frontier.report) =
    Printf.sprintf "%d evals / %d fresh / %d pruned" r.Mitigation.Frontier.r_evals
      r.Mitigation.Frontier.r_fresh r.Mitigation.Frontier.r_pruned
  in
  let counter_fields (r : Mitigation.Frontier.report) =
    Printf.sprintf "\"evals\": %d, \"hits\": %d, \"fresh\": %d, \"pruned\": %d"
      r.Mitigation.Frontier.r_evals r.Mitigation.Frontier.r_hits
      r.Mitigation.Frontier.r_fresh r.Mitigation.Frontier.r_pruned
  in
  Printf.eprintf
    "  pareto          : walk %8.4fs, exhaustive %8.4fs (%.1fx), %s, front \
     %d points\n%!"
    walk_s seq_s (seq_s /. walk_s) (counters walk_report) (List.length front);

  (* --- budget sweep: overlapping ladder through one shared cache ------- *)
  let budgets = [ 15; 18; 21; 24 ] in
  let f_bud = Cpsrisk.Hierarchy.frontier () in
  let (curve, bud_report), bud_s =
    wall (fun () -> Mitigation.Frontier.budget_sweep f_bud ~budgets)
  in
  (* full mode checks against the cold-grounding scratch oracle; smoke
     keeps its seconds budget with the sequential warm search (the
     scratch differential is pinned by the test suite either way) *)
  let oracle_curve =
    if smoke then
      Mitigation.Optimizer.budget_sweep
        (Mitigation.Frontier.problem (Cpsrisk.Hierarchy.frontier ()))
        ~budgets
    else
      Mitigation.Optimizer.budget_sweep
        (Mitigation.Frontier.scratch_problem f_bud)
        ~budgets
  in
  if curve <> oracle_curve then begin
    Printf.eprintf "cegar_bench: budget curve differs from scratch oracle\n";
    exit 2
  end;
  let hit_rate =
    float_of_int bud_report.Mitigation.Frontier.r_hits
    /. float_of_int bud_report.Mitigation.Frontier.r_evals
  in
  Printf.eprintf "  budget-sweep    : %8.4fs, %s, %d hits (%.0f%% deduped)\n%!"
    bud_s (counters bud_report) bud_report.Mitigation.Frontier.r_hits
    (hit_rate *. 100.0);
  if hit_rate <= 0.5 then begin
    Printf.eprintf "cegar_bench: budget-sweep hit rate %.2f <= 0.5\n" hit_rate;
    exit 2
  end;

  (* --- emit ------------------------------------------------------------ *)
  let oc = open_out out in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"bench\": \"incremental-cegar-frontier\",\n";
  p "  \"mode\": %S,\n" (if smoke then "smoke" else "full");
  p "  \"workload\": \"hierarchical case study: layered-zone refinement + \
     12-action shield catalog\",\n";
  p "%s" (Registry.host_fields ());
  p "  \"refine\": {\n";
  p "    \"levels\": %d, \"entries\": %d,\n" levels entries;
  p "    \"entries_list\": [\n";
  let pe (e : refine_entry) last =
    p
      "      {\"name\": %S, \"wall_s\": %.6f, \"speedup_vs_scratch\": \
       %.2f, \"solves\": %d, \"decided\": %d, \"cache_hits\": %d,\n\
      \       \"ground_fresh_rules\": %d, \"ground_reused_rules\": %d}%s\n"
      e.re_name e.re_wall_s
      (scratch_e.re_wall_s /. e.re_wall_s)
      e.re_solves e.re_decided e.re_hits e.re_fresh_rules e.re_reused_rules
      (if last then "" else ",")
  in
  pe scratch_e false;
  pe inc_e true;
  p "    ],\n";
  p "    \"iterative\": {\n";
  p "      \"workload\": \"retract one confirmed hypothesis per pass and \
     re-run the schedule; one Engine.Cache shared across incremental \
     passes\",\n";
  p "      \"passes\": %d,\n" passes;
  p
    "      \"scratch_total_s\": %.6f, \"inc_total_s\": %.6f, \"speedup\": \
     %.2f, \"solves\": %d, \"cache_hits\": %d\n"
    scratch_total inc_total it_speedup it_solves it_hits;
  p "    },\n";
  p "    \"incremental_speedup\": %.2f\n" it_speedup;
  p "  },\n";
  p "  \"pareto\": {\n";
  let actions = List.length (Mitigation.Frontier.actions f_walk) in
  p "    \"actions\": %d, \"subsets\": %d,\n" actions (1 lsl actions);
  p "    \"exhaustive_wall_s\": %.6f, \"wall_s\": %.6f, \"speedup\": %.2f,\n"
    seq_s walk_s (seq_s /. walk_s);
  p "    %s,\n" (counter_fields walk_report);
  p "    \"front_points\": %d\n" (List.length front);
  p "  },\n";
  p "  \"budget_sweep\": {\n";
  p "    \"budgets\": [%s],\n"
    (String.concat ", " (List.map string_of_int budgets));
  p "    \"wall_s\": %.6f, %s,\n" bud_s (counter_fields bud_report);
  p "    \"hit_rate\": %.3f\n" hit_rate;
  p "  },\n";
  p "  \"never_slower\": {\"tolerance\": %.2f, \"min_reliable_s\": %.3f},\n"
    tolerance min_reliable_s;
  p "  \"oracle\": \"all sections bit-identical to the retained scratch \
     paths\"\n";
  p "}\n";
  close_out oc;
  Printf.eprintf "wrote %s\n" out;
  let refine_row (e : refine_entry) =
    Registry.row
      ~note:
        (Printf.sprintf
           "%.1fx scratch, %d solves / %d decided / %d hits, reused %d"
           (scratch_e.re_wall_s /. e.re_wall_s)
           e.re_solves e.re_decided e.re_hits e.re_reused_rules)
      ~param:(Printf.sprintf "%dx%d" levels entries)
      ("refine-" ^ e.re_name) e.re_wall_s
  in
  [
    refine_row scratch_e;
    refine_row inc_e;
    Registry.row
      ~note:
        (Printf.sprintf "%.1fx scratch over %d passes, %d solves / %d hits"
           it_speedup passes it_solves it_hits)
      ~param:(string_of_int passes) "retract-increment" inc_total;
    Registry.row
      ~note:
        (Printf.sprintf "%.1fx exhaustive, %s, front %d points"
           (seq_s /. walk_s) (counters walk_report) (List.length front))
      ~param:(string_of_int actions) "pareto" walk_s;
    Registry.row
      ~note:
        (Printf.sprintf "%s, %.0f%% deduped" (counters bud_report)
           (hit_rate *. 100.0))
      ~param:
        (String.concat "," (List.map string_of_int budgets))
      "budget-sweep" bud_s;
  ]

let bench =
  {
    Registry.name = "cegar";
    descr = "incremental CEGAR + mitigation frontier vs scratch oracles";
    default_out = "BENCH_cegar.json";
    run;
  }
