(* Batch sweep engine vs the naive one-scenario-at-a-time loop, on the
   water-tank temporal encoding.

   Workload: a seeded-random delta list drawn from a modest fault/mitigation
   pool, so deltas repeat — the shape of mitigation-search and CEGAR
   workloads, and what the content-addressed cache is for. Modes:

   - seq-cold:      no engine; per delta, rebuild the full scenario program
                    (Water_tank.asp_program), ground it from scratch, solve.
   - engine-1:      Engine.Sweep, one domain, fresh cache. Gains: base
                    program built/fingerprinted once, grounding seeded with
                    the base universe, duplicate deltas answered by hash.
   - engine-cached: the same sweep re-run on the kept cache — pure lookups.

   Every fresh engine job is a stratified simulation, which the grounder
   decides without a solver ([ground_decided]). The jobs of one sweep
   share a prepared base, whose component memo answers a job's dependent
   components when an earlier job derived the same inputs; the
   grounder's [ground_firings] and [ground_passes] show what was left to
   derive.

   Every engine mode is checked bit-identical to seq-cold (same models per
   job). Emits JSON (committed as BENCH_sweep.json at the repo root for the
   full run; `dune build @sweep-smoke` runs a seconds-scale subset as part
   of the test tree). *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let model_sets (models : Asp.Model.t list) =
  List.map Asp.Model.to_list models

type entry = {
  name : string;
  wall_s : float;
  hits : int;
  misses : int;
  guesses : int;
  firings : int;
  reused_rules : int;
  fresh_rules : int;
  decided : int; (* fresh jobs the grounder decided alone *)
  ground_firings : int; (* grounder rule firings, fresh jobs *)
  ground_passes : int; (* grounder semi-naive rounds, fresh jobs *)
}

let entry_of_report name (r : Engine.Sweep.report) wall_s =
  {
    name;
    wall_s;
    hits = r.Engine.Sweep.hits;
    misses = r.Engine.Sweep.misses;
    guesses = r.Engine.Sweep.fresh.Asp.Solver.Stats.guesses;
    firings = r.Engine.Sweep.fresh.Asp.Solver.Stats.firings;
    reused_rules = r.Engine.Sweep.ground.Asp.Grounder.Stats.reused_rules;
    fresh_rules = r.Engine.Sweep.ground.Asp.Grounder.Stats.fresh_rules;
    decided = r.Engine.Sweep.ground.Asp.Grounder.Stats.decided;
    ground_firings = r.Engine.Sweep.ground.Asp.Grounder.Stats.firings;
    ground_passes = r.Engine.Sweep.ground.Asp.Grounder.Stats.passes;
  }

let emit_json out mode ~deltas ~horizon ~seed ~base_atoms entries =
  let cold_s =
    match entries with e :: _ -> e.wall_s | [] -> assert false
  in
  let oc = open_out out in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"bench\": \"scenario-sweep-engine\",\n";
  p "  \"mode\": %S,\n" mode;
  p "  \"workload\": \"water-tank temporal ASP, seeded-random deltas\",\n";
  p "  \"deltas\": %d,\n" deltas;
  p "  \"horizon\": %d,\n" horizon;
  p "  \"seed\": %d,\n" seed;
  p "  \"base_atoms\": %d,\n" base_atoms;
  p "%s" (Registry.host_fields ());
  p "  \"entries\": [\n";
  List.iteri
    (fun i e ->
      p
        "    {\"name\": %S, \"wall_s\": %.6f, \"speedup_vs_cold\": %.2f,\n\
        \     \"cache_hits\": %d, \"cache_misses\": %d, \
         \"fresh_guesses\": %d, \"fresh_firings\": %d,\n\
        \     \"ground_reused_rules\": %d, \"ground_fresh_rules\": %d, \
         \"ground_decided\": %d,\n\
        \     \"ground_firings\": %d, \"ground_passes\": %d}%s\n"
        e.name e.wall_s
        (cold_s /. e.wall_s)
        e.hits e.misses e.guesses e.firings e.reused_rules e.fresh_rules
        e.decided e.ground_firings e.ground_passes
        (if i = List.length entries - 1 then "" else ",");
      ())
    entries;
  p "  ]\n}\n";
  close_out oc

let run ~smoke ~out =
  let n = if smoke then 24 else 256 in
  let horizon = if smoke then 6 else 12 in
  let seed = 1 in
  let deltas = Cpsrisk.Sweeps.random_deltas ~seed n in
  let spec = Cpsrisk.Sweeps.water_tank_spec ~horizon deltas in

  (* reference: the pre-engine loop — full rebuild + cold grounding per
     delta, no sharing of any kind — showing what the spec shows *)
  let cold_ground = Asp.Grounder.Stats.create () in
  let cold, cold_s =
    wall (fun () ->
        List.map
          (fun d ->
            let scenario = Cpsrisk.Sweeps.delta_scenario d in
            let p =
              Asp.Program.add_show Cpsrisk.Sweeps.violated_sig
                (Cpsrisk.Water_tank.asp_program ~horizon ~scenario ())
            in
            let g = Asp.Grounder.ground ~stats:cold_ground p in
            model_sets (Asp.Solver.solve g))
          deltas)
  in
  Printf.eprintf "  seq-cold      : %8.4fs (%d jobs)\n%!" cold_s n;

  let check name (r : Engine.Sweep.report) =
    Array.iteri
      (fun i (res : Engine.Job.result) ->
        if model_sets res.Engine.Job.models <> List.nth cold i then begin
          Printf.eprintf "%s disagrees with seq-cold on job %d (%s)\n" name i
            (Engine.Delta.label res.Engine.Job.delta);
          exit 2
        end)
      r.Engine.Sweep.results
  in
  let engine name cache =
    let r, s = wall (fun () -> Engine.Sweep.run ~cache spec) in
    check name r;
    Printf.eprintf "  %-14s: %8.4fs (%.1fx cold), %d hits / %d misses\n%!"
      name s (cold_s /. s) r.Engine.Sweep.hits r.Engine.Sweep.misses;
    (r, entry_of_report name r s)
  in

  let kept = Engine.Cache.create () in
  let r1, e1 = engine "engine-1" kept in
  let _, e1c = engine "engine-cached" kept in
  let cold_entry =
    { name = "seq-cold"; wall_s = cold_s; hits = 0; misses = n; guesses = 0;
      firings = 0; reused_rules = 0; fresh_rules = 0; decided = 0;
      ground_firings = cold_ground.Asp.Grounder.Stats.firings;
      ground_passes = cold_ground.Asp.Grounder.Stats.passes }
  in
  let entries = [ cold_entry; e1; e1c ] in
  emit_json out
    (if smoke then "smoke" else "full")
    ~deltas:n ~horizon ~seed ~base_atoms:(Engine.Sweep.base_atoms r1) entries;
  Printf.eprintf "wrote %s\n" out;
  let total_models = List.fold_left (fun acc ms -> acc + List.length ms) 0 cold in
  List.map
    (fun e ->
      Registry.row ~models:total_models
        ~note:
          (Printf.sprintf "%.1fx cold, %d hits / %d misses" (cold_s /. e.wall_s)
             e.hits e.misses)
        ~param:(string_of_int n) e.name e.wall_s)
    entries

let bench =
  {
    Registry.name = "sweep";
    descr = "batch sweep engine vs one-scenario-at-a-time loop";
    default_out = "BENCH_sweep.json";
    run;
  }
