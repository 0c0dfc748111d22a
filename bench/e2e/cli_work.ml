(* The one-shot CLI workloads. A rep runs the workload's command script
   as `cpsrisk` subprocesses, back to back (a closed loop of one analyst);
   every output is checked against a reference built once, untimed, from
   an independent implementation. The traced run replays the same script
   in-process by composing the public calls the subcommands make, with a
   span around each call into a layer. *)

(* --- per-layer accounting of one replayed rep ---------------------- *)

type acc = {
  lock : Mutex.t;
  ground : Asp.Grounder.Stats.t;  (** fresh incremental groundings *)
  solve : Asp.Solver.Stats.t;  (** fresh solves *)
  mutable solves : int;
  mutable cheap : int;  (** solves settled on the cheap tier *)
  mutable evals_us : float list;  (** fresh Frontier evaluations *)
  mutable caches : (unit -> int * int * int) list;
  mutable frontier : Mitigation.Frontier.report list;
  mutable inc : Cegar.Inc.stats list;
}

let new_acc () =
  {
    lock = Mutex.create ();
    ground = Asp.Grounder.Stats.create ();
    solve = Asp.Solver.Stats.create ();
    solves = 0;
    cheap = 0;
    evals_us = [];
    caches = [];
    frontier = [];
    inc = [];
  }

let count_fresh acc (s : Asp.Solver.Stats.t) g =
  Mutex.protect acc.lock (fun () ->
      Asp.Solver.Stats.accumulate acc.solve s;
      Asp.Grounder.Stats.add ~into:acc.ground g;
      acc.solves <- acc.solves + 1;
      if s.Asp.Solver.Stats.cheap then acc.cheap <- acc.cheap + 1)

let watch_cache acc c =
  acc.caches <-
    (fun () -> Engine.Cache.(hits c, disk_hits c, misses c)) :: acc.caches

let eval_start = Domain.DLS.new_key (fun () -> ref 0.0)

(* A cache whose persistence hook is a probe: [load] (called just before
   a fresh computation, on the computing domain) starts a clock, [store]
   (called right after it) stops it and keeps the solve's statistics. So
   evaluations inside Frontier and Cegar.Inc are timed and counted with
   no change to those modules; [timed] keeps the durations. *)
let probe_cache ?(timed = false) acc =
  let persist =
    {
      Engine.Cache.load =
        (fun _ ->
          Domain.DLS.get eval_start := Clock.now ();
          None);
      store =
        (fun _ (_, s, g) ->
          let t1 = Clock.now () and t0 = !(Domain.DLS.get eval_start) in
          Trace.record "engine.job.solve" t0 t1;
          count_fresh acc s g;
          if timed then
            Mutex.protect acc.lock (fun () ->
                acc.evals_us <- ((t1 -. t0) *. 1e6) :: acc.evals_us));
    }
  in
  let c = Engine.Cache.create ~persist () in
  watch_cache acc c;
  c

(* --- commands --------------------------------------------------------- *)

type cmd = {
  name : string;  (** per-layer metric cli.<name>_s *)
  args : string list;
  check : string -> string option;  (** [None]: the output is correct *)
  replay : acc -> string;  (** the same answer, computed in-process *)
}

let same what want out =
  if String.equal out want then None
  else Some (what ^ " output differs from the reference")

let verdict_tokens violated =
  List.map
    (fun (r : Epa.Requirement.t) ->
      let id = r.Epa.Requirement.id in
      Printf.sprintf "%s=%s" id (if List.mem id violated then "Violated" else "-"))
    Cpsrisk.Water_tank.requirements

(* One line per delta, `<label> R1=.. R2=..`, each against the direct
   qualitative simulation of the same scenario. *)
let check_sweep reference out =
  let seen = Hashtbl.create 128 in
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' out) in
  let bad =
    List.find_map
      (fun line ->
        match List.filter (( <> ) "") (String.split_on_char ' ' line) with
        | [] -> None
        | label :: got -> (
            Hashtbl.replace seen label ();
            match Hashtbl.find_opt reference label with
            | None -> Some ("unexpected sweep line: " ^ line)
            | Some want when want = got -> None
            | Some want ->
                Some
                  (Printf.sprintf "%s: got %s, reference %s" label
                     (String.concat " " got) (String.concat " " want))))
      lines
  in
  match bad with
  | Some _ -> bad
  | None when Hashtbl.length seen <> Hashtbl.length reference ->
      Some
        (Printf.sprintf "sweep answered %d of %d deltas" (Hashtbl.length seen)
           (Hashtbl.length reference))
  | None -> None

let sweep_replay ~horizon scenarios acc =
  let deltas =
    Array.of_list (List.map (fun s -> Cpsrisk.Sweeps.scenario_delta s) scenarios)
  in
  let spec = Cpsrisk.Sweeps.water_tank_spec ~horizon (Array.to_list deltas) in
  let prepared =
    Trace.with_span "engine.job.prepare" (fun () -> Engine.Job.prepare spec)
  in
  let cache = Engine.Cache.create () in
  watch_cache acc cache;
  let results =
    Trace.with_span ~fan_out:true "engine.pool.map" (fun () ->
        Engine.Pool.map
          (fun index ->
            Trace.with_span ~req:index "engine.job" (fun () ->
                let delta = deltas.(index) in
                let fingerprint =
                  Trace.with_span "engine.fingerprint" (fun () ->
                      Engine.Job.fingerprint prepared delta)
                in
                let (models, stats, gstats), source =
                  Trace.with_span "engine.cache.lookup" (fun () ->
                      Engine.Cache.find_or_compute_src cache fingerprint
                        (fun () ->
                          Trace.with_span "engine.job.solve" (fun () ->
                              Engine.Job.solve prepared delta)))
                in
                if source = Engine.Cache.Fresh then count_fresh acc stats gstats;
                {
                  Engine.Job.index;
                  delta;
                  fingerprint;
                  models;
                  stats;
                  gstats;
                  cached = source <> Engine.Cache.Fresh;
                  source;
                }))
          (Array.length deltas))
  in
  let buf = Buffer.create 8192 in
  Array.iter
    (fun (r : Engine.Job.result) ->
      Printf.bprintf buf "%-28s %s%s\n"
        (Engine.Delta.label r.Engine.Job.delta)
        (String.concat "  "
           (List.map
              (fun (req, v) ->
                Printf.sprintf "%s=%s" req (if v then "Violated" else "-"))
              (Cpsrisk.Sweeps.verdicts r)))
        (if r.Engine.Job.cached then "  [cached]" else ""))
    results;
  Buffer.contents buf

let pipeline_replay _acc =
  let a = Cpsrisk.Pipeline.run (Cpsrisk.Pipeline.water_tank_config ()) in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Cpsrisk.Pipeline.render_log a);
  Buffer.add_string buf "\nconfirmed hazards (ranked):\n";
  List.iter
    (fun (h : Cpsrisk.Pipeline.ranked_hazard) ->
      Printf.bprintf buf "  %-28s risk %s\n"
        (Epa.Scenario.label h.Cpsrisk.Pipeline.row.Epa.Analysis.scenario)
        (Qual.Level.to_string h.Cpsrisk.Pipeline.risk))
    a.Cpsrisk.Pipeline.confirmed_hazards;
  Buffer.contents buf

let casestudy_replay _acc =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "Water tank case study (paper \194\167VII)\n\n";
  Buffer.add_string buf
    (Cpsrisk.Report.table_ii ~fault_ids:[ "F1"; "F2"; "F3"; "F4" ]
       ~mitigation_ids:[ "M1"; "M2" ]
       (Cpsrisk.Water_tank.table_ii_rows ()));
  Buffer.add_char buf '\n';
  (match
     Epa.Analysis.most_severe
       (Cpsrisk.Water_tank.full_sweep ~mitigations:[ "M1"; "M2" ] ())
   with
  | worst :: _ ->
      let faults = worst.Epa.Analysis.scenario.Epa.Scenario.faults in
      Printf.bprintf buf
        "most severe combination: {%s} (%d violations from %d faults)\n"
        (String.concat "," faults)
        (List.length (Epa.Analysis.violations worst))
        (List.length faults)
  | [] -> ());
  Buffer.contents buf

let no_report =
  {
    Mitigation.Frontier.r_evals = 0;
    r_hits = 0;
    r_disk_hits = 0;
    r_fresh = 0;
    r_pruned = 0;
    r_sum_s = 0.0;
    r_critical_s = 0.0;
    r_wall_s = 0.0;
  }

let frontier_replay search acc =
  let prepared =
    Trace.with_span "engine.job.prepare" (fun () ->
        Engine.Job.prepare (Cpsrisk.Hierarchy.frontier_spec ()))
  in
  let f = Cpsrisk.Hierarchy.frontier_of ~cache:(probe_cache ~timed:true acc) prepared in
  let answer, report =
    match search with
    | `Pareto ->
        Trace.with_span ~fan_out:true "mitigation.frontier.pareto" (fun () ->
            let front, r = Mitigation.Frontier.pareto f in
            (Cpsrisk.Pipeline.Frontier_front front, r))
    | `Budgets budgets ->
        Trace.with_span ~fan_out:true "mitigation.frontier.budget_sweep"
          (fun () ->
            let curve, r = Mitigation.Frontier.budget_sweep f ~budgets in
            (Cpsrisk.Pipeline.Frontier_curve curve, r))
  in
  acc.frontier <- report :: acc.frontier;
  Cpsrisk.Pipeline.render_frontier answer report

let refine_replay spec acc =
  let o =
    Trace.with_span ~fan_out:true "cegar.inc.run" (fun () ->
        Cegar.Inc.run ~cache:(probe_cache acc) spec)
  in
  acc.inc <- o.Cegar.Inc.stats :: acc.inc;
  Cpsrisk.Pipeline.render_refine o

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* cli-sweep: the paper's fault x mitigation what-if space at a horizon
   where grounding and CDNL solving dominate, then the Fig. 1 pipeline and
   Table II. *)
let sweep_cmds ~seed ~smoke ~tmp =
  let horizon = if smoke then 12 else 48 in
  let scenarios =
    Inputs.sweep_scenarios ~seed
      ~mitigations:(if smoke then [ "M1" ] else [ "M1"; "M2"; "M3" ])
  in
  let reference = Hashtbl.create 128 in
  List.iter
    (fun s ->
      let row =
        Epa.Analysis.run_scenario ~horizon Cpsrisk.Water_tank.system s
      in
      Hashtbl.replace reference (Epa.Scenario.label s)
        (verdict_tokens (Epa.Analysis.violations row)))
    scenarios;
  let mutations = Filename.concat tmp "mutations.txt" in
  write_file mutations
    (String.concat "\n" (List.map Inputs.mutation_line scenarios) ^ "\n");
  [
    {
      name = "sweep";
      args = [ "sweep"; "--horizon"; string_of_int horizon; mutations ];
      check = check_sweep reference;
      replay = sweep_replay ~horizon scenarios;
    };
    {
      name = "pipeline";
      args = [ "pipeline" ];
      check = same "pipeline" Golden.pipeline;
      replay = pipeline_replay;
    };
    {
      name = "casestudy";
      args = [ "casestudy" ];
      check = same "casestudy" Golden.casestudy;
      replay = casestudy_replay;
    };
  ]

(* cli-frontier: thousands of tiny evaluations, where per-evaluation
   overhead (fingerprint, cache, pool, cheap solver tier) dominates. The
   seed orders the script. *)
let frontier_cmds ~seed ~smoke =
  let budgets = if smoke then [ 3; 9 ] else [ 15; 18; 21; 24 ] in
  let levels, entries = if smoke then (3, 5) else (10, 14) in
  let scratch = Mitigation.Frontier.scratch_problem (Cpsrisk.Hierarchy.frontier ()) in
  let render answer = Cpsrisk.Pipeline.render_frontier answer no_report in
  let refine mode =
    let spec = Cpsrisk.Hierarchy.refine_spec ~levels ~entries ~mode () in
    let name = match mode with `Assume -> "assume" | `Increment -> "increment" in
    {
      name = "refine_" ^ name;
      args =
        [ "refine"; "--levels"; string_of_int levels; "--entries";
          string_of_int entries; "--mode"; name ];
      check =
        same ("refine " ^ name)
          (Cpsrisk.Pipeline.render_refine (Cegar.Inc.run_scratch spec));
      replay = refine_replay spec;
    }
  in
  let budget_curve =
    {
      name = "mitigate_budgets";
      args =
        [ "mitigate"; "--frontier"; "--budgets";
          String.concat "," (List.map string_of_int budgets) ];
      check =
        same "mitigate --budgets"
          (render
             (Cpsrisk.Pipeline.Frontier_curve
                (Mitigation.Optimizer.budget_sweep scratch ~budgets)));
      replay = frontier_replay (`Budgets budgets);
    }
  in
  let pareto () =
    {
      name = "mitigate_pareto";
      args = [ "mitigate"; "--frontier"; "--pareto" ];
      check =
        same "mitigate --pareto"
          (render
             (Cpsrisk.Pipeline.Frontier_front (Mitigation.Optimizer.pareto scratch)));
      replay = frontier_replay `Pareto;
    }
  in
  let cmds =
    Array.of_list
      ((if smoke then [] else [ pareto () ])
      @ [ budget_curve; refine `Assume; refine `Increment ])
  in
  Inputs.shuffle (Inputs.rng seed 0xf207) cmds;
  Array.to_list cmds

let all_cmd_names =
  [ "sweep"; "pipeline"; "casestudy"; "mitigate_pareto"; "mitigate_budgets";
    "refine_assume"; "refine_increment" ]

(* --- measuring -------------------------------------------------------- *)

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

let complain what why = Printf.eprintf "e2e: %s: %s\n%!" what why

(* Subprocess reps for [seconds] (at least one): another rep starts only
   when one more of the mean length so far still fits. Before each rep,
   [spawns_per_rep] bare `--version` runs sample the set-up cost, so its
   median spans the whole run rather than its first second.

   The latency is the fastest rep. Other tenants of a shared host only
   ever add time, and the share of time they take drifts over minutes:
   the median or mean of a run's reps follows that share, the fastest
   rep is the one they disturbed least. *)
let spawns_per_rep = 5

let measure ~cli ~seconds cmds =
  let attempted = ref 0 and failed = ref 0 in
  let tally = function
    | None -> incr attempted
    | Some (what, why) ->
        incr attempted;
        incr failed;
        complain what why
  in
  let run c =
    let r = Proc.run_cli cli c in
    let why =
      if r.Proc.code <> 0 then Some (Printf.sprintf "exit %d" r.Proc.code)
      else None
    in
    (r, why)
  in
  let setup = ref [] and reps = ref [] and rss = ref 0 in
  let start = Clock.now () in
  while Clock.another_fits ~start ~seconds ~steps:(List.length !reps) do
    for _ = 1 to spawns_per_rep do
      let r, why = run [ "--version" ] in
      setup := r.Proc.wall_s :: !setup;
      tally (Option.map (fun w -> ("cpsrisk --version", w)) why)
    done;
    let t0 = Clock.now () in
    List.iter
      (fun c ->
        let r, why = run c.args in
        rss := max !rss r.Proc.rss_kb;
        let why = match why with None -> c.check r.Proc.out | e -> e in
        tally (Option.map (fun w -> ("cpsrisk " ^ String.concat " " c.args, w)) why))
      cmds;
    reps := (Clock.now () -. t0) :: !reps
  done;
  {
    attempted = !attempted;
    failed = !failed;
    metrics =
      [
        ("setup_s", Sample.median !setup);
        ("latency_ms", 1000.0 *. List.fold_left Float.min infinity !reps);
        ("peak_rss_mb", float_of_int !rss /. 1024.0);
      ];
  }

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Per-layer figures of one traced rep. *)
let layers acc spans ~(gc0 : Gc.stat) ~(gc1 : Gc.stat) =
  let named n = List.filter (fun (s : Trace.span) -> s.Trace.name = n) spans in
  let sum n = List.fold_left (fun a s -> a +. Trace.dur s) 0.0 (named n) in
  let self_sum n =
    List.fold_left
      (fun a ((s : Trace.span), self) -> if s.Trace.name = n then a +. self else a)
      0.0 (Trace.self_times spans)
  in
  let g = acc.ground and s = acc.solve in
  let fi = float_of_int in
  let h, d, m =
    List.fold_left
      (fun (h, d, m) f ->
        let h', d', m' = f () in
        (h + h', d + d', m + m'))
      (0, 0, 0) acc.caches
  in
  let fr f = List.fold_left (fun a r -> a + f r) 0 acc.frontier in
  let frs f = List.fold_left (fun a r -> a +. f r) 0.0 acc.frontier in
  let inc f = List.fold_left (fun a r -> a + f r) 0 acc.inc in
  let busy = sum "engine.job" +. frs (fun r -> r.Mitigation.Frontier.r_sum_s) in
  let fan_out_wall =
    sum "engine.pool.map" +. frs (fun r -> r.Mitigation.Frontier.r_wall_s)
  in
  let firings, probes, fresh_rules, reused_rules =
    Asp.Grounder.Stats.(g.firings, g.probes, g.fresh_rules, g.reused_rules)
  in
  [
    ("asp.grounder.extend_s", g.Asp.Grounder.Stats.wall_s);
    ("asp.grounder.firings", fi firings);
    ("asp.grounder.probes", fi probes);
    ("asp.grounder.probes_per_firing", ratio (fi probes) (fi firings));
    ("asp.grounder.reused_ratio", ratio (fi reused_rules) (fi (reused_rules + fresh_rules)));
    ("asp.solver.solve_s", s.Asp.Solver.Stats.wall_s);
    ("asp.solver.conflicts", fi s.Asp.Solver.Stats.conflicts);
    ("asp.solver.firings", fi s.Asp.Solver.Stats.firings);
    ("asp.solver.cheap_ratio", ratio (fi acc.cheap) (fi acc.solves));
    ("engine.job.prepare_s", sum "engine.job.prepare");
    ( "engine.job.solve_self_s",
      Float.max 0.0
        (sum "engine.job.solve" -. g.Asp.Grounder.Stats.wall_s
       -. s.Asp.Solver.Stats.wall_s) );
    ("engine.fingerprint_s", sum "engine.fingerprint");
    ("engine.fingerprint.calls", fi (List.length (named "engine.fingerprint")));
    ("engine.cache.lookups", fi (h + d + m));
    ("engine.cache.hit_ratio", ratio (fi (h + d)) (fi (h + d + m)));
    ("engine.cache.lookup_self_s", self_sum "engine.cache.lookup");
    ("engine.pool.busy_s", busy);
    ( "engine.pool.idle_ratio",
      if fan_out_wall = 0.0 then 0.0
      else 1.0 -. (busy /. (fan_out_wall *. fi (Engine.Pool.default_jobs ()))) );
    ("mitigation.frontier.evals", fi (fr (fun r -> r.Mitigation.Frontier.r_evals)));
    ("mitigation.frontier.fresh", fi (fr (fun r -> r.Mitigation.Frontier.r_fresh)));
    ("mitigation.frontier.pruned", fi (fr (fun r -> r.Mitigation.Frontier.r_pruned)));
    ( "mitigation.frontier.eval_p50_us",
      if acc.evals_us = [] then 0.0 else Sample.median acc.evals_us );
    ("cegar.inc.solves", fi (inc (fun r -> r.Cegar.Inc.s_solves)));
    ("cegar.inc.carried", fi (inc (fun r -> r.Cegar.Inc.s_carried)));
    ( "cegar.inc.fresh_rules",
      fi (inc (fun r -> r.Cegar.Inc.s_ground.Asp.Grounder.Stats.fresh_rules)) );
    ( "cegar.inc.reused_rules",
      fi (inc (fun r -> r.Cegar.Inc.s_ground.Asp.Grounder.Stats.reused_rules)) );
    ("ocaml.gc.minor_mwords", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6);
    ( "ocaml.gc.major_collections",
      fi (gc1.Gc.major_collections - gc0.Gc.major_collections) );
  ]
  @ List.map (fun n -> ("cli." ^ n ^ "_s", sum ("cli." ^ n))) all_cmd_names

let mean_by_name runs =
  match runs with
  | [] -> []
  | first :: _ ->
      let k = float_of_int (List.length runs) in
      List.map
        (fun (name, _) ->
          ( name,
            List.fold_left (fun a r -> a +. List.assoc name r) 0.0 runs /. k ))
        first

(* In-process replay: untraced and traced reps alternate for [seconds]
   (at least one of each). Per-layer figures are means over
   the traced reps; the trace of every traced rep goes to [trace_out]. *)
let replay ~seconds ~trace_out cmds =
  let attempted = ref 0 and failed = ref 0 in
  let plain = ref [] and traced = ref [] and per_rep = ref [] and kept = ref [] in
  let rep ~trace =
    let acc = new_acc () in
    let gc0 = Gc.quick_stat () in
    Trace.enabled := trace;
    let t0 = Clock.now () in
    List.iter
      (fun c ->
        incr attempted;
        match Trace.with_span ("cli." ^ c.name) (fun () -> c.replay acc) with
        | out -> (
            match c.check out with
            | None -> ()
            | Some why ->
                incr failed;
                complain ("replay " ^ c.name) why)
        | exception e ->
            incr failed;
            complain ("replay " ^ c.name) (Printexc.to_string e))
      cmds;
    let wall = Clock.now () -. t0 in
    Trace.enabled := false;
    let gc1 = Gc.quick_stat () in
    let spans = Trace.drain () in
    if trace then begin
      traced := wall :: !traced;
      kept := spans :: !kept;
      (* the top-level spans (one per command) must cover the rep *)
      let top =
        List.fold_left
          (fun a (s : Trace.span) -> if s.Trace.parent < 0 then a +. Trace.dur s else a)
          0.0 spans
      in
      if top < 0.95 *. wall then begin
        incr failed;
        complain "trace"
          (Printf.sprintf "top-level spans cover %.1f%% of the replay wall"
             (100.0 *. top /. wall))
      end;
      per_rep := layers acc spans ~gc0 ~gc1 :: !per_rep
    end
    else plain := wall :: !plain
  in
  let start = Clock.now () in
  while Clock.another_fits ~start ~seconds ~steps:(List.length !traced) do
    rep ~trace:false;
    rep ~trace:true
  done;
  Trace.write_chrome trace_out (List.concat (List.rev !kept));
  {
    attempted = !attempted;
    failed = !failed;
    metrics =
      mean_by_name !per_rep
      @ [ ("trace.overhead_ratio", Sample.median !traced /. Sample.median !plain) ];
  }
