(* The batch sweep engine: content addressing, the worker pool, the solve
   cache, and the end-to-end guarantees the docs promise — parallel runs
   bit-identical to sequential ones, and a repeated sweep answered entirely
   from the cache with zero fresh solver work. *)

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Fingerprint                                                          *)
(* ------------------------------------------------------------------ *)

let fp_hex p = Engine.Fingerprint.to_hex (Engine.Fingerprint.program p)

let test_fp_structural () =
  let a = Asp.Parser.parse_program "p(1). q(X) :- p(X), not r(X)." in
  let b = Asp.Parser.parse_program "p(1). q(X) :- p(X), not r(X)." in
  check Alcotest.string "identical programs" (fp_hex a) (fp_hex b);
  (* layout and source positions must not matter *)
  let c =
    Asp.Parser.parse_program "\n\n  p(1).\n\n  q(X) :-\n     p(X), not r(X).\n"
  in
  check Alcotest.string "whitespace-insensitive" (fp_hex a) (fp_hex c)

let test_fp_perturbation () =
  let base = "p(1). q(X) :- p(X), not r(X)." in
  let variants =
    [
      "p(2). q(X) :- p(X), not r(X)."; (* constant *)
      "p(1). q(X) :- p(X), r(X)."; (* polarity *)
      "p(1). q(X) :- p(X)."; (* dropped literal *)
      "p(1). s(X) :- p(X), not r(X)."; (* head predicate *)
      "q(X) :- p(X), not r(X). p(1)."; (* rule order is significant *)
    ]
  in
  let h = fp_hex (Asp.Parser.parse_program base) in
  List.iter
    (fun v ->
      checkb (Printf.sprintf "distinct from %S" v) false
        (String.equal h (fp_hex (Asp.Parser.parse_program v))))
    variants

let test_fp_extend_append () =
  let base = Asp.Parser.parse_program "p(1). #show q/1. q(X) :- p(X)." in
  let inc = Asp.Parser.parse_program "p(2). #show p/1." in
  check Alcotest.string "extend distributes over append"
    (Engine.Fingerprint.to_hex
       (Engine.Fingerprint.program (Asp.Program.append base inc)))
    (Engine.Fingerprint.to_hex
       (Engine.Fingerprint.extend (Engine.Fingerprint.program base) inc))

(* Golden values: the on-disk store ({!Serve.Store}) addresses entries by
   these hex strings, so a silent change to the fingerprint function would
   orphan every persisted cache on upgrade. Drift must be a conscious
   decision — if this test fails, either revert the hash change or accept
   that existing cache directories go cold and update the values here. *)
let test_fp_golden () =
  List.iter
    (fun (src, hex) ->
      check Alcotest.string
        (Printf.sprintf "program %S" src)
        hex
        (fp_hex (Asp.Parser.parse_program src)))
    [
      ("", "cbf29ce4842223250000000000000000");
      ("p(1).", "4a3d5a823823bccc0000000000000000");
      ("p(1). q(X) :- p(X), not r(X).", "ac8af7c121239fc60000000000000000");
      ("p(1). #show p/1.", "4a3d5a823823bcccc20dd19c4d1ccedd");
    ];
  let base = Engine.Fingerprint.program (Asp.Parser.parse_program "p(1).") in
  check Alcotest.string "extend"
    "d5b219d9091180750000000000000000"
    (Engine.Fingerprint.to_hex
       (Engine.Fingerprint.extend base (Asp.Parser.parse_program "q(2).")));
  check Alcotest.string "ints"
    "da2bfb225e0d1f050000000000000000"
    (Engine.Fingerprint.to_hex (Engine.Fingerprint.ints [ 1; 2; 3 ]))

(* Job keys: base + compiled increment, combined with the solve mode and
   the grounder's atom cap. Every Engine.Cache and Serve.Store entry is
   addressed by this value, so a change to what [Job.fingerprint] mixes
   in (a field added or dropped from the mode part) re-keys every
   persisted answer — pinned here so such a change is deliberate. The
   last 16 hex digits are the [#show] half: the spec shows violated/1. *)
let test_job_fp_golden () =
  let delta =
    match Engine.Delta.parse_line "s2: F2 / M1" with
    | Ok (Some d) -> d
    | _ -> Alcotest.fail "delta did not parse"
  in
  let spec = Cpsrisk.Sweeps.water_tank_spec ~horizon:6 [ delta ] in
  check Alcotest.string "water-tank h6, F2 / M1"
    "19064283e0f1c3207307ee5f2e4a144e"
    (Engine.Fingerprint.to_hex
       (Engine.Job.fingerprint (Engine.Job.prepare spec) delta))

(* ------------------------------------------------------------------ *)
(* Delta parsing                                                        *)
(* ------------------------------------------------------------------ *)

let test_delta_parse () =
  let ok = function
    | Ok v -> v
    | Error e -> Alcotest.fail (Engine.Delta.error_to_string e)
  in
  let d = ok (Engine.Delta.parse_line "worst: F2, F3 / M1 ! fix(a). fix(b).") in
  (match d with
  | Some d ->
      check Alcotest.string "label" "worst" d.Engine.Delta.label;
      check (Alcotest.list Alcotest.string) "faults" [ "F2"; "F3" ]
        d.Engine.Delta.faults;
      check (Alcotest.list Alcotest.string) "mitigations" [ "M1" ]
        d.Engine.Delta.mitigations;
      checkb "extra" true (d.Engine.Delta.extra <> [])
  | None -> Alcotest.fail "expected a delta");
  (* the tail is split off before the label: its ':' is no label's *)
  List.iter
    (fun (line, label) ->
      match ok (Engine.Delta.parse_line line) with
      | Some d ->
          check Alcotest.string (line ^ ": label") label d.Engine.Delta.label;
          check (Alcotest.list Alcotest.string) (line ^ ": faults") [ "F1" ]
            d.Engine.Delta.faults;
          check (Alcotest.list Alcotest.string) (line ^ ": extra")
            [ "activated(f2) :- time(5)." ]
            d.Engine.Delta.extra
      | None -> Alcotest.fail (line ^ ": expected a delta"))
    [
      ("F1 ! activated(f2) :- time(5).", "");
      ("l: F1 ! activated(f2) :- time(5).", "l");
    ];
  (* '#' starts a comment only before the '!': in the tail it is ASP *)
  List.iter
    (fun (line, faults, mitigations, extra) ->
      match ok (Engine.Delta.parse_line line) with
      | Some d ->
          check (Alcotest.list Alcotest.string) (line ^ ": faults") faults
            d.Engine.Delta.faults;
          check (Alcotest.list Alcotest.string) (line ^ ": mitigations")
            mitigations d.Engine.Delta.mitigations;
          check (Alcotest.list Alcotest.string) (line ^ ": extra") extra
            d.Engine.Delta.extra
      | None -> Alcotest.fail (line ^ ": expected a delta"))
    [
      ("F1 ! #show p/1. p(a).", [ "F1" ], [], [ "#show p/1. p(a)." ]);
      ( "F1 ! some :- #count { X : p(X) } >= 1. p(a). % note",
        [ "F1" ],
        [],
        [ "some :- #count { X : p(X) } >= 1. p(a). % note" ] );
      ("F1 / M1 # note", [ "F1" ], [ "M1" ], []);
      ("F1 # note ! p(a).", [ "F1" ], [], []);
    ];
  (match ok (Engine.Delta.parse_line "  # comment only") with
  | None -> ()
  | Some _ -> Alcotest.fail "comment line should produce no delta");
  (match ok (Engine.Delta.parse_line "- / M1") with
  | Some d ->
      check (Alcotest.list Alcotest.string) "no faults" [] d.Engine.Delta.faults
  | None -> Alcotest.fail "expected a delta");
  match Engine.Delta.parse "F1\nF2 // M1\n" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e -> check Alcotest.int "line number in error" 2 e.Engine.Delta.line

(* The two diagnostics a mutations file can raise must carry the position
   of the offending character, in the Lint.Diagnostic "line N, col C"
   spelling, against the raw line (label and comment included). *)
let test_delta_error_positions () =
  (match Engine.Delta.parse "F1\nF2 // M1\nF3" with
  | Ok _ -> Alcotest.fail "double separator must not parse"
  | Error e ->
      check Alcotest.int "separator line" 2 e.Engine.Delta.line;
      check Alcotest.int "separator col (the second '/')" 5
        e.Engine.Delta.col;
      check Alcotest.string "separator rendering"
        "line 2, col 5: more than one '/' separator (expected FAULTS [/ \
         MITIGATIONS])"
        (Engine.Delta.error_to_string e));
  (match Engine.Delta.parse_line "a/b: F1 / M1 / M2" with
  | Ok _ -> Alcotest.fail "double separator after a label must not parse"
  | Error e ->
      check Alcotest.int "separator col past a '/' in the label" 14
        e.Engine.Delta.col);
  (match Engine.Delta.parse "F1\n  F1 ! q(a). p(X)." with
  | Ok _ -> Alcotest.fail "unsafe ASP tail must not parse"
  | Error e ->
      check Alcotest.string "unsafe tail: line, col after the '!'"
        "line 2, col 7: unsafe ASP after '!': "
        (String.sub (Engine.Delta.error_to_string e) 0 37));
  match Engine.Delta.parse "ok: F1\nbad: F1 ! p(." with
  | Ok _ -> Alcotest.fail "invalid ASP tail must not parse"
  | Error e ->
      check Alcotest.int "asp-tail line" 2 e.Engine.Delta.line;
      check Alcotest.int "asp-tail col (after the '!')" 10 e.Engine.Delta.col;
      checkb "asp-tail message names the construct" true
        (String.length e.Engine.Delta.msg >= 22
        && String.sub e.Engine.Delta.msg 0 22 = "invalid ASP after '!':")

let test_delta_label () =
  check Alcotest.string "derived label" "{F2,F3}+{M1}"
    (Engine.Delta.label (Engine.Delta.make ~mitigations:[ "M1" ] [ "F3"; "F2" ]));
  check Alcotest.string "empty" "{}"
    (Engine.Delta.label (Engine.Delta.make []))

(* ------------------------------------------------------------------ *)
(* Pool                                                                 *)
(* ------------------------------------------------------------------ *)

let test_pool_map () =
  let f i = i * i in
  List.iter
    (fun jobs ->
      check
        (Alcotest.array Alcotest.int)
        (Printf.sprintf "jobs=%d" jobs)
        (Array.init 37 f)
        (Engine.Pool.map ~oversubscribe:true ~jobs f 37))
    [ 1; 2; 4; 8 ];
  check (Alcotest.array Alcotest.int) "empty" [||]
    (Engine.Pool.map ~jobs:4 f 0)

let test_pool_exception () =
  match
    Engine.Pool.map ~oversubscribe:true ~jobs:4
      (fun i -> if i >= 5 then failwith (string_of_int i) else i)
      20
  with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure i ->
      (* every task still ran; the lowest-indexed failure wins *)
      check Alcotest.string "lowest-indexed failure" "5" i

(* ------------------------------------------------------------------ *)
(* Cache                                                                *)
(* ------------------------------------------------------------------ *)

let test_cache () =
  let c = Engine.Cache.create () in
  let key s = Engine.Fingerprint.program (Asp.Parser.parse_program s) in
  let calls = ref 0 in
  let compute () = incr calls; !calls in
  let cached (v, src) = (v, src <> Engine.Cache.Fresh) in
  let v1, cached1 = cached (Engine.Cache.find_or_compute_src c (key "a.") compute) in
  let v2, cached2 = cached (Engine.Cache.find_or_compute_src c (key "a.") compute) in
  let v3, cached3 = cached (Engine.Cache.find_or_compute_src c (key "b.") compute) in
  check Alcotest.int "computed once per distinct key" 2 !calls;
  checkb "first is a miss" false cached1;
  checkb "second is a hit" true cached2;
  checkb "new key is a miss" false cached3;
  check Alcotest.int "hit returns the memo" v1 v2;
  check Alcotest.int "fresh value" 2 v3;
  check Alcotest.int "hits" 1 (Engine.Cache.hits c);
  check Alcotest.int "misses" 2 (Engine.Cache.misses c);
  (* a failing computation releases the key for the next caller *)
  (match
     Engine.Cache.find_or_compute_src c (key "c.") (fun () -> failwith "boom")
   with
  | _ -> Alcotest.fail "expected the thunk's exception"
  | exception Failure _ -> ());
  let v4, cached4 = cached (Engine.Cache.find_or_compute_src c (key "c.") compute) in
  checkb "released after failure" false cached4;
  check Alcotest.int "recomputed" 3 v4

(* ------------------------------------------------------------------ *)
(* Sweep: determinism and cache accounting                              *)
(* ------------------------------------------------------------------ *)

let result_key (r : Engine.Job.result) =
  Printf.sprintf "[%d] %s %s %s" r.Engine.Job.index
    (Engine.Delta.label r.Engine.Job.delta)
    (Engine.Fingerprint.to_hex r.Engine.Job.fingerprint)
    (String.concat " | " (List.map Asp.Model.to_string r.Engine.Job.models))

let sweep_keys report =
  Array.to_list (Array.map result_key report.Engine.Sweep.results)

let tiny_spec () =
  Cpsrisk.Sweeps.water_tank_spec ~horizon:6
    (Cpsrisk.Sweeps.random_deltas ~seed:7 40)

let test_sweep_cache_accounting () =
  let cache = Engine.Cache.create () in
  let first = Engine.Sweep.run ~cache (tiny_spec ()) in
  let n = Array.length first.Engine.Sweep.results in
  check Alcotest.int "all jobs ran" 40 n;
  checkb "repeated deltas hit within the first sweep" true
    (first.Engine.Sweep.hits > 0);
  check Alcotest.int "hits + misses = jobs" n
    (first.Engine.Sweep.hits + first.Engine.Sweep.misses);
  (* the second identical sweep is pure lookups: no fresh solver work *)
  let second = Engine.Sweep.run ~cache (tiny_spec ()) in
  check Alcotest.int "second sweep: all hits" n second.Engine.Sweep.hits;
  check Alcotest.int "second sweep: no misses" 0 second.Engine.Sweep.misses;
  check Alcotest.int "second sweep: zero fresh guesses" 0
    second.Engine.Sweep.fresh.Asp.Solver.Stats.guesses;
  check Alcotest.int "second sweep: zero fresh firings" 0
    second.Engine.Sweep.fresh.Asp.Solver.Stats.firings;
  check (Alcotest.float 1e-9) "hit rate" 1.0 (Engine.Sweep.hit_rate second);
  check
    (Alcotest.list Alcotest.string)
    "cached results identical to fresh ones" (sweep_keys first)
    (sweep_keys second)

let test_mode_not_conflated () =
  let spec mode =
    Cpsrisk.Sweeps.water_tank_spec ~horizon:4 ~mode
      [ Engine.Delta.make [ "F2" ] ]
  in
  let p = Engine.Job.prepare (spec (Engine.Job.Enumerate None)) in
  let o = Engine.Job.prepare (spec Engine.Job.Optimal) in
  let d = Engine.Delta.make [ "F2" ] in
  checkb "Enumerate and Optimal address different cache slots" false
    (Engine.Fingerprint.equal
       (Engine.Job.fingerprint p d)
       (Engine.Job.fingerprint o d))

(* ------------------------------------------------------------------ *)
(* Sweep vs the per-scenario reference encodings                        *)
(* ------------------------------------------------------------------ *)

let test_sweep_matches_reference () =
  let deltas =
    Cpsrisk.Sweeps.all_fault_deltas ~mitigations:[ "M1" ]
      Cpsrisk.Water_tank.faults
  in
  let report =
    Engine.Sweep.run (Cpsrisk.Sweeps.water_tank_spec ~horizon:8 deltas)
  in
  Array.iter
    (fun (r : Engine.Job.result) ->
      let scenario = Cpsrisk.Sweeps.delta_scenario r.Engine.Job.delta in
      let reference =
        Cpsrisk.Water_tank.asp_verdicts ~horizon:8 ~scenario ()
      in
      check
        (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.bool))
        (Engine.Delta.label r.Engine.Job.delta)
        reference
        (Cpsrisk.Sweeps.verdicts r))
    report.Engine.Sweep.results

(* A counting cache: its store hook sees every fresh answer once, so
   [decided] counts the fresh jobs the grounder decided. *)
let counting_cache () =
  let decided = ref 0 in
  let cache =
    Engine.Cache.create
      ~persist:
        {
          Engine.Cache.load = (fun _ -> None);
          store =
            (fun _ (_, _, g) ->
              decided := !decided + g.Asp.Grounder.Stats.decided);
        }
      ()
  in
  (cache, decided)

(* Every job of a sweep was decided by the grounder, never reached the
   solver, and has the models the solver finds for [extend]'s grounding
   of the same increment. *)
let check_decided what (spec : Engine.Job.spec) (report : Engine.Sweep.report) =
  let gprep =
    Asp.Grounder.prepare ?max_atoms:spec.Engine.Job.max_atoms spec.Engine.Job.base
  in
  Array.iter
    (fun (r : Engine.Job.result) ->
      let label = what ^ " " ^ Engine.Delta.label r.Engine.Job.delta in
      check Alcotest.int (label ^ ": decided") 1
        r.Engine.Job.gstats.Asp.Grounder.Stats.decided;
      checkb (label ^ ": no solver tier ran") false
        r.Engine.Job.stats.Asp.Solver.Stats.cheap;
      check Alcotest.int (label ^ ": model count in the stats")
        (List.length r.Engine.Job.models)
        r.Engine.Job.stats.Asp.Solver.Stats.models;
      let expected =
        Asp.Solver.solve
          (Asp.Grounder.extend gprep (spec.Engine.Job.compile r.Engine.Job.delta))
      in
      check
        (Alcotest.list Alcotest.string)
        (label ^ ": models equal extend + solve")
        (List.map Asp.Model.to_string expected)
        (List.map Asp.Model.to_string r.Engine.Job.models))
    report.Engine.Sweep.results

let rec subsets = function
  | [] -> [ [] ]
  | x :: rest ->
      let s = subsets rest in
      s @ List.map (fun l -> x :: l) s

(* the paper's what-if space: every fault subset under every subset of
   M1-M3, 128 deltas *)
let water_tank_what_ifs () =
  List.concat_map
    (fun mitigations ->
      Cpsrisk.Sweeps.all_fault_deltas ~mitigations Cpsrisk.Water_tank.faults)
    (subsets [ "M1"; "M2"; "M3" ])

(* The paper's whole fault x mitigation what-if space: every mutation is
   a stratified simulation, so the grounder decides each job at short
   and long horizons alike, with the solver's answer; at the benchmark
   horizon the verdicts equal the direct qualitative simulation's. A
   full hierarchy Pareto run and the press-cell topology deltas are
   decided too. *)
let test_sweep_decided () =
  let deltas = water_tank_what_ifs () in
  check Alcotest.int "fault x mitigation deltas" 128 (List.length deltas);
  List.iter
    (fun horizon ->
      let spec = Cpsrisk.Sweeps.water_tank_spec ~horizon deltas in
      let report = Engine.Sweep.run spec in
      check Alcotest.int "every job fresh" 128 report.Engine.Sweep.misses;
      check Alcotest.int "every job decided" 128
        report.Engine.Sweep.ground.Asp.Grounder.Stats.decided;
      check_decided (Printf.sprintf "H=%d" horizon) spec report;
      if horizon = 48 then
        Array.iter
          (fun (r : Engine.Job.result) ->
            let label = Engine.Delta.label r.Engine.Job.delta in
            let row =
              Epa.Analysis.run_scenario ~horizon Cpsrisk.Water_tank.system
                (Cpsrisk.Sweeps.delta_scenario r.Engine.Job.delta)
            in
            let violated = Epa.Analysis.violations row in
            check
              (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.bool))
              label
              (List.map
                 (fun (req : Epa.Requirement.t) ->
                   let id = req.Epa.Requirement.id in
                   (id, List.mem id violated))
                 Cpsrisk.Water_tank.requirements)
              (Cpsrisk.Sweeps.verdicts r))
          report.Engine.Sweep.results)
    [ 1; 2; 12; 48 ];
  (* the full catalog's searches: each asks for every action set once,
     every fresh evaluation is decided, and the walk cuts subtrees in
     both *)
  let cache, decided = counting_cache () in
  let _, report =
    Mitigation.Frontier.pareto (Cpsrisk.Hierarchy.frontier ~cache ())
  in
  check Alcotest.int "hierarchy pareto: evaluations" 406
    report.Mitigation.Frontier.r_evals;
  check Alcotest.int "hierarchy pareto: fresh evaluations" 406
    report.Mitigation.Frontier.r_fresh;
  check Alcotest.int "hierarchy pareto: subtrees cut" 344
    report.Mitigation.Frontier.r_pruned;
  check Alcotest.int "hierarchy pareto: every evaluation decided"
    report.Mitigation.Frontier.r_fresh !decided;
  check Alcotest.int "hierarchy pareto: decided" 406 !decided;
  checkb "pareto pruned > 0" true (report.Mitigation.Frontier.r_pruned > 0);
  let cache, decided = counting_cache () in
  let _, report =
    Mitigation.Frontier.budget_sweep
      (Cpsrisk.Hierarchy.frontier ~cache ())
      ~budgets:[ 15; 18; 21; 24 ]
  in
  check Alcotest.int "hierarchy budget_sweep: evaluations" 188
    report.Mitigation.Frontier.r_evals;
  check Alcotest.int "hierarchy budget_sweep: fresh evaluations" 188
    report.Mitigation.Frontier.r_fresh;
  check Alcotest.int "hierarchy budget_sweep: subtrees cut" 155
    report.Mitigation.Frontier.r_pruned;
  check Alcotest.int "hierarchy budget_sweep: every evaluation decided"
    report.Mitigation.Frontier.r_fresh !decided;
  check Alcotest.int "hierarchy budget_sweep: decided" 188 !decided;
  checkb "budget_sweep pruned > 0" true (report.Mitigation.Frontier.r_pruned > 0);
  let model =
    Archimate.Text.parse
      (In_channel.with_open_bin "../examples/models/press_cell.model"
         In_channel.input_all)
  in
  let topology = Cpsrisk.Backend.target ~model Cpsrisk.Backend.Topology in
  let spec = topology.Cpsrisk.Backend.spec in
  let spec = { spec with Engine.Job.deltas = topology.Cpsrisk.Backend.what_if } in
  checkb "press_cell has component deltas" true (spec.Engine.Job.deltas <> []);
  check_decided "press_cell" spec (Engine.Sweep.run spec)

(* The grounder's work on the same space, job by job through
   [Engine.Job.solve] on the plain spec (the full unrolling): every job is decided, so no ground instance is
   built, fresh or reused. The 128 jobs share one prepared base, whose
   component memo answers a job's dependent components when an earlier
   job read the same extensions: 118 jobs repeat one of 10 [active/1]
   fault sets. The counters pin that the strata rounds and rule firings
   stay exactly as they are and that the candidate probes never grow. *)
let test_sweep_work_counters () =
  let horizon = 48 in
  let deltas = water_tank_what_ifs () in
  (* the plain spec: no horizon shortcut, every job unrolled to H *)
  let prepared =
    Engine.Job.prepare
      {
        (Cpsrisk.Sweeps.water_tank_spec ~horizon deltas) with
        Engine.Job.shortcut = None;
      }
  in
  let total = Asp.Grounder.Stats.create () in
  List.iter
    (fun delta ->
      let models, _, gstats = Engine.Job.solve prepared delta in
      Asp.Grounder.Stats.add ~into:total gstats;
      let label = Engine.Delta.label delta in
      let verdicts =
        match models with
        | [ m ] ->
            List.map
              (fun (req : Epa.Requirement.t) ->
                let id = req.Epa.Requirement.id in
                ( id,
                  Asp.Model.holds m
                    (Asp.Atom.make "violated"
                       [ Asp.Term.const (String.lowercase_ascii id) ]) ))
              Cpsrisk.Water_tank.requirements
        | _ -> Alcotest.fail (label ^ ": not exactly one model")
      in
      let row =
        Epa.Analysis.run_scenario ~horizon Cpsrisk.Water_tank.system
          (Cpsrisk.Sweeps.delta_scenario delta)
      in
      let violated = Epa.Analysis.violations row in
      check
        (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.bool))
        label
        (List.map
           (fun (req : Epa.Requirement.t) ->
             let id = req.Epa.Requirement.id in
             (id, List.mem id violated))
           Cpsrisk.Water_tank.requirements)
        verdicts)
    deltas;
  let open Asp.Grounder.Stats in
  check Alcotest.int "decided" 128 total.decided;
  check Alcotest.int "firings" 9837 total.firings;
  check Alcotest.int "fresh rules" 0 total.fresh_rules;
  check Alcotest.int "reused rules" 0 total.reused_rules;
  check Alcotest.int "passes" 2645 total.passes;
  checkb
    (Printf.sprintf "probes %d <= 94420" total.probes)
    true
    (total.probes <= 94420)

let unrolled spec = { spec with Engine.Job.shortcut = None }

let answers (report : Engine.Sweep.report) =
  Array.to_list
    (Array.map
       (fun (r : Engine.Job.result) ->
         Engine.Delta.label r.Engine.Job.delta
         ^ " "
         ^ String.concat " " (List.map Asp.Model.to_string r.Engine.Job.models))
       report.Engine.Sweep.results)

(* every F1-F4 subset under every M1-M5 subset: the whole catalog *)
let catalog_what_ifs () =
  List.concat_map
    (fun mitigations ->
      Cpsrisk.Sweeps.all_fault_deltas ~mitigations Cpsrisk.Water_tank.faults)
    (subsets [ "M1"; "M2"; "M3"; "M4"; "M5" ])

(* The shortcut's premise, read here from the dynamics themselves: the
   state of a step is its [holds/3] and [alert/1] atoms, and the lasso
   is the first step j whose state equals an earlier step i's (prefix i,
   period j - i). The model lists its atoms in {!Asp.Atom.compare}
   order, time argument last, so each step's atoms come out in one
   canonical order. *)
let state_sigs = [ ("holds", 3); ("alert", 1) ]

let lasso m ~horizon =
  let states = Array.make (horizon + 1) [] in
  List.iter
    (fun (a : Asp.Atom.t) ->
      match List.rev a.Asp.Atom.args with
      | { Asp.Term.node = Asp.Term.Int t; _ } :: rest
        when t >= 0 && t <= horizon
             && List.mem (a.Asp.Atom.pred, List.length a.Asp.Atom.args)
                  state_sigs ->
          states.(t) <- (a.Asp.Atom.pred, rest) :: states.(t)
      | _ -> ())
    (Asp.Model.to_list m);
  let seen = Hashtbl.create 16 in
  let rec find j =
    if j > horizon then None
    else
      match Hashtbl.find_opt seen states.(j) with
      | Some i -> Some (i, j - i)
      | None ->
          Hashtbl.add seen states.(j) j;
          find (j + 1)
  in
  find 0

(* [(prefix, period)] of each delta's trace, read off the trace unrolled
   to [horizon] with the dynamics shown *)
let lassos ~horizon deltas =
  let base =
    List.fold_left
      (fun p s -> Asp.Program.add_show s p)
      (Cpsrisk.Water_tank.asp_base ~horizon ())
      state_sigs
  in
  let prepared =
    Engine.Job.prepare
      {
        (Cpsrisk.Sweeps.water_tank_spec ~horizon []) with
        Engine.Job.base;
        shortcut = None;
      }
  in
  List.map
    (fun d ->
      ( Engine.Delta.label d,
        match Engine.Job.solve prepared d with
        | [ m ], _, _ -> lasso m ~horizon
        | _ -> None ))
    deltas

(* The same 128 what-ifs at H = 48 through the horizon shortcut: every
   job is decided at the probe h0 = 12, so the grounder does the H = 12
   work (3,105 firings against the full unrolling's 9,837), and
   [sweep --stats] says how each job was answered. The fold behind it
   holds for every fault and mitigation subset of the catalog: each
   lasso's period divides 12, the probe's period, and the lasso reaches
   prefix + depth * period by step 12, so {!Telingo.Compile.reduce_horizon}
   folds H and its probe horizon onto the same horizon. *)
let test_sweep_horizon_counters () =
  let deltas = water_tank_what_ifs () in
  let spec, h = Cpsrisk.Sweeps.water_tank ~horizon:48 deltas in
  let report = Engine.Sweep.run spec in
  check (Alcotest.list Alcotest.string) "answers of the full unrolling"
    (answers (Engine.Sweep.run (unrolled spec)))
    (answers report);
  let open Asp.Grounder.Stats in
  let g = report.Engine.Sweep.ground in
  check Alcotest.int "decided" 128 g.decided;
  check Alcotest.int "firings" 3105 g.firings;
  check Alcotest.int "passes" 1349 g.passes;
  checkb (Printf.sprintf "probes %d <= 26038" g.probes) true (g.probes <= 26038);
  check Alcotest.string "--stats line"
    "horizon: H=48 from probe h0=12: 128 decided at h0, 0 unrolled at H\n"
    (Cpsrisk.Sweeps.render_horizon h);
  (* the base that answered the jobs is the probe's; the H base, which
     no job used, is not ground to report it *)
  let atoms, at = Cpsrisk.Sweeps.base_universe h report in
  check Alcotest.string "--stats base universe"
    "sweep: 128 jobs in 0.000s (base universe 209 atoms at h0=12)"
    (List.hd
       (String.split_on_char '\n'
          (Engine.Sweep.render
             ~base:(Printf.sprintf "%d atoms at %s" atoms at)
             { report with Engine.Sweep.wall_s = 0.0 })));
  (* the CLI target carries the same handle *)
  let target = Cpsrisk.Backend.target ~horizon:48 Cpsrisk.Backend.Water_tank in
  checkb "water-tank target has a horizon shortcut" true
    (target.Cpsrisk.Backend.horizon <> None);
  checkb "other targets have none" true
    ((Cpsrisk.Backend.target Cpsrisk.Backend.Hierarchy).Cpsrisk.Backend.horizon
    = None);
  let depth =
    List.fold_left
      (fun d (r : Epa.Requirement.t) ->
        max d (Telingo.Compile.temporal_depth r.Epa.Requirement.formula))
      0 Cpsrisk.Water_tank.requirements
  in
  check Alcotest.int "depth of R1 and R2" 2 depth;
  let probe = Cpsrisk.Sweeps.probe_horizon 48 in
  check Alcotest.int "probe horizon of 48" 12 probe;
  let catalog = lassos ~horizon:probe (catalog_what_ifs ()) in
  check Alcotest.int "512 catalog subsets" 512 (List.length catalog);
  List.iter
    (fun (label, l) ->
      match l with
      | None -> Alcotest.fail (label ^ ": no state repeats by step 12")
      | Some (prefix, period) ->
          checkb
            (Printf.sprintf "%s: period %d divides 12" label period)
            true
            (probe mod period = 0);
          checkb
            (Printf.sprintf "%s: prefix %d + %d * period %d <= 12" label
               prefix depth period)
            true
            (prefix + (depth * period) <= probe))
    catalog;
  (* the lassos themselves: the tank oscillates with period 6 when the
     valves work, settles in one step after step 2 with the input valve
     stuck open, and after the overflow at step 3 otherwise *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "lassos (prefix, period) at the probe"
    (List.map
       (fun (l, (i, p)) -> (l, Printf.sprintf "(%d, %d)" i p))
       [
         ("{}", (0, 6)); ("{F1}", (2, 1)); ("{F2}", (3, 1)); ("{F3}", (0, 6));
         ("{F4}", (3, 1)); ("{F1,F2}", (3, 1)); ("{F1,F3}", (2, 1));
         ("{F1,F4}", (3, 1)); ("{F2,F3}", (3, 1)); ("{F2,F4}", (3, 1));
         ("{F3,F4}", (3, 1)); ("{F1,F2,F3}", (3, 1)); ("{F1,F2,F4}", (3, 1));
         ("{F1,F3,F4}", (3, 1)); ("{F2,F3,F4}", (3, 1));
         ("{F1,F2,F3,F4}", (3, 1));
       ])
    (List.map
       (fun (l, lasso) ->
         ( l,
           match lasso with
           | Some (i, p) -> Printf.sprintf "(%d, %d)" i p
           | None -> "none" ))
       (lassos ~horizon:probe
          (Cpsrisk.Sweeps.all_fault_deltas Cpsrisk.Water_tank.faults)))

(* Ids outside the catalog activate nothing: every dynamics rule joins
   on the catalog's [fault_on/2] and [mitigation/2] facts, so a fault
   [F9], a mitigation [M7] and a component name [in_valve] as either
   leave each catalog subset's answer as it is, through the shortcut and
   in the full unrolling alike. This is what lets the catalog's 512
   lassos stand for every facts-only delta. *)
let test_sweep_unknown_ids () =
  let catalog = catalog_what_ifs () in
  let with_unknown =
    List.map
      (fun (d : Engine.Delta.t) ->
        Engine.Delta.make ~label:(Engine.Delta.label d)
          ~mitigations:("M7" :: "in_valve" :: d.Engine.Delta.mitigations)
          ("F9" :: "in_valve" :: d.Engine.Delta.faults))
      catalog
  in
  List.iter
    (fun horizon ->
      let what = Printf.sprintf "H=%d" horizon in
      let spec deltas = Cpsrisk.Sweeps.water_tank_spec ~horizon deltas in
      let reference = answers (Engine.Sweep.run (unrolled (spec catalog))) in
      check (Alcotest.list Alcotest.string) (what ^ ": shortcut") reference
        (answers (Engine.Sweep.run (spec with_unknown)));
      check (Alcotest.list Alcotest.string) (what ^ ": full unrolling")
        reference
        (answers (Engine.Sweep.run (unrolled (spec with_unknown)))))
    [ 13; 48 ]

(* The what-if compilers build their facts as terms; printing the facts
   and parsing them back is the oracle: every program, and so every job
   fingerprint and every store key, must be the one it gives. *)
let printed_activation_facts (d : Engine.Delta.t) =
  let buf = Buffer.create 256 in
  List.iter
    (fun f ->
      Printf.bprintf buf "activated(%s).\n" (Archimate.To_asp.sanitize f))
    d.Engine.Delta.faults;
  let site = function
    | "m1" | "m2" -> "ews"
    | "m3" -> "hmi"
    | "m4" -> "out_valve"
    | "m5" -> "in_valve"
    | other -> other
  in
  List.iter
    (fun m ->
      let m = Archimate.To_asp.sanitize m in
      Printf.bprintf buf "active_mitigation(%s, %s).\n" (site m) m)
    d.Engine.Delta.mitigations;
  Asp.Parser.parse_program (Buffer.contents buf)

let printed_topology_facts (d : Engine.Delta.t) =
  let buf = Buffer.create 128 in
  List.iter
    (fun c -> Printf.bprintf buf "injected(%s).\n" (Archimate.To_asp.sanitize c))
    d.Engine.Delta.faults;
  List.iter
    (fun m ->
      Printf.bprintf buf "active_mitigation(%s).\n"
        (Archimate.To_asp.sanitize m))
    d.Engine.Delta.mitigations;
  Asp.Parser.parse_program (Buffer.contents buf)

let test_compile_matches_printed () =
  let odd =
    [
      Engine.Delta.make ~label:"sanitized" ~mitigations:[ "M-1"; "Zündung" ]
        [ "9x"; "F1"; "Zündung" ];
      Engine.Delta.make ~mitigations:[ "M5"; "M4"; "M3" ] [ "F-2"; "in_valve" ];
      Engine.Delta.make ~label:"with rules" ~mitigations:[ "M1" ]
        ~extra:[ "holds(level, high, 0)." ] [ "F2" ];
    ]
  in
  let what_ifs =
    catalog_what_ifs () @ water_tank_what_ifs () @ odd
    @ Cpsrisk.Sweeps.model_element_deltas Cpsrisk.Water_tank.refined_model
  in
  let extra (d : Engine.Delta.t) =
    List.fold_left
      (fun acc src -> Asp.Program.append acc (Asp.Parser.parse_program src))
      Asp.Program.empty d.Engine.Delta.extra
  in
  let pin name (spec : Engine.Job.spec) printed =
    let oracle =
      {
        spec with
        Engine.Job.compile = (fun d -> Asp.Program.append (printed d) (extra d));
      }
    in
    let p = Engine.Job.prepare spec and o = Engine.Job.prepare oracle in
    List.iter
      (fun d ->
        let what = name ^ " " ^ Engine.Delta.label d in
        check Alcotest.string (what ^ ": program")
          (Asp.Program.to_string (oracle.Engine.Job.compile d))
          (Asp.Program.to_string (spec.Engine.Job.compile d));
        checkb (what ^ ": fingerprint") true
          (Engine.Fingerprint.equal (Engine.Job.fingerprint o d)
             (Engine.Job.fingerprint p d)))
      what_ifs
  in
  pin "water-tank" (Cpsrisk.Sweeps.water_tank_spec ~horizon:48 [])
    printed_activation_facts;
  pin "topology"
    (Cpsrisk.Sweeps.topology_spec Cpsrisk.Water_tank.refined_model [])
    printed_topology_facts;
  (* an id that sanitizes to the keyword [not] cannot be printed and
     parsed back; as a term it is one more unknown constant *)
  let sweep mitigations faults =
    answers
      (Engine.Sweep.run
         (Cpsrisk.Sweeps.water_tank_spec
            [ Engine.Delta.make ~label:"k" ~mitigations faults ]))
  in
  check (Alcotest.list Alcotest.string) "keyword ids answer like unknown ids"
    (sweep [ "M9" ] [ "F2"; "F9" ])
    (sweep [ "not" ] [ "F2"; "NOT" ])

(* What the traced cli-sweep benchmark run replays in-process: the 128
   what-ifs at H = 48, where the probe (h0 = 12) answers every job, each
   through [Job.fingerprint], the cache and [Job.solve] on two domains
   at once, and every verdict equal to the EPA simulation's. *)
let test_sweep_pool_replay () =
  let horizon = 48 in
  let deltas = Array.of_list (water_tank_what_ifs ()) in
  let prepared =
    Engine.Job.prepare
      (Cpsrisk.Sweeps.water_tank_spec ~horizon (Array.to_list deltas))
  in
  let cache = Engine.Cache.create () in
  let results =
    Engine.Pool.map ~oversubscribe:true ~jobs:2
      (fun index ->
        let delta = deltas.(index) in
        let fingerprint = Engine.Job.fingerprint prepared delta in
        let (models, stats, gstats), source =
          Engine.Cache.find_or_compute_src cache fingerprint (fun () ->
              Engine.Job.solve prepared delta)
        in
        {
          Engine.Job.index;
          delta;
          fingerprint;
          models;
          stats;
          gstats;
          cached = source <> Engine.Cache.Fresh;
          source;
        })
      (Array.length deltas)
  in
  Array.iter
    (fun (r : Engine.Job.result) ->
      let label = Engine.Delta.label r.Engine.Job.delta in
      checkb (label ^ ": fresh") false r.Engine.Job.cached;
      let violated =
        Epa.Analysis.violations
          (Epa.Analysis.run_scenario ~horizon Cpsrisk.Water_tank.system
             (Cpsrisk.Sweeps.delta_scenario r.Engine.Job.delta))
      in
      check
        (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.bool))
        label
        (List.map
           (fun (req : Epa.Requirement.t) ->
             let id = req.Epa.Requirement.id in
             (id, List.mem id violated))
           Cpsrisk.Water_tank.requirements)
        (Cpsrisk.Sweeps.verdicts r))
    results

(* The differential case: every F1-F4 subset under every M1-M5 subset,
   plus deltas with extra rules (which must take the full-H fallback),
   at every H in 0..64, against the full unrolling at H, model for model.
   The water-tank frontier's optimum and Pareto front at H = 12 and 48
   are those of the full unrolling too. *)
let test_sweep_horizon_differential () =
  let extras =
    [
      Engine.Delta.make ~label:"extra state" ~extra:[ "holds(level, high, 0)." ]
        [ "F1" ];
      Engine.Delta.make ~label:"timed fault" ~extra:[ "activated(f1) :- time(5)." ] [];
      Engine.Delta.make ~label:"choice" ~extra:[ "{x;y}1." ] [ "F3" ];
    ]
  in
  let deltas = catalog_what_ifs () @ extras in
  check Alcotest.int "512 what-ifs + extras" 515 (List.length deltas);
  for horizon = 0 to 64 do
    let spec, h = Cpsrisk.Sweeps.water_tank ~horizon deltas in
    let what = Printf.sprintf "H=%d" horizon in
    let report = Engine.Sweep.run spec in
    check (Alcotest.list Alcotest.string) what
      (answers (Engine.Sweep.run (unrolled spec)))
      (answers report);
    check Alcotest.string (what ^ ": extras unrolled")
      (Printf.sprintf
         "horizon: H=%d from probe h0=%d: 512 decided at h0, 3 unrolled at H\n"
         horizon (Cpsrisk.Sweeps.probe_horizon horizon))
      (Cpsrisk.Sweeps.render_horizon h);
    (* an unrolled job used the H base: that is the one reported *)
    check
      (Alcotest.pair Alcotest.int Alcotest.string)
      (what ^ ": base universe")
      (Engine.Sweep.base_atoms report, Printf.sprintf "H=%d" horizon)
      (Cpsrisk.Sweeps.base_universe h report)
  done;
  List.iter
    (fun horizon ->
      let spec = Cpsrisk.Sweeps.water_tank_spec ~horizon [] in
      let frontier spec =
        Cpsrisk.Pipeline.water_tank_frontier_of (Engine.Job.prepare spec)
      in
      let render = Format.asprintf "%a" Mitigation.Optimizer.pp_solution in
      let solutions = List.map render in
      let what = Printf.sprintf "H=%d" horizon in
      check Alcotest.string (what ^ ": optimum")
        (render (fst (Mitigation.Frontier.optimal (frontier (unrolled spec)))))
        (render (fst (Mitigation.Frontier.optimal (frontier spec))));
      check (Alcotest.list Alcotest.string) (what ^ ": pareto front")
        (solutions (fst (Mitigation.Frontier.pareto (frontier (unrolled spec)))))
        (solutions (fst (Mitigation.Frontier.pareto (frontier spec)))))
    [ 12; 48 ]

let test_topology_sweep () =
  let config = Cpsrisk.Pipeline.water_tank_config () in
  let report, impacts = Cpsrisk.Pipeline.topology_sweep config in
  check Alcotest.int "one job per component delta"
    (List.length (Cpsrisk.Sweeps.model_element_deltas config.Cpsrisk.Pipeline.model))
    (Array.length report.Engine.Sweep.results);
  (* an unmitigated injection reaches at least itself *)
  List.iter
    (fun (label, affected) ->
      checkb (label ^ " affects itself") true (affected <> []))
    impacts;
  (* activating M1 (user training, associated with the e-mail client)
     shields the injection point and contains the error *)
  let spec deltas =
    Cpsrisk.Sweeps.topology_spec config.Cpsrisk.Pipeline.model deltas
  in
  let unshielded = Engine.Sweep.run (spec [ Engine.Delta.make [ "email" ] ]) in
  checkb "unshielded e-mail client propagates" true
    (List.length (Cpsrisk.Sweeps.affected unshielded.Engine.Sweep.results.(0))
    > 1);
  let shielded =
    Engine.Sweep.run
      (spec [ Engine.Delta.make ~mitigations:[ "M1" ] [ "email" ] ])
  in
  check
    (Alcotest.list Alcotest.string)
    "mitigated e-mail client contained" []
    (Cpsrisk.Sweeps.affected shielded.Engine.Sweep.results.(0))

(* Job models hold only the backend's [#show] predicate when the cache
   keeps them: every atom of every cached model has a shown signature,
   the model count is kept, and each backend's reading of the cached
   models equals its reading of the whole models that the test-only Dfs
   oracle finds for a scratch grounding of base and increment. The
   shipped solver cannot serve as the oracle: it builds only the shown
   atoms too, so it would repeat a wrong projection. *)
let check_projection (target : Cpsrisk.Backend.target) deltas =
  let spec = { target.Cpsrisk.Backend.spec with Engine.Job.deltas } in
  let shows = Asp.Program.shows spec.Engine.Job.base in
  let backend = target.Cpsrisk.Backend.backend in
  let name = Cpsrisk.Backend.name backend in
  checkb (name ^ ": base declares a #show") true (shows <> []);
  let cache = Engine.Cache.create () in
  let report = Engine.Sweep.run ~cache spec in
  Array.iter
    (fun (r : Engine.Job.result) ->
      let label = name ^ " " ^ Engine.Delta.label r.Engine.Job.delta in
      let models, _, _ =
        fst
          (Engine.Cache.find_or_compute_src cache r.Engine.Job.fingerprint
             (fun () -> Alcotest.fail (label ^ ": not cached")))
      in
      List.iter
        (fun m ->
          Asp.Model.AtomSet.iter
            (fun a ->
              if not (List.mem (Asp.Atom.signature a) shows) then
                Alcotest.failf "%s: cached atom %s is not shown" label
                  (Asp.Atom.to_string a))
            (Asp.Model.atoms m))
        models;
      let oracle =
        Asp_oracle.Dfs.solve
          (Asp.Grounder.ground
             (Asp.Program.append spec.Engine.Job.base
                (spec.Engine.Job.compile r.Engine.Job.delta)))
      in
      check Alcotest.int (label ^ ": model count") (List.length oracle)
        (List.length models);
      let reading = Cpsrisk.Backend.read backend in
      let projected = reading { r with Engine.Job.models } in
      checkb (label ^ ": reads") true (projected <> None);
      checkb (label ^ ": reading equals the unprojected oracle's") true
        (projected = reading { r with Engine.Job.models = oracle }))
    report.Engine.Sweep.results

(* 256 seeded subsets of the hierarchy's 12 frontier actions *)
let hierarchy_what_ifs rng =
  let ids =
    List.map
      (fun (a : Mitigation.Action.t) -> a.Mitigation.Action.id)
      Cpsrisk.Hierarchy.frontier_actions
  in
  List.init 256 (fun _ ->
      Cpsrisk.Hierarchy.frontier_delta
        ~active:(List.filter (fun _ -> Random.State.bool rng) ids))

let test_projection_readings () =
  check_projection
    (Cpsrisk.Backend.target ~horizon:12 Cpsrisk.Backend.Water_tank)
    (water_tank_what_ifs ());
  let model =
    Archimate.Text.parse
      (In_channel.with_open_bin "../examples/models/press_cell.model"
         In_channel.input_all)
  in
  let topology = Cpsrisk.Backend.target ~model Cpsrisk.Backend.Topology in
  check_projection topology topology.Cpsrisk.Backend.what_if;
  check_projection
    (Cpsrisk.Backend.target Cpsrisk.Backend.Hierarchy)
    (hierarchy_what_ifs (Random.State.make [| 0x5e0; 17 |]))

(* ------------------------------------------------------------------ *)
(* Base numbering: increments keep the base's atom ids                  *)
(* ------------------------------------------------------------------ *)

(* A layered plant of [components] elements in layers of 20: each element
   flows into 2 elements of the next layer, and seeded forward jumps
   bring the flow relation to [edges] distinct edges. *)
let layered_plant ~seed ~components ~edges =
  let rng = Random.State.make [| seed; 0x1a7e |] in
  let width = 20 in
  let name = Printf.sprintf "c%03d" in
  let succ = Array.make components [] in
  let buf = Buffer.create (64 * (components + edges)) in
  Buffer.add_string buf "model \"layered plant\"\n";
  for i = 0 to components - 1 do
    Printf.bprintf buf "element %s \"Component %d\" node { component_type = \"plc\" }\n"
      (name i) i
  done;
  let count = ref 0 in
  let add a b =
    if not (List.mem b succ.(a)) then begin
      succ.(a) <- b :: succ.(a);
      Printf.bprintf buf "relation f%d flow %s -> %s\n" !count (name a) (name b);
      incr count
    end
  in
  let next a = ((a / width) + 1) * width in
  for a = 0 to components - 1 do
    if next a < components then
      while List.length succ.(a) < 2 do
        add a (next a + Random.State.int rng width)
      done
  done;
  while !count < edges do
    let a = Random.State.int rng components in
    if next a < components then
      add a (next a + Random.State.int rng (components - next a))
  done;
  (Archimate.Text.parse (Buffer.contents buf), Array.init components name)

let shown_strings shows models =
  List.map Asp.Model.to_string
    (match shows with
    | [] -> models
    | shows -> List.sort Asp.Model.compare (List.map (Asp.Model.project shows) models))

(* Every job's models equal the whole-model oracle's projected on the
   program's [#show] and sorted by what they show; every base atom keeps
   its base id in every job's compiled program, and the atoms an increment
   adds are numbered after the base's. *)
let check_numbering (target : Cpsrisk.Backend.target) deltas =
  let spec = target.Cpsrisk.Backend.spec in
  let name = Cpsrisk.Backend.name target.Cpsrisk.Backend.backend in
  let prepared = Engine.Job.prepare spec in
  let gprep = Asp.Grounder.prepare ?max_atoms:spec.Engine.Job.max_atoms spec.Engine.Job.base in
  let base = (Asp.Grounder.base gprep).Asp.Ground.numbering in
  let nbase = Array.length base.Asp.Ground.by_id in
  check
    (Alcotest.list Alcotest.string)
    (name ^ ": base numbering is the base universe in Atom.compare order")
    (List.map Asp.Atom.to_string
       (Asp.Model.AtomSet.elements (Asp.Grounder.base_universe gprep)))
    (List.map Asp.Atom.to_string (Array.to_list base.Asp.Ground.by_id));
  List.iter
    (fun delta ->
      let label = name ^ " " ^ Engine.Delta.label delta in
      let increment = spec.Engine.Job.compile delta in
      let g = Asp.Grounder.extend gprep increment in
      checkb (label ^ ": carries the base numbering") true
        (g.Asp.Ground.numbering == base);
      let p = Asp.Interned.compile g in
      Array.iteri
        (fun i a ->
          if Asp.Interned.id p a <> i || p.Asp.Interned.atoms.(i) != a then
            Alcotest.failf "%s: base atom %s renumbered" label (Asp.Atom.to_string a))
        base.Asp.Ground.by_id;
      for i = nbase to p.Asp.Interned.n_atoms - 1 do
        let a = p.Asp.Interned.atoms.(i) in
        if Asp.Atom.Tbl.mem base.Asp.Ground.ids a || Asp.Interned.id p a <> i then
          Alcotest.failf "%s: id %d (%s) is not an increment atom's" label i
            (Asp.Atom.to_string a)
      done;
      let models, _, _ = Engine.Job.solve prepared delta in
      let oracle =
        Asp_oracle.Dfs.solve
          (Asp.Grounder.ground ?max_atoms:spec.Engine.Job.max_atoms
             (Asp.Program.append spec.Engine.Job.base increment))
      in
      check
        (Alcotest.list Alcotest.string)
        (label ^ ": models are the oracle's, projected and sorted")
        (shown_strings g.Asp.Ground.shows oracle)
        (List.map Asp.Model.to_string models))
    deltas

let test_numbering_water_tank () =
  let deltas = water_tank_what_ifs () in
  check Alcotest.int "128 water-tank deltas" 128 (List.length deltas);
  check_numbering (Cpsrisk.Backend.target ~horizon:12 Cpsrisk.Backend.Water_tank) deltas

let test_numbering_hierarchy () =
  check_numbering
    (Cpsrisk.Backend.target Cpsrisk.Backend.Hierarchy)
    (hierarchy_what_ifs (Random.State.make [| 0x4e0; 5 |]))

(* 120 seeded 1-3-fault deltas on a 240-component plant *)
let test_numbering_plant () =
  let model, names = layered_plant ~seed:11 ~components:240 ~edges:480 in
  let rng = Random.State.make [| 0xfa17; 3 |] in
  let deltas =
    List.init 120 (fun _ ->
        let k = 1 + Random.State.int rng 3 in
        Engine.Delta.make
          (List.sort_uniq compare
             (List.init k (fun _ -> names.(Random.State.int rng 240)))))
  in
  check_numbering (Cpsrisk.Backend.target ~model Cpsrisk.Backend.Topology) deltas

(* An extended program solved by CDNL equals the whole-model oracle,
   with atoms numbered in the base and in the increment. The program is
   the choice encoding of the hierarchy's routing with two entry
   points, whose [hop] atoms give it several models. *)
let test_numbering_extended () =
  let spec = Test_cegar.choice_spec ~levels:2 ~entries:3 () in
  let level = (List.hd spec.Cegar.Inc.levels).Cegar.Inc.l_structure in
  let increment =
    List.fold_left
      (fun acc c -> Asp.Program.append acc (spec.Cegar.Inc.increment c))
      level
      (List.tl spec.Cegar.Inc.candidates)
  in
  let gprep = Asp.Grounder.prepare spec.Cegar.Inc.base in
  let g = Asp.Grounder.extend gprep increment in
  let nbase = Array.length g.Asp.Ground.numbering.Asp.Ground.by_id in
  let p = Asp.Interned.compile g in
  let atom pred args = Asp.Atom.make pred (List.map Asp.Term.const args) in
  checkb "flow(gw3,z1) is a base atom" true
    (Asp.Interned.id p (atom "flow" [ "gw3"; "z1" ]) < nbase);
  List.iter
    (fun a ->
      checkb (Asp.Atom.to_string a ^ " is an increment atom") true
        (Asp.Interned.id p a >= nbase))
    [ atom "blocked" [ "gw1"; "z1" ]; atom "entry" [ "e2" ]; atom "hop" [ "gw3"; "z1" ] ];
  let oracle =
    Asp_oracle.Dfs.solve
      (Asp.Grounder.ground (Asp.Program.append spec.Cegar.Inc.base increment))
  in
  checkb "the extended program has several models" true (List.length oracle > 1);
  check
    (Alcotest.list Alcotest.string)
    "CDNL equals the oracle"
    (List.map Asp.Model.to_string oracle)
    (List.map Asp.Model.to_string (Asp.Solver.solve g))

(* Non-monotone increments: a delta can retract, through negation, what
   the base alone derives, so a decided model is never the base's model
   plus the delta's consequences. Each is also the model the solver
   finds for [extend]'s grounding. *)
let test_decide_retracts () =
  let decided gprep delta =
    match Asp.Grounder.decide gprep delta with
    | Some [ m ] ->
        check
          (Alcotest.list Alcotest.string)
          "decided model equals extend + solve"
          (List.map Asp.Model.to_string
             (Asp.Solver.solve (Asp.Grounder.extend gprep delta)))
          [ Asp.Model.to_string m ];
        m
    | Some _ | None -> Alcotest.fail "expected one decided model"
  in
  let holds m a = Asp.Model.holds m a in
  (* water tank: activating F1 retracts holds(in_valve, closed, T) *)
  let tank = Asp.Grounder.prepare (Cpsrisk.Water_tank.asp_base ~horizon:12 ()) in
  let bare = decided tank Asp.Program.empty in
  let f1 =
    decided tank
      (Cpsrisk.Water_tank.asp_activation_facts (Epa.Scenario.make [ "F1" ]))
  in
  let closed =
    List.filter
      (fun (a : Asp.Atom.t) ->
        match a.Asp.Atom.args with
        | [ v; s; _ ] ->
            Asp.Term.to_string v = "in_valve" && Asp.Term.to_string s = "closed"
        | _ -> false)
      (Asp.Model.by_predicate bare "holds")
  in
  checkb "the bare tank closes its inlet" true (closed <> []);
  checkb "{F1} retracts holds(in_valve, closed, T)" true
    (List.exists (fun a -> not (holds f1 a)) closed);
  (* hierarchy frontier: an active shield retracts base error atoms *)
  let plant = Asp.Grounder.prepare Cpsrisk.Hierarchy.frontier_base in
  let bare = decided plant Asp.Program.empty in
  let shielded = decided plant (Asp.Parser.parse_program "active(ms1).") in
  let errors m = Asp.Model.by_predicate m "error" in
  checkb "the bare plant errs" true (errors bare <> []);
  checkb "active(ms1) retracts error atoms" true
    (List.exists (fun a -> not (holds shielded a)) (errors bare));
  (* a choice rule or an even negative loop in the delta falls back, and
     the job still returns all its models *)
  let prepared =
    Engine.Job.prepare (Cpsrisk.Sweeps.water_tank_spec ~horizon:12 [])
  in
  let gprep = Asp.Grounder.prepare (Engine.Job.prepared_spec prepared).Engine.Job.base in
  List.iter
    (fun (extra, count) ->
      let delta = Engine.Delta.make ~extra:[ extra ] [ "F1" ] in
      let increment = (Engine.Job.prepared_spec prepared).Engine.Job.compile delta in
      checkb (extra ^ ": declined") true (Asp.Grounder.decide gprep increment = None);
      let models, _, gstats = Engine.Job.solve prepared delta in
      check Alcotest.int (extra ^ ": not decided") 0 gstats.Asp.Grounder.Stats.decided;
      check Alcotest.int (extra ^ ": models") count (List.length models);
      check
        (Alcotest.list Alcotest.string)
        (extra ^ ": models equal extend + solve")
        (List.map Asp.Model.to_string
           (Asp.Solver.solve (Asp.Grounder.extend gprep increment)))
        (List.map Asp.Model.to_string models))
    [ ("{x;y}1.", 3); ("p :- not q. q :- not p.", 2) ]

(* [sweep --stats] names solver work only when a fresh job reached the
   solver: jobs the grounder decided have zeroed solver stats, whose
   [tier=full wall=0.000000s] read as work that never ran. *)
let test_render_decided () =
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  let render deltas =
    Engine.Sweep.render
      (Engine.Sweep.run (Cpsrisk.Sweeps.water_tank_spec ~horizon:4 deltas))
  in
  let decided = render [ Engine.Delta.make [ "F1" ]; Engine.Delta.make [ "F2" ] ] in
  checkb "all decided: no solver stats" false (contains decided "tier=");
  checkb "all decided: counted" true
    (contains decided "fresh solver work: none (the grounder decided 2 fresh jobs)");
  let solved =
    render
      [ Engine.Delta.make [ "F1" ]; Engine.Delta.make ~extra:[ "{x;y}1." ] [ "F2" ] ]
  in
  checkb "one solved: solver stats" true
    (contains solved "fresh solver work: guesses=");
  checkb "one solved: models of both" true (contains solved "models=4 ")

let suites =
  [
    ( "engine",
      [
        Alcotest.test_case "fingerprint: structural equality" `Quick
          test_fp_structural;
        Alcotest.test_case "fingerprint: perturbations change it" `Quick
          test_fp_perturbation;
        Alcotest.test_case "fingerprint: extend/append law" `Quick
          test_fp_extend_append;
        Alcotest.test_case "fingerprint: golden values (store format)" `Quick
          test_fp_golden;
        Alcotest.test_case "job: fingerprint golden (job-key layout)" `Quick
          test_job_fp_golden;
        Alcotest.test_case "delta: mutations-file parsing" `Quick
          test_delta_parse;
        Alcotest.test_case "delta: error positions" `Quick
          test_delta_error_positions;
        Alcotest.test_case "delta: derived labels" `Quick test_delta_label;
        Alcotest.test_case "pool: map equals Array.init" `Quick test_pool_map;
        Alcotest.test_case "pool: deterministic exception" `Quick
          test_pool_exception;
        Alcotest.test_case "cache: memoization and accounting" `Quick
          test_cache;
        Alcotest.test_case "sweep: second run is all cache hits" `Quick
          test_sweep_cache_accounting;
        Alcotest.test_case "sweep: solve mode is part of the address" `Quick
          test_mode_not_conflated;
        Alcotest.test_case "sweep: agrees with per-scenario encoding" `Quick
          test_sweep_matches_reference;
        Alcotest.test_case "sweep: what-if space decided by the grounder"
          `Quick test_sweep_decided;
        Alcotest.test_case "sweep: pipeline topology what-ifs" `Quick
          test_topology_sweep;
        Alcotest.test_case "numbering: water-tank jobs equal the oracle" `Quick
          test_numbering_water_tank;
        Alcotest.test_case "numbering: hierarchy jobs equal the oracle" `Quick
          test_numbering_hierarchy;
        Alcotest.test_case "numbering: plant jobs equal the oracle" `Quick
          test_numbering_plant;
        Alcotest.test_case "numbering: extended CDNL equals the oracle" `Quick
          test_numbering_extended;
        Alcotest.test_case "job: cached models projected on #show" `Quick
          test_projection_readings;
        Alcotest.test_case "sweep: horizon shortcut counters pinned" `Quick
          test_sweep_horizon_counters;
        Alcotest.test_case "sweep: horizon shortcut = full unrolling" `Quick
          test_sweep_horizon_differential;
        Alcotest.test_case "sweep: unknown ids answer like the catalog's"
          `Quick test_sweep_unknown_ids;
        Alcotest.test_case "sweep: compiled facts equal the printed ones"
          `Quick test_compile_matches_printed;
        Alcotest.test_case "sweep: cli-sweep replay at H=48 on two domains"
          `Quick test_sweep_pool_replay;
        Alcotest.test_case "sweep: grounder work counters pinned" `Quick
          test_sweep_work_counters;
        Alcotest.test_case "decide: deltas retract base atoms" `Quick
          test_decide_retracts;
        Alcotest.test_case "sweep: stats name the solver only when it ran"
          `Quick test_render_decided;
      ] );
  ]
