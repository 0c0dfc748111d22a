(* Grounder scaling sweep: the production grounding path (Asp.Grounder —
   semi-naive fixpoint with snapshot rounds, hash-consed terms,
   multi-position/composite/range discrimination indexes, incremental
   extend) against the retained naive oracle (Asp_oracle.Naive_ground —
   ground-everything-every-pass fixpoint with linear signature scans), on
   four workload shapes:

   - tc n:        transitive closure over an n-node chain (O(n²) ground
                  rules, O(n) fixpoint rounds). The oracle re-joins the
                  whole path relation against the whole edge relation
                  every pass; the semi-naive grounder only joins the atoms
                  the previous round produced, probed through the
                  discrimination indexes.
   - tank h:      the water-tank temporal encoding at horizon h — the
                  paper's actual workload shape (time-indexed fluents,
                  choices, aggregates, weak constraints).
   - extend k:    k scenario deltas against one prepared water-tank base:
                  Grounder.prepare once + Grounder.extend per delta, vs
                  grounding base+delta from scratch per delta. The sweep
                  engine's per-job grounding path.
   - tc-extend k: k chain-growth deltas against one prepared tc base —
                  the reuse counters must show the base's O(n²) instances
                  carried over instead of re-derived.

   Every timed run is checked against its reference (Ground.equal for
   one-shot parity; set-equality on rules plus exact universe/show
   agreement for extend, which may keep duplicate ground rules two source
   rules share). Two regression guards exit 2:

   - never-slower: wherever the oracle runs, the production grounder must
     beat it (tolerance below) — and extend must beat scratch regrounding;
   - probe efficiency: probes/firings must stay under a per-workload
     budget, so an index regression (e.g. losing the composite or range
     tier and falling back to signature scans) fails the bench even if
     the machine is fast enough to hide it in wall-clock.

   Emits JSON (committed as BENCH_ground.json at the repo root for the
   full sweep; `dune build @ground-smoke` runs a seconds-scale subset as
   part of the test tree). *)

let time = Registry.time

type entry = {
  workload : string;
  param : int;
  atoms : int;
  grules : int;
  new_s : float;
  oracle_s : float option; (* None above the oracle's budget *)
  stats : Asp.Grounder.Stats.t;
}

(* never-slower tolerance; only enforced where the reference is large
   enough to time reliably *)
let tolerance = 1.25
let min_reliable_s = 0.010

let check_never_slower ~what ~param ~ref_s ~new_s =
  match ref_s with
  | Some r when r >= min_reliable_s && new_s > r *. tolerance ->
      Printf.eprintf
        "ground_bench: %s %d grounder %.4fs slower than reference %.4fs x %.2f\n"
        what param new_s r tolerance;
      exit 2
  | _ -> ()

(* probe-efficiency guard: index probes per instance the grounder either
   fired or proved reusable (reused instances are validated by probing
   without re-firing, so they belong in the denominator — otherwise the
   ratio grows with base size on the extend workloads even when every
   probe is useful). A probe that lands in a discrimination bucket
   enumerates only candidates sharing the key, so healthy workloads stay
   within a small constant; losing an index tier degrades probes to
   signature scans whose cost explodes with no probe-count change —
   which is why the ratio is bounded per workload rather than globally,
   with the join-heavy shapes given tighter budgets. *)
let probe_budget =
  [ ("tc", 4.0); ("tank", 10.0); ("extend", 8.0); ("tc-extend", 3.0) ]

let check_probe_efficiency ~workload ~param (s : Asp.Grounder.Stats.t) =
  match List.assoc_opt workload probe_budget with
  | None -> ()
  | Some budget ->
      let touched =
        s.Asp.Grounder.Stats.firings + s.Asp.Grounder.Stats.reused_rules
      in
      let ratio =
        float_of_int s.Asp.Grounder.Stats.probes /. float_of_int (max 1 touched)
      in
      if ratio > budget then begin
        Printf.eprintf
          "ground_bench: %s %d probe efficiency regressed: %d probes / %d \
           fired+reused = %.2f > budget %.2f\n"
          workload param s.Asp.Grounder.Stats.probes touched ratio budget;
        exit 2
      end

let run_oneshot ~reps ~oracle_cap name param program =
  let stats = Asp.Grounder.Stats.create () in
  let g, new_s = time ~reps (fun () -> Asp.Grounder.ground ~stats program) in
  let oracle_s =
    if param <= oracle_cap then begin
      let og, dt =
        time ~reps (fun () -> Asp_oracle.Naive_ground.ground program)
      in
      (* the sweep doubles as a differential check *)
      if not (Asp.Ground.equal g og) then begin
        Printf.eprintf "grounder/oracle disagree on %s %d\n" name param;
        exit 2
      end;
      Some dt
    end
    else None
  in
  Printf.eprintf "  %s %3d: grounder %8.4fs%s, %d rules / %d atoms\n%!" name
    param new_s
    (match oracle_s with
    | Some t -> Printf.sprintf ", oracle %8.4fs (%.1fx)" t (t /. new_s)
    | None -> ", oracle skipped")
    (Asp.Ground.rule_count g) (Asp.Ground.atom_count g);
  check_never_slower ~what:name ~param ~ref_s:oracle_s ~new_s;
  check_probe_efficiency ~workload:name ~param stats;
  {
    workload = name;
    param;
    atoms = Asp.Ground.atom_count g;
    grules = Asp.Ground.rule_count g;
    new_s;
    oracle_s;
    stats;
  }

(* k deltas against one prepared base. The scratch reference uses the
   production grounder too — these rows isolate the value of incremental
   extension itself, not of the semi-naive rewrite (the one-shot rows
   measure that). The extend stats (including the reuse counters that
   prove instances were carried, not re-derived) are threaded into the
   emitted row. *)
let run_extend ~reps name k ~base ~deltas =
  let stats = Asp.Grounder.Stats.create () in
  let exts, ext_s =
    time ~reps (fun () ->
        let prep = Asp.Grounder.prepare ~stats base in
        List.map (Asp.Grounder.extend ~stats prep) deltas)
  in
  let scratch, scratch_s =
    time ~reps (fun () ->
        List.map (fun d -> Asp.Grounder.ground (Asp.Program.append base d)) deltas)
  in
  let canon (g : Asp.Ground.t) = List.sort_uniq compare g.Asp.Ground.rules in
  List.iter2
    (fun (e : Asp.Ground.t) (s : Asp.Ground.t) ->
      if
        not
          (Asp.Model.AtomSet.equal e.universe s.universe
          && e.shows = s.shows
          && canon e = canon s)
      then begin
        Printf.eprintf "extend/scratch disagree on %s %d\n" name k;
        exit 2
      end)
    exts scratch;
  Printf.eprintf
    "  %s %3d: extend %8.4fs, scratch %8.4fs (%.1fx), reused %d / fresh \
     %d instances\n%!"
    name k ext_s scratch_s (scratch_s /. ext_s)
    stats.Asp.Grounder.Stats.reused_rules stats.Asp.Grounder.Stats.fresh_rules;
  check_never_slower ~what:name ~param:k ~ref_s:(Some scratch_s) ~new_s:ext_s;
  check_probe_efficiency ~workload:name ~param:k stats;
  if stats.Asp.Grounder.Stats.reused_rules = 0 then begin
    (* the reuse counters are the row's whole point: a zero here means the
       extend path re-derived everything (or the counters came unwired) *)
    Printf.eprintf "ground_bench: %s %d shows no reused instances\n" name k;
    exit 2
  end;
  {
    workload = name;
    param = k;
    atoms = Asp.Ground.atom_count (List.hd exts);
    grules = Asp.Ground.rule_count (List.hd exts);
    new_s = ext_s;
    oracle_s = Some scratch_s;
    stats;
  }

let run_extend_tank ~reps ~horizon k =
  let base = Cpsrisk.Water_tank.asp_base ~horizon () in
  let scenarios =
    List.map Cpsrisk.Sweeps.delta_scenario
      (Cpsrisk.Sweeps.random_deltas ~seed:7 k)
  in
  let deltas = List.map Cpsrisk.Water_tank.asp_activation_facts scenarios in
  run_extend ~reps "extend" k ~base ~deltas

(* chain growth: each delta appends a two-edge tail to the n-node chain;
   the base's O(n²) path instances must be reused, only paths reaching
   the new nodes are fresh *)
let run_extend_tc ~reps ~n k =
  let base = Cpsrisk.Cascade.asp_chain_program n in
  let deltas =
    List.init k (fun i ->
        Asp.Parser.parse_program
          (Printf.sprintf "edge(n%d, x%d_1). edge(x%d_1, x%d_2)." (n - 1) i i i))
  in
  run_extend ~reps "tc-extend" k ~base ~deltas

let emit_json out mode entries =
  let oc = open_out out in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"bench\": \"asp-grounder-scaling\",\n";
  p "  \"mode\": %S,\n" mode;
  p "%s" (Registry.host_fields ());
  p "  \"reference\": \"Asp_oracle.Naive_ground (naive fixpoint, linear \
     signature scans); extend rows reference fresh base+delta grounding\",\n";
  p "  \"guards\": {\"never_slower_tolerance\": %.2f, \"min_reliable_s\": \
     %.3f, \"probe_budget\": {%s}},\n"
    tolerance min_reliable_s
    (String.concat ", "
       (List.map
          (fun (w, b) -> Printf.sprintf "%S: %.1f" w b)
          probe_budget));
  p "  \"entries\": [\n";
  List.iteri
    (fun i e ->
      let s = e.stats in
      p
        "    {\"workload\": %S, \"param\": %d, \"ground_atoms\": %d, \
         \"ground_rules\": %d,\n\
        \     \"grounder_s\": %.6f, \"reference_s\": %s, \"speedup\": %s,\n\
        \     \"stats\": {\"passes\": %d, \"firings\": %d, \"probes\": %d, \
         \"probes_per_touched\": %.3f, \"fresh_rules\": %d, \"reused_rules\": \
         %d}}%s\n"
        e.workload e.param e.atoms e.grules e.new_s
        (match e.oracle_s with
        | Some t -> Printf.sprintf "%.6f" t
        | None -> "null")
        (match e.oracle_s with
        | Some t -> Printf.sprintf "%.2f" (t /. e.new_s)
        | None -> "null")
        s.Asp.Grounder.Stats.passes s.Asp.Grounder.Stats.firings
        s.Asp.Grounder.Stats.probes
        (float_of_int s.Asp.Grounder.Stats.probes
        /. float_of_int
             (max 1
                (s.Asp.Grounder.Stats.firings
               + s.Asp.Grounder.Stats.reused_rules)))
        s.Asp.Grounder.Stats.fresh_rules s.Asp.Grounder.Stats.reused_rules
        (if i = List.length entries - 1 then "" else ",");
      ())
    entries;
  p "  ]\n}\n";
  close_out oc

let run ~smoke ~out =
  let reps = if smoke then 1 else 3 in
  (* tc: the oracle is O(rounds × |path| × |edge|) ≈ O(n⁴); capped where it
     still finishes inside the bench budget *)
  let tc_ns = if smoke then [ 20; 40 ] else [ 20; 40; 80; 120; 200 ] in
  let tc_oracle_cap = if smoke then 40 else 120 in
  let tank_hs = if smoke then [ 6 ] else [ 6; 12; 24; 48 ] in
  let tank_oracle_cap = if smoke then 6 else 48 in
  let extend_ks = if smoke then [ 8 ] else [ 16; 64 ] in
  let tc_extend =
    if smoke then [ (40, 8) ] else [ (80, 16); (120, 16) ]
  in
  let entries =
    List.map
      (fun n ->
        run_oneshot ~reps ~oracle_cap:tc_oracle_cap "tc" n
          (Cpsrisk.Cascade.asp_chain_program n))
      tc_ns
    @ List.map
        (fun h ->
          run_oneshot ~reps ~oracle_cap:tank_oracle_cap "tank" h
            (Cpsrisk.Water_tank.asp_program ~horizon:h
               ~scenario:(Epa.Scenario.make [])
               ()))
        tank_hs
    @ List.map (fun k -> run_extend_tank ~reps ~horizon:12 k) extend_ks
    @ List.map (fun (n, k) -> run_extend_tc ~reps ~n k) tc_extend
  in
  emit_json out (if smoke then "smoke" else "full") entries;
  Printf.eprintf "wrote %s\n" out;
  List.map
    (fun e ->
      Registry.row ~ground_atoms:e.atoms
        ~note:
          (match e.oracle_s with
          | Some t -> Printf.sprintf "%.1fx reference" (t /. e.new_s)
          | None -> "reference skipped")
        ~param:(string_of_int e.param) e.workload e.new_s)
    entries

let bench =
  {
    Registry.name = "ground";
    descr = "grounder scaling vs naive oracle; probe + never-slower guards";
    default_out = "BENCH_ground.json";
    run;
  }
