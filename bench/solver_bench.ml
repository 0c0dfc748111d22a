(* Solver scaling sweep: the production solver (Asp.Solver — cheap
   propagation tier + CDNL with preprocessing, conflict-driven nogood
   learning, backjumping, unfounded-set checks) against the retained
   pruned DFS (Asp_oracle.Dfs, the previous production path) and the
   exhaustive reference (Asp_oracle.Naive), on five workload shapes:

   - chain n:   deterministic transitive closure over an n-node chain; no
                choices, measures pure propagation (cheap tier).
   - choice k:  k free switches with one pinned atom, 2^(k-1) stable
                models; output-bound enumeration (cheap tier).
   - pinned k:  k choice atoms each pinned by a constraint, exactly one
                stable model; past k = 64 the DFS rejects (its guess cap)
                while the solver propagates to the single model.
   - loop k:    k non-tight positive cycles, each powered by a choice
                atom that a constraint forces on; one stable model. The
                DFS walks 2^k choice branches, the CDNL tier learns
                each forced atom from one unfounded-set conflict.
   - pigeon h:  h+1 pigeons into h holes, unsatisfiable; conflict
                learning prunes the symmetric search space.

   Every row records throughput (models/s, conflicts/s), the tier that
   answered, and the preprocessing counters; skipped baselines carry an
   explicit marker ("timeout" above the budget, "unsupported" when the
   oracle rejects) instead of a bare null.

   Small chain/choice/pinned rows are additionally held to a
   never-slower guard against the retained DFS (mirroring
   analysis_bench): where the DFS baseline is long enough to time
   reliably, the production solver must not be slower than
   [tolerance] x the DFS, or the bench exits 2. `dune build
   @bench-smoke` (part of `dune runtest`) enforces this in CI.

   A separate section measures guiding-path parallel enumeration
   (Engine.Par) with the learned-nogood exchange on and off. On a
   single-core host the measured walls cannot speed up, so each fan-out
   reports its critical path (longest branch wall) and
   est_parallel_s = max(critical_s, sum_s / jobs) — the ideal makespan
   on [jobs] workers — with speedup_vs_seq measured against the
   sequential wall. Paths run one at a time here, so the exchange feeds
   each branch everything earlier branches published; a multi-core host
   interleaves publications instead, changing the work but (by the
   locality discipline on path-local nogoods) never the answer.

   Emits machine-readable JSON (committed as BENCH_solver.json at the
   repo root for the full sweep; the smoke subset runs in seconds). *)

let time ~reps f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

let pinned_program k =
  let buf = Buffer.create 256 in
  let atoms = List.init k (Printf.sprintf "x%d") in
  Buffer.add_string buf
    (Printf.sprintf "{ %s }.\n" (String.concat " ; " atoms));
  List.iter
    (fun a -> Buffer.add_string buf (Printf.sprintf ":- not %s.\n" a))
    atoms;
  Asp.Parser.parse_program (Buffer.contents buf)

let loop_program k =
  let buf = Buffer.create 256 in
  let cs = List.init k (Printf.sprintf "c%d") in
  Buffer.add_string buf
    (Printf.sprintf "{ %s }.\n" (String.concat " ; " cs));
  for i = 0 to k - 1 do
    Buffer.add_string buf
      (Printf.sprintf "p%d :- q%d. q%d :- p%d. p%d :- c%d.\n:- not p%d.\n" i
         i i i i i i)
  done;
  Asp.Parser.parse_program (Buffer.contents buf)

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

(* The standard direct pigeonhole encoding (pairwise exclusion
   constraints, no auxiliary placement predicate) for the parallel
   ladder: its conflict clauses range over the at/2 atoms alone, so the
   assumption-free share filter lets most of each branch's refutation
   travel to the others *)
let pigeon_direct_program holes =
  let n = holes and pigeons = holes + 1 in
  let buf = Buffer.create 256 in
  for p = 1 to pigeons do
    Buffer.add_string buf
      (Printf.sprintf "{ %s }.\n"
         (String.concat " ; "
            (List.init n (fun h -> Printf.sprintf "at(%d,%d)" p (h + 1)))))
  done;
  for p = 1 to pigeons do
    for h1 = 1 to n do
      for h2 = h1 + 1 to n do
        Buffer.add_string buf
          (Printf.sprintf ":- at(%d,%d), at(%d,%d).\n" p h1 p h2)
      done
    done
  done;
  for h = 1 to n do
    for p1 = 1 to pigeons do
      for p2 = p1 + 1 to pigeons do
        Buffer.add_string buf
          (Printf.sprintf ":- at(%d,%d), at(%d,%d).\n" p1 h p2 h)
      done
    done
  done;
  for p = 1 to pigeons do
    Buffer.add_string buf
      (Printf.sprintf ":- %s.\n"
         (String.concat ", "
            (List.init n (fun h -> Printf.sprintf "not at(%d,%d)" p (h + 1)))))
  done;
  Asp.Parser.parse_program (Buffer.contents buf)

(* a baseline column: the oracle ran, or was skipped for a stated reason *)
type baseline = Ran of float | Skipped of string

(* noise tolerance for the never-slower guard; only enforced on rows
   whose DFS baseline takes long enough to time reliably *)
let tolerance = 1.25
let min_reliable_s = 0.010
let guarded = [ "chain"; "choice"; "pinned" ]

type entry = {
  workload : string;
  param : int;
  atoms : int;
  models : int;
  cdnl_s : float;
  dfs : baseline;
  naive : baseline;
  stats : Asp.Solver.Stats.t;
}

let run_workload ~reps ~dfs_cap ~naive_cap name param program =
  let g = Asp.Grounder.ground program in
  let (models, stats), cdnl_s =
    time ~reps (fun () -> Asp.Solver.solve_with_stats g)
  in
  let check_count what n =
    if n <> List.length models then begin
      Printf.eprintf "cdnl/%s disagree on %s %d: %d vs %d models\n" what name
        param (List.length models) n;
      exit 2
    end
  in
  let dfs =
    if param <= dfs_cap then begin
      match time ~reps (fun () -> Asp_oracle.Dfs.solve g) with
      | dfs_models, dt ->
          (* the sweep doubles as a coarse differential check *)
          check_count "dfs" (List.length dfs_models);
          Ran dt
      | exception Asp_oracle.Dfs.Unsupported _ -> Skipped "unsupported"
    end
    else Skipped "timeout"
  in
  let naive =
    if param <= naive_cap then begin
      match time ~reps (fun () -> Asp_oracle.Naive.solve ~max_guess:64 g) with
      | naive_models, dt ->
          check_count "naive" (List.length naive_models);
          Ran dt
      | exception Asp_oracle.Naive.Unsupported _ -> Skipped "unsupported"
    end
    else Skipped "timeout"
  in
  (* never-slower guard: on the shapes the cheap tier exists for, the
     production solver must not lose to the baseline it replaced *)
  (match dfs with
  | Ran t
    when List.mem name guarded && t >= min_reliable_s
         && cdnl_s > t *. tolerance ->
      Printf.eprintf "solver slower than dfs on %s %d: %.4fs vs %.4fs\n" name
        param cdnl_s t;
      exit 2
  | _ -> ());
  let pp_col label = function
    | Ran t -> Printf.sprintf ", %s %8.4fs (%.1fx)" label t (t /. cdnl_s)
    | Skipped why -> Printf.sprintf ", %s skipped (%s)" label why
  in
  Printf.eprintf "  %s %3d [%s]: cdnl %8.4fs%s%s, %d models\n%!" name param
    (if stats.Asp.Solver.Stats.cheap then "cheap" else "cdnl")
    cdnl_s (pp_col "dfs" dfs) (pp_col "naive" naive) (List.length models);
  {
    workload = name;
    param;
    atoms = Asp.Ground.atom_count g;
    models = List.length models;
    cdnl_s;
    dfs;
    naive;
    stats;
  }

type par_entry = {
  p_workload : string;
  p_param : int;
  jobs : int;
  share : bool;
  paths : int;
  par_wall_s : float;
  critical_s : float;
  sum_s : float;
  est_parallel_s : float;  (* ideal makespan: max(critical, sum / jobs) *)
  speedup_vs_seq : float;
  shared_out : int;
  shared_in : int;
}

let run_par ~reps ~seq ~seq_wall name param program jobs share =
  let g = Asp.Grounder.ground program in
  let r, wall =
    time ~reps (fun () -> Engine.Par.enumerate ~jobs ~share g)
  in
  let par_models = r.Engine.Par.models in
  if
    List.length par_models <> List.length seq
    || not (List.for_all2 Asp.Model.equal par_models seq)
  then begin
    Printf.eprintf "par %s %d jobs=%d share=%b diverged from sequential\n"
      name param jobs share;
    exit 2
  end;
  let sum = Array.fold_left ( +. ) 0.0 r.Engine.Par.path_walls in
  let critical = Array.fold_left max 0.0 r.Engine.Par.path_walls in
  let est = Float.max critical (sum /. float_of_int jobs) in
  let speedup = if est > 0.0 then seq_wall /. est else 1.0 in
  let s = r.Engine.Par.stats in
  Printf.eprintf
    "  par %s %d jobs=%d share=%b: %d paths, critical %8.4fs, est %8.4fs \
     (%.2fx vs seq), shared %d/%d\n\
     %!"
    name param jobs share r.Engine.Par.paths critical est speedup
    s.Asp.Solver.Stats.shared_out s.Asp.Solver.Stats.shared_in;
  {
    p_workload = name;
    p_param = param;
    jobs;
    share;
    paths = r.Engine.Par.paths;
    par_wall_s = wall;
    critical_s = critical;
    sum_s = sum;
    est_parallel_s = est;
    speedup_vs_seq = speedup;
    shared_out = s.Asp.Solver.Stats.shared_out;
    shared_in = s.Asp.Solver.Stats.shared_in;
  }

(* one workload's parallel ladder: sequential baseline, then every
   jobs / share combination measured against it *)
let par_ladder ~reps name param program combos =
  let g = Asp.Grounder.ground program in
  let (seq, seq_stats), seq_wall =
    time ~reps (fun () -> Asp.Solver.solve_with_stats g)
  in
  ignore seq_stats;
  List.map
    (fun (jobs, share) ->
      if jobs <= 1 then begin
        Printf.eprintf "  par %s %d jobs=1: seq wall %8.4fs\n%!" name param
          seq_wall;
        {
          p_workload = name;
          p_param = param;
          jobs = 1;
          share = false;
          paths = 1;
          par_wall_s = seq_wall;
          critical_s = seq_wall;
          sum_s = seq_wall;
          est_parallel_s = seq_wall;
          speedup_vs_seq = 1.0;
          shared_out = 0;
          shared_in = 0;
        }
      end
      else run_par ~reps ~seq ~seq_wall name param program jobs share)
    combos

let emit_json out mode entries par_entries =
  let oc = open_out out in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"bench\": \"asp-solver-scaling\",\n";
  p "  \"mode\": %S,\n" mode;
  p
    "  \"solver\": \"Asp.Solver (cheap propagation tier + CDNL: \
     preprocessed completion nogoods, 1-UIP learning, unfounded-set \
     checks)\",\n";
  p
    "  \"baselines\": [\"Asp_oracle.Dfs (retained pruned DFS)\", \
     \"Asp_oracle.Naive (exhaustive subset enumeration)\"],\n";
  p "  \"host_domains\": %d,\n" (Domain.recommended_domain_count ());
  p "  \"host\": {\"cpu\": %S, \"ocaml\": %S},\n" (Registry.cpu_model ())
    Sys.ocaml_version;
  p
    "  \"never_slower\": {\"workloads\": [%s], \"tolerance\": %.2f, \
     \"min_reliable_s\": %.3f},\n"
    (String.concat ", " (List.map (Printf.sprintf "%S") guarded))
    tolerance min_reliable_s;
  p "  \"entries\": [\n";
  List.iteri
    (fun i e ->
      let s = e.stats in
      let tm = function
        | Ran t -> Printf.sprintf "%.6f" t
        | Skipped _ -> "null"
      in
      let speedup = function
        | Ran t -> Printf.sprintf "%.2f" (t /. e.cdnl_s)
        | Skipped _ -> "null"
      in
      let skip = function
        | Ran _ -> "null"
        | Skipped why -> Printf.sprintf "%S" why
      in
      let per_s n = float_of_int n /. Float.max e.cdnl_s 1e-9 in
      p
        "    {\"workload\": %S, \"param\": %d, \"ground_atoms\": %d, \
         \"models\": %d,\n\
        \     \"cdnl_s\": %.6f, \"models_per_s\": %.1f, \
         \"conflicts_per_s\": %.1f, \"tier\": %S,\n\
        \     \"dfs_s\": %s, \"dfs_speedup\": %s, \"dfs_skipped\": %s,\n\
        \     \"naive_s\": %s, \"naive_speedup\": %s, \"naive_skipped\": \
         %s,\n\
        \     \"stats\": {\"guesses\": %d, \"firings\": %d, \"conflicts\": \
         %d, \"learned\": %d, \"restarts\": %d, \"model_blocks\": %d, \
         \"backjumped\": %d, \"unfounded_checks\": %d, \"unfounded_sets\": \
         %d, \"pre_units\": %d, \"pre_equivs\": %d}}%s\n"
        e.workload e.param e.atoms e.models e.cdnl_s (per_s e.models)
        (per_s s.Asp.Solver.Stats.conflicts)
        (if s.Asp.Solver.Stats.cheap then "cheap" else "cdnl")
        (tm e.dfs) (speedup e.dfs) (skip e.dfs) (tm e.naive) (speedup e.naive)
        (skip e.naive) s.Asp.Solver.Stats.guesses s.Asp.Solver.Stats.firings
        s.Asp.Solver.Stats.conflicts s.Asp.Solver.Stats.learned
        s.Asp.Solver.Stats.restarts s.Asp.Solver.Stats.model_blocks
        s.Asp.Solver.Stats.backjumped s.Asp.Solver.Stats.unfounded_checks
        s.Asp.Solver.Stats.unfounded_sets s.Asp.Solver.Stats.pre_units
        s.Asp.Solver.Stats.pre_equivs
        (if i = List.length entries - 1 then "" else ",");
      ())
    entries;
  p "  ],\n";
  p "  \"parallel\": {\n";
  p
    "    \"note\": \"guiding-path enumeration with learned-nogood \
     exchange; on a single-core host the measured wall cannot improve, \
     so est_parallel_s = max(critical_s, sum_s / jobs) is the ideal \
     makespan on jobs workers and speedup_vs_seq compares it to the \
     sequential wall\",\n";
  p "    \"entries\": [\n";
  List.iteri
    (fun i e ->
      p
        "      {\"workload\": %S, \"param\": %d, \"jobs\": %d, \"share\": \
         %b, \"paths\": %d,\n\
        \       \"wall_s\": %.6f, \"critical_s\": %.6f, \"sum_s\": %.6f, \
         \"est_parallel_s\": %.6f,\n\
        \       \"speedup_vs_seq\": %.2f, \"ideal_speedup\": %.2f, \
         \"shared_out\": %d, \"shared_in\": %d}%s\n"
        e.p_workload e.p_param e.jobs e.share e.paths e.par_wall_s
        e.critical_s e.sum_s e.est_parallel_s e.speedup_vs_seq
        (if e.critical_s > 0.0 then e.sum_s /. e.critical_s else 1.0)
        e.shared_out e.shared_in
        (if i = List.length par_entries - 1 then "" else ","))
    par_entries;
  p "    ]\n  }\n}\n";
  close_out oc

let run ~smoke ~out =
  let reps = if smoke then 1 else 3 in
  (* chain: pure propagation, no guessing *)
  let chain_ns = if smoke then [ 20; 40 ] else [ 20; 40; 80; 160 ] in
  (* choice: 2^(k-1) models, output-bound enumeration *)
  let choice_ks = if smoke then [ 6; 8 ] else [ 6; 10; 12; 14 ] in
  let choice_naive_cap = if smoke then 8 else 14 in
  (* pinned: one model; the reference is 2^k, the DFS closes wrong
     branches immediately but rejects past its 64-atom cap, the
     production solver propagates to the model at any size *)
  let pinned_ks =
    if smoke then [ 8; 28; 96 ]
    else [ 8; 12; 16; 18; 24; 28; 32; 64; 96; 128 ]
  in
  let pinned_naive_cap = if smoke then 12 else 18 in
  (* loop: non-tight cycles; the DFS walks 2^k branches, the reference
     2^2k (the negated loop atoms join its guess space) *)
  let loop_ks = if smoke then [ 8; 12 ] else [ 8; 12; 14; 16; 32; 64 ] in
  let loop_dfs_cap = 16 in
  let loop_naive_cap = if smoke then 6 else 8 in
  (* pigeon: h+1 pigeons, h holes, unsatisfiable *)
  let pigeon_hs = if smoke then [ 4 ] else [ 4; 5; 6; 7 ] in
  let pigeon_dfs_cap = if smoke then 4 else 6 in
  (* the reference walks 2^(pigeons*holes) candidates: ~25s at h = 4,
     so the smoke run skips it *)
  let pigeon_naive_cap = if smoke then 3 else 4 in
  let entries =
    List.map
      (fun n ->
        run_workload ~reps ~dfs_cap:max_int ~naive_cap:max_int "chain" n
          (Cpsrisk.Cascade.asp_chain_program n))
      chain_ns
    @ List.map
        (fun k ->
          run_workload ~reps ~dfs_cap:max_int ~naive_cap:choice_naive_cap
            "choice" k
            (Cpsrisk.Cascade.asp_choice_program k))
        choice_ks
    @ List.map
        (fun k ->
          run_workload ~reps ~dfs_cap:max_int ~naive_cap:pinned_naive_cap
            "pinned" k (pinned_program k))
        pinned_ks
    @ List.map
        (fun k ->
          run_workload ~reps ~dfs_cap:loop_dfs_cap ~naive_cap:loop_naive_cap
            "loop" k (loop_program k))
        loop_ks
    @ List.map
        (fun h ->
          run_workload ~reps ~dfs_cap:pigeon_dfs_cap
            ~naive_cap:pigeon_naive_cap "pigeon" h (pigeon_program h))
        pigeon_hs
  in
  (* parallel enumeration: the largest smoke-safe choice workload, and
     the pigeonhole refutation where the exchange pays (shared conflict
     clauses prune the symmetric branches other paths would re-learn) *)
  let par_choice_k = if smoke then 8 else 12 in
  let par_pigeon_h = if smoke then 5 else 7 in
  let ladder = [ (1, false); (2, true); (2, false); (4, true); (4, false) ] in
  let par_entries =
    par_ladder ~reps "choice" par_choice_k
      (Cpsrisk.Cascade.asp_choice_program par_choice_k)
      ladder
    @ par_ladder ~reps "pigeon" par_pigeon_h
        (pigeon_direct_program par_pigeon_h)
        ladder
  in
  emit_json out (if smoke then "smoke" else "full") entries par_entries;
  Printf.eprintf "wrote %s\n" out;
  List.map
    (fun e ->
      Registry.row ~ground_atoms:e.atoms ~models:e.models
        ~note:
          (Printf.sprintf "%s%s"
             (if e.stats.Asp.Solver.Stats.cheap then "cheap tier" else "cdnl")
             (match e.dfs with
             | Ran t -> Printf.sprintf ", %.1fx dfs" (t /. e.cdnl_s)
             | Skipped _ -> ""))
        ~param:(string_of_int e.param) e.workload e.cdnl_s)
    entries
  @ List.map
      (fun e ->
        Registry.row
          ~note:
            (Printf.sprintf "%d paths, est %.2fx seq, shared %d/%d" e.paths
               e.speedup_vs_seq e.shared_in e.shared_out)
          ~param:
            (Printf.sprintf "%d j%d %s" e.p_param e.jobs
               (if e.share then "share" else "noshare"))
          ("par-" ^ e.p_workload) e.est_parallel_s)
      par_entries

let bench =
  {
    Registry.name = "solver";
    descr = "CDNL solver vs DFS and naive references; parallel ladder";
    default_out = "BENCH_solver.json";
    run;
  }
