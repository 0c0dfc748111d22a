(* Tests for mitigation selection and cost-benefit optimization
   (lib/mitigation), cross-checked against brute force. *)

let check = Alcotest.check
let fail = Alcotest.fail

let m1 = Mitigation.Action.make ~id:"M1" ~name:"User Training" ~cost:2 ~blocks:[ "F4" ]
let m2 = Mitigation.Action.make ~id:"M2" ~name:"Endpoint Security" ~cost:5 ~blocks:[ "F4" ]
let m3 = Mitigation.Action.make ~id:"M3" ~name:"Redundant Valve" ~cost:8 ~blocks:[ "F2" ]
let m4 = Mitigation.Action.make ~id:"M4" ~name:"Alert Channel" ~cost:3 ~blocks:[ "F3" ]

let actions = [ m1; m2; m3; m4 ]

(* Residual loss model: start at 100; each unblocked hazard costs. F4 is
   blocked by M1 or M2; F2 by M3; F3 by M4. *)
let residual ~active =
  let blocked f =
    List.exists
      (fun id ->
        match Mitigation.Action.find id actions with
        | Some a -> List.mem f a.Mitigation.Action.blocks
        | None -> false)
      active
  in
  (if blocked "F4" then 0 else 60)
  + (if blocked "F2" then 0 else 30)
  + if blocked "F3" then 0 else 10

let problem = { Mitigation.Optimizer.actions; residual }

(* -------------------------------------------------------------------- *)
(* Action                                                                *)
(* -------------------------------------------------------------------- *)

let test_action_basics () =
  check Alcotest.int "total cost" 7
    (Mitigation.Action.total_cost actions [ "M1"; "M2" ]);
  check (Alcotest.list Alcotest.string) "blocks relation" [ "F4" ]
    (Mitigation.Action.blocks_relation actions "M1");
  check (Alcotest.list Alcotest.string) "unknown id" []
    (Mitigation.Action.blocks_relation actions "MX");
  match Mitigation.Action.make ~id:"X" ~name:"X" ~cost:(-1) ~blocks:[] with
  | exception Invalid_argument _ -> ()
  | _ -> fail "negative cost accepted"

(* -------------------------------------------------------------------- *)
(* Optimizer                                                             *)
(* -------------------------------------------------------------------- *)

let test_optimal_unbounded () =
  let s = Mitigation.Optimizer.optimal problem in
  (* blocking everything costs M1(2)+M3(8)+M4(3)=13 (M1 cheaper than M2) *)
  check (Alcotest.list Alcotest.string) "selection" [ "M1"; "M3"; "M4" ]
    s.Mitigation.Optimizer.selected;
  check Alcotest.int "cost" 13 s.Mitigation.Optimizer.cost;
  check Alcotest.int "residual" 0 s.Mitigation.Optimizer.residual

let test_optimal_budgeted () =
  (* budget 5: M1 (block F4, -60) + M4 (block F3, -10) = cost 5 *)
  let s = Mitigation.Optimizer.optimal ~budget:5 problem in
  check (Alcotest.list Alcotest.string) "selection" [ "M1"; "M4" ]
    s.Mitigation.Optimizer.selected;
  check Alcotest.int "residual" 30 s.Mitigation.Optimizer.residual;
  (* budget 2: only M1 fits *)
  let s = Mitigation.Optimizer.optimal ~budget:2 problem in
  check (Alcotest.list Alcotest.string) "tight budget" [ "M1" ]
    s.Mitigation.Optimizer.selected

let test_optimal_zero_budget () =
  let s = Mitigation.Optimizer.optimal ~budget:0 problem in
  check (Alcotest.list Alcotest.string) "nothing affordable" []
    s.Mitigation.Optimizer.selected;
  check Alcotest.int "full residual" 100 s.Mitigation.Optimizer.residual

let test_benefit () =
  let s = Mitigation.Optimizer.optimal ~budget:5 problem in
  check Alcotest.int "benefit" 70 (Mitigation.Optimizer.benefit problem s)

let test_pareto_front () =
  let front = Mitigation.Optimizer.pareto problem in
  (* front must be sorted by cost with strictly decreasing residual *)
  let rec strictly_improving = function
    | a :: (b :: _ as rest) ->
        a.Mitigation.Optimizer.cost < b.Mitigation.Optimizer.cost
        && a.Mitigation.Optimizer.residual > b.Mitigation.Optimizer.residual
        && strictly_improving rest
    | [ _ ] | [] -> true
  in
  check Alcotest.bool "front shape" true (strictly_improving front);
  (* endpoints: empty selection and the full-protection optimum *)
  check Alcotest.int "starts at zero cost" 0
    (List.hd front).Mitigation.Optimizer.cost;
  check Alcotest.int "ends at zero residual" 0
    (List.nth front (List.length front - 1)).Mitigation.Optimizer.residual

let test_budget_sweep_crossovers () =
  let sweep =
    Mitigation.Optimizer.budget_sweep problem
      ~budgets:[ 0; 1; 2; 5; 10; 13; 20 ]
  in
  let residual_at b = (List.assoc b sweep).Mitigation.Optimizer.residual in
  check Alcotest.int "b=0" 100 (residual_at 0);
  check Alcotest.int "b=1 still nothing" 100 (residual_at 1);
  check Alcotest.int "b=2 unlocks M1" 40 (residual_at 2);
  check Alcotest.int "b=5 adds M4" 30 (residual_at 5);
  check Alcotest.int "b=10 M1+M3" 10 (residual_at 10);
  check Alcotest.int "b=13 everything" 0 (residual_at 13);
  check Alcotest.int "b=20 no better than 13" 0 (residual_at 20);
  (* monotone decreasing residual in budget *)
  let rec monotone = function
    | (_, a) :: ((_, b) :: _ as rest) ->
        a.Mitigation.Optimizer.residual >= b.Mitigation.Optimizer.residual
        && monotone rest
    | [ _ ] | [] -> true
  in
  check Alcotest.bool "monotone" true (monotone sweep)

let test_multi_phase () =
  (* §IV.D: "if a company has a limited budget let's first deal with the
     most potential and severe risk and later focus on the other ones" *)
  let phases = Mitigation.Optimizer.multi_phase problem ~phase_budgets:[ 2; 3; 8 ] in
  match phases with
  | [ p1; p2; p3 ] ->
      check (Alcotest.list Alcotest.string) "phase 1: biggest risk first"
        [ "M1" ] p1.Mitigation.Optimizer.selected;
      check (Alcotest.list Alcotest.string) "phase 2 adds alert channel"
        [ "M1"; "M4" ] p2.Mitigation.Optimizer.selected;
      check (Alcotest.list Alcotest.string) "phase 3 completes"
        [ "M1"; "M3"; "M4" ] p3.Mitigation.Optimizer.selected;
      check Alcotest.int "final residual" 0 p3.Mitigation.Optimizer.residual
  | _ -> fail "expected three phases"

let test_multi_phase_never_worse () =
  let phases = Mitigation.Optimizer.multi_phase problem ~phase_budgets:[ 1; 1; 1 ] in
  let rec non_increasing = function
    | a :: (b :: _ as rest) ->
        a.Mitigation.Optimizer.residual >= b.Mitigation.Optimizer.residual
        && non_increasing rest
    | [ _ ] | [] -> true
  in
  check Alcotest.bool "residual never grows" true (non_increasing phases)

(* brute-force cross-check on random problems *)
let prop_optimal_matches_bruteforce =
  let gen =
    let open QCheck.Gen in
    let action i =
      map2
        (fun cost impact -> (Printf.sprintf "A%d" i, cost, impact))
        (int_range 1 9) (int_range 0 50)
    in
    map2
      (fun specs budget -> (specs, budget))
      (flatten_l (List.init 5 action))
      (int_range 0 25)
  in
  QCheck.Test.make ~name:"optimizer: exact vs brute force" ~count:100
    (QCheck.make gen)
    (fun (specs, budget) ->
      let actions =
        List.map
          (fun (id, cost, _) ->
            Mitigation.Action.make ~id ~name:id ~cost ~blocks:[ id ])
          specs
      in
      let residual ~active =
        List.fold_left
          (fun acc (id, _, impact) ->
            if List.mem id active then acc else acc + impact)
          0 specs
      in
      let p = { Mitigation.Optimizer.actions; residual } in
      let s = Mitigation.Optimizer.optimal ~budget p in
      (* brute force over all 32 subsets *)
      let rec subsets = function
        | [] -> [ [] ]
        | x :: rest ->
            let sub = subsets rest in
            sub @ List.map (fun s -> x :: s) sub
      in
      let best =
        subsets (List.map (fun (id, _, _) -> id) specs)
        |> List.filter (fun ids -> Mitigation.Action.total_cost actions ids <= budget)
        |> List.map (fun ids -> residual ~active:ids)
        |> List.fold_left min max_int
      in
      s.Mitigation.Optimizer.residual = best
      && s.Mitigation.Optimizer.cost <= budget)

(* 20-action catalog: the sequential searches stream through
   fold_subsets_within_budget in O(actions) memory — this used to
   materialize all 2^20 subsets before scoring. *)
let test_optimal_twenty_actions () =
  let n = 20 in
  let actions =
    List.init n (fun i ->
        Mitigation.Action.make
          ~id:(Printf.sprintf "A%02d" i)
          ~name:(Printf.sprintf "A%02d" i)
          ~cost:(1 + (i mod 7))
          ~blocks:[])
  in
  (* each action i removes 2i+1 loss units: optimum = take everything *)
  let residual ~active =
    let covered =
      List.fold_left
        (fun acc id -> acc + (2 * int_of_string (String.sub id 1 2)) + 1)
        0 active
    in
    (n * n) - covered
  in
  let p = { Mitigation.Optimizer.actions; residual } in
  let s = Mitigation.Optimizer.optimal p in
  check Alcotest.int "residual at full selection" 0
    s.Mitigation.Optimizer.residual;
  check Alcotest.int "all selected" n
    (List.length s.Mitigation.Optimizer.selected);
  (* tight budget prunes almost the whole tree *)
  let s2 = Mitigation.Optimizer.optimal ~budget:2 p in
  check Alcotest.bool "budget respected" true
    (s2.Mitigation.Optimizer.cost <= 2)

(* -------------------------------------------------------------------- *)
(* Engine-backed frontier vs the scratch oracle                          *)
(* -------------------------------------------------------------------- *)

let sol = Alcotest.testable Mitigation.Optimizer.pp_solution (fun a b ->
    a.Mitigation.Optimizer.selected = b.Mitigation.Optimizer.selected
    && a.Mitigation.Optimizer.cost = b.Mitigation.Optimizer.cost
    && a.Mitigation.Optimizer.residual = b.Mitigation.Optimizer.residual)

(* a small frontier (8 actions) keeps the cold-ground oracle affordable *)
let sub_frontier ?cache ?(measure = Cpsrisk.Hierarchy.frontier_measure) () =
  let actions =
    List.filteri (fun i _ -> i < 8) Cpsrisk.Hierarchy.frontier_actions
  in
  Mitigation.Frontier.make ?cache ~actions
    ~delta:Cpsrisk.Hierarchy.frontier_delta ~measure
    (Engine.Job.prepare (Cpsrisk.Hierarchy.frontier_spec ()))

let test_frontier_optimal_matches_scratch () =
  let f = sub_frontier () in
  let oracle = Mitigation.Frontier.scratch_problem f in
  List.iter
    (fun budget ->
      let got, _ = Mitigation.Frontier.optimal ?budget f in
      let want = Mitigation.Optimizer.optimal ?budget oracle in
      check sol
        (Printf.sprintf "budget %s"
           (match budget with None -> "-" | Some b -> string_of_int b))
        want got)
    [ None; Some 0; Some 5; Some 11 ]

let test_frontier_pareto_matches_scratch () =
  let f = sub_frontier () in
  let got, report = Mitigation.Frontier.pareto f in
  let want = Mitigation.Optimizer.pareto (Mitigation.Frontier.scratch_problem f) in
  check (Alcotest.list sol) "identical front" want got;
  (* the walk reaches 231 of the 256 subsets' leaves and bounds: a
     subtree goes once a front member strictly dominates its bound *)
  check Alcotest.int "evaluations" 231
    report.Mitigation.Frontier.r_evals;
  check Alcotest.int "fresh evaluations" 110 report.Mitigation.Frontier.r_fresh;
  check Alcotest.int "subtrees cut" 89 report.Mitigation.Frontier.r_pruned

let test_frontier_budget_sweep_matches_scratch () =
  let f = sub_frontier () in
  let budgets = [ 3; 9; 15; 18; 21; 24 ] in
  let got, report = Mitigation.Frontier.budget_sweep f ~budgets in
  let want =
    Mitigation.Optimizer.budget_sweep
      (Mitigation.Frontier.scratch_problem f)
      ~budgets
  in
  List.iter2
    (fun (b, w) (b', g) ->
      check Alcotest.int "budget order" b b';
      check sol (Printf.sprintf "optimum at budget %d" b) w g)
    want got;
  (* ascending budgets re-visit the smaller budgets' bound and leaf
     sets: the shared cache must absorb well over half of the
     evaluations *)
  check Alcotest.bool "sweep mostly deduped" true
    (report.Mitigation.Frontier.r_hits * 2 > report.Mitigation.Frontier.r_evals);
  check Alcotest.int "evaluations" 564 report.Mitigation.Frontier.r_evals;
  check Alcotest.int "fresh evaluations" 95 report.Mitigation.Frontier.r_fresh;
  check Alcotest.int "subtrees cut" 185 report.Mitigation.Frontier.r_pruned

let test_frontier_full_catalog_consistent () =
  (* the full 12-action catalog, warm path only: the branch-and-bound
     walks must agree with the exhaustive searches over the same cached
     problem *)
  let f = Cpsrisk.Hierarchy.frontier () in
  let p = Mitigation.Frontier.problem f in
  let got, report = Mitigation.Frontier.optimal ~budget:9 f in
  check sol "b&b equals exhaustive" (Mitigation.Optimizer.optimal ~budget:9 p) got;
  check Alcotest.bool "b&b actually pruned" true
    (report.Mitigation.Frontier.r_pruned > 0);
  let front, _ = Mitigation.Frontier.pareto f in
  check (Alcotest.list sol) "pareto equals sequential"
    (Mitigation.Optimizer.pareto p) front

(* The b&b licence of every search: activating one more action never
   increases the residual, checked over the whole lattice of both
   shipped catalogs from one table of the 2^n warm evaluations. *)
let test_frontier_monotone_residual () =
  let lattice what f =
    let actions = Array.of_list (Mitigation.Frontier.actions f) in
    let n = Array.length actions in
    let residual =
      Array.init (1 lsl n) (fun mask ->
          let ids =
            List.filteri
              (fun i _ -> mask land (1 lsl i) <> 0)
              (Array.to_list actions)
          in
          (fst
             (Mitigation.Frontier.evaluate f
                (List.map (fun (a : Mitigation.Action.t) -> a.Mitigation.Action.id) ids)))
            .Mitigation.Optimizer.residual)
    in
    let violations = ref 0 in
    Array.iteri
      (fun mask r ->
        for i = 0 to n - 1 do
          let bit = 1 lsl i in
          if mask land bit = 0 && residual.(mask lor bit) > r then incr violations
        done)
      residual;
    check Alcotest.int
      (Printf.sprintf "%s: residual (S + a) <= residual S over 2^%d sets" what n)
      0 !violations
  in
  lattice "hierarchy" (Cpsrisk.Hierarchy.frontier ());
  let wt = Cpsrisk.Backend.target Cpsrisk.Backend.Water_tank in
  lattice "water tank"
    ((Option.get wt.Cpsrisk.Backend.frontier)
       (Engine.Job.prepare wt.Cpsrisk.Backend.spec))

(* Seeded cost vectors over the 8-action sub-catalog, with zero costs
   and many ties, where strict dominance and the (cost, residual)
   representative rule meet: the walk must keep the exhaustive
   searches' front, optima, representatives and order, for budgets that
   are negative, zero, unsorted and repeated. The residual depends on
   the active set only, so one memoised scratch table serves every
   vector, and one cache serves every frontier. *)
let test_frontier_cut_differential () =
  let base = sub_frontier () in
  let scratch = Mitigation.Frontier.scratch_problem base in
  let table = Hashtbl.create 256 in
  let residual ~active =
    let key = List.sort_uniq String.compare active in
    match Hashtbl.find_opt table key with
    | Some r -> r
    | None ->
        let r = scratch.Mitigation.Optimizer.residual ~active:key in
        Hashtbl.replace table key r;
        r
  in
  let cache = Engine.Cache.create () in
  let prepared = Engine.Job.prepare (Cpsrisk.Hierarchy.frontier_spec ()) in
  let budgets = [ 4; -3; 0; 4; 9; 1; 0; 30 ] in
  let balanced what (r : Mitigation.Frontier.report) =
    check Alcotest.int
      (what ^ ": hits + disk hits + fresh = evals")
      r.Mitigation.Frontier.r_evals
      (r.Mitigation.Frontier.r_hits + r.Mitigation.Frontier.r_disk_hits
     + r.Mitigation.Frontier.r_fresh)
  in
  for seed = 1 to 40 do
    let st = Random.State.make [| seed |] in
    let actions =
      List.map
        (fun (a : Mitigation.Action.t) ->
          Mitigation.Action.make ~id:a.Mitigation.Action.id
            ~name:a.Mitigation.Action.name
            ~cost:(max 0 (Random.State.int st 5 - 1))
            ~blocks:a.Mitigation.Action.blocks)
        (Mitigation.Frontier.actions base)
    in
    let f =
      Mitigation.Frontier.make ~cache ~actions
        ~delta:Cpsrisk.Hierarchy.frontier_delta
        ~measure:Cpsrisk.Hierarchy.frontier_measure prepared
    in
    let oracle = { Mitigation.Optimizer.actions; residual } in
    let what = Printf.sprintf "seed %d" seed in
    let front, r = Mitigation.Frontier.pareto f in
    check (Alcotest.list sol) (what ^ ": pareto") (Mitigation.Optimizer.pareto oracle)
      front;
    balanced (what ^ " pareto") r;
    let curve, r = Mitigation.Frontier.budget_sweep f ~budgets in
    check
      (Alcotest.list (Alcotest.pair Alcotest.int sol))
      (what ^ ": budget sweep")
      (Mitigation.Optimizer.budget_sweep oracle ~budgets)
      curve;
    balanced (what ^ " budget_sweep") r
  done

let test_frontier_counts_own_evals () =
  (* [measure] also looks up an unrelated key on the frontier's cache,
     standing in for a daemon sweep that shares it: the report must
     count the search's own evaluations, not the cache's lifetime
     counters *)
  let cache = Engine.Cache.create () in
  let unrelated = Engine.Fingerprint.ints [ 42 ] in
  let measure models =
    ignore
      (Engine.Cache.find_or_compute_src cache unrelated (fun () ->
           ([], Asp.Solver.Stats.create (), Asp.Grounder.Stats.create ())));
    Cpsrisk.Hierarchy.frontier_measure models
  in
  let f = sub_frontier ~cache ~measure () in
  let balanced what (r : Mitigation.Frontier.report) =
    check Alcotest.int
      (what ^ ": hits + disk hits + fresh = evals")
      r.Mitigation.Frontier.r_evals
      (r.Mitigation.Frontier.r_hits + r.Mitigation.Frontier.r_disk_hits
     + r.Mitigation.Frontier.r_fresh)
  in
  let _, r = Mitigation.Frontier.optimal ~budget:11 f in
  balanced "optimal" r;
  let _, r = Mitigation.Frontier.pareto f in
  balanced "pareto" r;
  let _, r = Mitigation.Frontier.budget_sweep f ~budgets:[ 3; 9; 15 ] in
  balanced "budget_sweep" r

let qcheck t = QCheck_alcotest.to_alcotest t

let suites =
  [
    ( "mitigation.action",
      [ Alcotest.test_case "basics" `Quick test_action_basics ] );
    ( "mitigation.optimizer",
      [
        Alcotest.test_case "optimal unbounded" `Quick test_optimal_unbounded;
        Alcotest.test_case "optimal budgeted" `Quick test_optimal_budgeted;
        Alcotest.test_case "zero budget" `Quick test_optimal_zero_budget;
        Alcotest.test_case "benefit" `Quick test_benefit;
        Alcotest.test_case "pareto front" `Quick test_pareto_front;
        Alcotest.test_case "budget sweep crossovers" `Quick
          test_budget_sweep_crossovers;
        Alcotest.test_case "multi-phase plan" `Quick test_multi_phase;
        Alcotest.test_case "multi-phase monotone" `Quick
          test_multi_phase_never_worse;
        Alcotest.test_case "twenty-action catalog" `Quick
          test_optimal_twenty_actions;
        qcheck prop_optimal_matches_bruteforce;
      ] );
    ( "mitigation.frontier",
      [
        Alcotest.test_case "optimal matches scratch" `Quick
          test_frontier_optimal_matches_scratch;
        Alcotest.test_case "pareto matches scratch" `Quick
          test_frontier_pareto_matches_scratch;
        Alcotest.test_case "budget sweep matches scratch" `Quick
          test_frontier_budget_sweep_matches_scratch;
        Alcotest.test_case "full catalog consistent" `Quick
          test_frontier_full_catalog_consistent;
        Alcotest.test_case "monotone residual" `Quick
          test_frontier_monotone_residual;
        Alcotest.test_case "reports count their own evaluations" `Quick
          test_frontier_counts_own_evals;
        Alcotest.test_case "cut differential over seeded costs" `Quick
          test_frontier_cut_differential;
      ] );
  ]
