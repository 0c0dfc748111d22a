(* Tests for hierarchical refinement (lib/cegar). *)

let check = Alcotest.check
let fail = Alcotest.fail

let el id name kind = Archimate.Element.make ~id ~name ~kind ()

(* -------------------------------------------------------------------- *)
(* Levels (Fig. 3)                                                       *)
(* -------------------------------------------------------------------- *)

let test_levels_focus_mapping () =
  let open Cegar.Levels in
  check Alcotest.string "aspect -> topology" "topology-based propagation"
    (focus_to_string (focus_for A_system T_aspect));
  check Alcotest.string "fault -> detailed" "detailed propagation analysis"
    (focus_to_string (focus_for A_subsystem T_fault));
  check Alcotest.string "mitigation -> plan" "mitigation plan"
    (focus_to_string (focus_for A_component T_mitigation))

let test_levels_refinement_order () =
  let open Cegar.Levels in
  check Alcotest.bool "system -> component" true
    (refines ~coarse:A_system ~fine:A_component);
  check Alcotest.bool "not reflexive" false
    (refines ~coarse:A_subsystem ~fine:A_subsystem);
  check Alcotest.bool "not backwards" false
    (refines ~coarse:A_component ~fine:A_system)

let test_levels_matrix_render () =
  let s = Cegar.Levels.render_matrix () in
  check Alcotest.bool "3 asset rows + header" true
    (List.length (String.split_on_char '\n' s) >= 5)

(* -------------------------------------------------------------------- *)
(* Asset refinement (Fig. 4)                                             *)
(* -------------------------------------------------------------------- *)

let base_model () =
  let open Archimate in
  Model.empty ~name:"case study"
  |> Model.add_element (el "ews" "Engineering Workstation" Element.Node)
  |> Model.add_element (el "ctrl" "Water Tank Controller" Element.Application_component)
  |> Model.add_relationship
       (Relationship.make ~id:"r1" ~source:"ews" ~target:"ctrl"
          ~kind:Relationship.Serving ())

(* the paper's refinement: E-mail Client -> Browser -> Infected Computer *)
let ews_refinement =
  {
    Cegar.Refine.target = "ews";
    parts =
      [
        el "email" "E-mail Client" Archimate.Element.Application_component;
        el "browser" "Browser" Archimate.Element.Application_component;
        el "infected" "Infected Computer" Archimate.Element.Node;
      ];
    internal_flows = [ ("email", "browser"); ("browser", "infected") ];
  }

let test_refine_apply () =
  let m = Cegar.Refine.apply (base_model ()) ews_refinement in
  check Alcotest.int "elements grew" 5 (Archimate.Model.element_count m);
  check (Alcotest.list Alcotest.string) "parts attached"
    [ "email"; "browser"; "infected" ]
    (Cegar.Refine.parts_of m "ews");
  check Alcotest.bool "still valid" true (Archimate.Validate.is_valid m)

let test_refine_attack_path () =
  let m = Cegar.Refine.apply (base_model ()) ews_refinement in
  match Cegar.Refine.attack_path m ~entry:"email" ~target:"infected" with
  | Some path ->
      check (Alcotest.list Alcotest.string) "spam-link chain"
        [ "email"; "browser"; "infected" ] path
  | None -> fail "expected an attack path"

let test_refine_attack_path_absent () =
  let m = Cegar.Refine.apply (base_model ()) ews_refinement in
  check Alcotest.bool "no reverse path" true
    (Cegar.Refine.attack_path m ~entry:"infected" ~target:"email" = None)

let test_refine_flatten_roundtrip () =
  let m0 = base_model () in
  let m1 = Cegar.Refine.apply m0 ews_refinement in
  let m2 = Cegar.Refine.flatten m1 "ews" in
  check Alcotest.int "back to coarse" (Archimate.Model.element_count m0)
    (Archimate.Model.element_count m2);
  check (Alcotest.list Alcotest.string) "no parts left" []
    (Cegar.Refine.parts_of m2 "ews")

let test_refine_errors () =
  (match Cegar.Refine.apply (base_model ()) { ews_refinement with Cegar.Refine.target = "ghost" } with
  | exception Invalid_argument _ -> ()
  | _ -> fail "unknown target accepted");
  let clash =
    { ews_refinement with
      Cegar.Refine.parts = [ el "ctrl" "Duplicate" Archimate.Element.Node ] }
  in
  match Cegar.Refine.apply (base_model ()) clash with
  | exception Invalid_argument _ -> ()
  | _ -> fail "id collision accepted"

let test_refine_flatten_nested () =
  (* refine, then refine a part; flattening the root must remove the
     transitive decomposition, not just the direct parts *)
  let m1 = Cegar.Refine.apply (base_model ()) ews_refinement in
  let nested =
    {
      Cegar.Refine.target = "browser";
      parts = [ el "js" "JS Engine" Archimate.Element.Application_component ];
      internal_flows = [];
    }
  in
  let m2 = Cegar.Refine.apply m1 nested in
  check (Alcotest.list Alcotest.string) "nested part attached" [ "js" ]
    (Cegar.Refine.parts_of m2 "browser");
  let m3 = Cegar.Refine.flatten m2 "ews" in
  check Alcotest.int "back to coarse"
    (Archimate.Model.element_count (base_model ()))
    (Archimate.Model.element_count m3);
  check (Alcotest.list Alcotest.string) "no parts left" []
    (Cegar.Refine.parts_of m3 "ews")

(* -------------------------------------------------------------------- *)
(* Incremental CEGAR (Cegar.Inc) on the hierarchical case study          *)
(* -------------------------------------------------------------------- *)

let labels = List.map Engine.Delta.label

let check_outcome_equal tag (a : Cegar.Inc.outcome) (b : Cegar.Inc.outcome) =
  check (Alcotest.list Alcotest.string)
    (tag ^ ": confirmed")
    (labels a.Cegar.Inc.confirmed)
    (labels b.Cegar.Inc.confirmed);
  check Alcotest.int
    (tag ^ ": rounds")
    (List.length a.Cegar.Inc.rounds)
    (List.length b.Cegar.Inc.rounds);
  List.iter2
    (fun (ra : Cegar.Inc.round) (rb : Cegar.Inc.round) ->
      check Alcotest.string (tag ^ ": label") ra.Cegar.Inc.r_label
        rb.Cegar.Inc.r_label;
      check (Alcotest.list Alcotest.string)
        (tag ^ ": survivors")
        (labels ra.Cegar.Inc.r_survivors)
        (labels rb.Cegar.Inc.r_survivors);
      check (Alcotest.list Alcotest.string)
        (tag ^ ": eliminated")
        (labels ra.Cegar.Inc.r_eliminated)
        (labels rb.Cegar.Inc.r_eliminated))
    a.Cegar.Inc.rounds b.Cegar.Inc.rounds

(* The choice encoding of the hierarchy's routing, "the attacker picks a
   route": one hop at a time out of every reached node, and a candidate
   survives when some pick reaches the plant. It asks the stratified
   spec's question with many models per candidate and answers it by
   CDNL, so it is the differential oracle of that spec and the program
   for the cases that need several routes (model limits, [hop] atoms).
   Built from [Cpsrisk.Hierarchy.refine_spec] by swapping its one
   routing step [reach(T) :- reach(S), flow(S, T), ...] for the
   choice; everything else (topology, levels, candidates) is shared. *)
let route_choice =
  Asp.Program.rules
    (Asp.Parser.parse_program
       "{ hop(S, T) : flow(S, T), not blocked(S, T) } 1 :- reach(S).\n\
        reach(T) :- hop(S, T).\n")

let is_route_step = function
  | Asp.Rule.Rule
      { head = Asp.Rule.Head { Asp.Atom.pred = "reach"; _ }; body; _ } ->
      List.exists
        (function
          | Asp.Lit.Pos { Asp.Atom.pred = "flow"; _ } -> true | _ -> false)
        body
  | _ -> false

let choice_spec ?levels ?entries () =
  let spec = Cpsrisk.Hierarchy.refine_spec ?levels ?entries () in
  let rules = Asp.Program.rules spec.Cegar.Inc.base in
  if List.length (List.filter is_route_step rules) <> 1 then
    fail "choice_spec: the hierarchy spec has no single routing step";
  {
    spec with
    Cegar.Inc.base =
      Asp.Program.of_rules
        (List.concat_map
           (fun r -> if is_route_step r then route_choice else [ r ])
           rules);
  }

(* The arguments of [program]'s [pred] facts, printed. *)
let facts pred program =
  List.filter_map
    (function
      | Asp.Rule.Rule { head = Asp.Rule.Head a; body = []; _ }
        when a.Asp.Atom.pred = pred ->
          Some (List.map Asp.Term.to_string a.Asp.Atom.args)
      | _ -> None)
    (Asp.Program.rules program)

(* The hazard by graph search: a candidate survives a round when a
   breadth-first walk from its entry node over the spec's [flow] facts,
   minus the [blocked] facts of the levels so far, meets a [critical]
   node. Candidate [Ei] enters at [ei], as [refine_spec] documents. *)
let bfs_rounds (spec : Cegar.Inc.spec) =
  let flow = facts "flow" spec.Cegar.Inc.base in
  let critical = List.concat (facts "critical" spec.Cegar.Inc.base) in
  let reaches blocked entry =
    let rec walk seen = function
      | [] -> false
      | n :: _ when List.mem n critical -> true
      | n :: rest ->
          let next =
            List.filter_map
              (function
                | [ s; t ]
                  when s = n
                       && (not (List.mem [ s; t ] blocked))
                       && not (List.mem t seen) ->
                    Some t
                | _ -> None)
              flow
          in
          walk (next @ seen) (rest @ next)
    in
    walk [ entry ] [ entry ]
  in
  let entry c = String.lowercase_ascii (List.hd c.Engine.Delta.faults) in
  let rec go blocked survivors = function
    | [] -> []
    | (label, structure) :: levels ->
        let blocked = blocked @ facts "blocked" structure in
        let surv, elim =
          List.partition (fun c -> reaches blocked (entry c)) survivors
        in
        (label, labels surv, labels elim) :: go blocked surv levels
  in
  go [] spec.Cegar.Inc.candidates
    (("base", Asp.Program.empty)
    :: List.map
         (fun (l : Cegar.Inc.level) ->
           (l.Cegar.Inc.l_label, l.Cegar.Inc.l_structure))
         spec.Cegar.Inc.levels)

let round_keys (o : Cegar.Inc.outcome) =
  List.map
    (fun (r : Cegar.Inc.round) ->
      ( r.Cegar.Inc.r_label,
        labels r.Cegar.Inc.r_survivors,
        labels r.Cegar.Inc.r_eliminated ))
    o.Cegar.Inc.rounds

let test_inc_hierarchy_schedule () =
  let spec = Cpsrisk.Hierarchy.refine_spec () in
  let o = Cegar.Inc.run spec in
  check Alcotest.int "1 + levels rounds" 7 (List.length o.Cegar.Inc.rounds);
  check (Alcotest.list Alcotest.string) "confirmed entries"
    [ "E7"; "E8"; "E9" ]
    (labels o.Cegar.Inc.confirmed);
  List.iteri
    (fun i (r : Cegar.Inc.round) ->
      let expect = if i = 0 then [] else [ Printf.sprintf "E%d" i ] in
      check (Alcotest.list Alcotest.string)
        (Printf.sprintf "eliminated at round %d" i)
        expect
        (labels r.Cegar.Inc.r_eliminated))
    o.Cegar.Inc.rounds;
  check (Alcotest.list Alcotest.string) "spurious schedule"
    [ "E1"; "E2"; "E3"; "E4"; "E5"; "E6" ]
    (Cpsrisk.Hierarchy.spurious_entries ~levels:6)

let test_inc_matches_scratch () =
  let spec = Cpsrisk.Hierarchy.refine_spec ~levels:3 ~entries:5 () in
  check_outcome_equal "L=3 C=5" (Cegar.Inc.run spec)
    (Cegar.Inc.run_scratch spec)

let test_inc_seeded_matches_scratch () =
  (* seeded schedule shapes: every (levels, entries) combination must
     agree with the scratch oracle bit-for-bit *)
  List.iter
    (fun seed ->
      let levels = 1 + (seed mod 4) in
      let entries = levels + 1 + (seed * 3 mod 4) in
      let spec = Cpsrisk.Hierarchy.refine_spec ~levels ~entries () in
      check_outcome_equal
        (Printf.sprintf "seed %d (L=%d C=%d)" seed levels entries)
        (Cegar.Inc.run spec)
        (Cegar.Inc.run_scratch spec))
    [ 0; 1; 2; 3; 4; 5 ]

let test_inc_cache_reuse () =
  let spec = Cpsrisk.Hierarchy.refine_spec ~levels:2 ~entries:4 () in
  let cache = Engine.Cache.create () in
  let first = Cegar.Inc.run ~cache spec in
  check Alcotest.bool "first run solves" true
    (first.Cegar.Inc.stats.Cegar.Inc.s_fresh > 0);
  let second = Cegar.Inc.run ~cache spec in
  check_outcome_equal "warm rerun" second first;
  check Alcotest.int "no fresh work on rerun" 0
    second.Cegar.Inc.stats.Cegar.Inc.s_fresh;
  check Alcotest.int "all assessments answered from memory"
    (first.Cegar.Inc.stats.Cegar.Inc.s_fresh
    + first.Cegar.Inc.stats.Cegar.Inc.s_hits)
    second.Cegar.Inc.stats.Cegar.Inc.s_hits

let test_inc_empty_level_is_cached () =
  (* an empty structural increment is a re-assessment round: the ground
     program is unchanged, so it costs only cache hits *)
  let spec = Cpsrisk.Hierarchy.refine_spec ~levels:2 ~entries:4 () in
  let spec =
    {
      spec with
      Cegar.Inc.levels =
        spec.Cegar.Inc.levels
        @ [ { Cegar.Inc.l_label = "recheck"; l_structure = Asp.Program.empty } ];
    }
  in
  let o = Cegar.Inc.run spec in
  let oracle = Cegar.Inc.run_scratch spec in
  check_outcome_equal "with re-assessment round" o oracle;
  let last = List.nth o.Cegar.Inc.rounds 3 in
  let prev = List.nth o.Cegar.Inc.rounds 2 in
  check (Alcotest.list Alcotest.string) "recheck keeps survivors"
    (labels prev.Cegar.Inc.r_survivors)
    (labels last.Cegar.Inc.r_survivors);
  check Alcotest.bool "recheck round hit the cache" true
    (o.Cegar.Inc.stats.Cegar.Inc.s_hits
    >= List.length last.Cegar.Inc.r_survivors)

let test_inc_stats_shape () =
  let spec = choice_spec () in
  let o = Cegar.Inc.run spec in
  let s = o.Cegar.Inc.stats in
  check_outcome_equal "same survivors as scratch" o
    (Cegar.Inc.run_scratch spec);
  check Alcotest.bool "grounding reused instances across levels" true
    (s.Cegar.Inc.s_ground.Asp.Grounder.Stats.reused_rules > 0)

let test_inc_cache_keyed_by_limit () =
  (* with [keep] = at least two models (two routes, so the choice
     encoding), a run whose cached answers were cut at one model would
     eliminate every candidate: the limit must be part of the key *)
  let spec =
    {
      (choice_spec ~levels:3 ~entries:6 ()) with
      Cegar.Inc.limit = None;
      keep = (fun models -> List.length models >= 2);
    }
  in
  let oracle = Cegar.Inc.run_scratch spec in
  check (Alcotest.list Alcotest.string) "scratch confirms" [ "E4"; "E5"; "E6" ]
    (labels oracle.Cegar.Inc.confirmed);
  let cache = Engine.Cache.create () in
  ignore (Cegar.Inc.run ~cache { spec with Cegar.Inc.limit = Some 1 });
  check_outcome_equal "after a limit-1 run on the same cache"
    (Cegar.Inc.run ~cache spec) oracle

(* Every schedule these tests run, and the e2e one (10 levels, 14
   entries). *)
let differential_schedules =
  [ (6, 9); (3, 5); (2, 4); (3, 6); (10, 14) ]
  @ List.map
      (fun seed ->
        let levels = 1 + (seed mod 4) in
        (levels, levels + 1 + (seed * 3 mod 4)))
      [ 0; 1; 2; 3; 4; 5 ]

(* The stratified spec against two independent oracles: its incremental
   and scratch drivers, the choice encoding's scratch driver and the
   graph search agree on every round's label, survivors and eliminated
   set. *)
let test_inc_stratified_differential () =
  let rounds = Alcotest.(list (triple string (list string) (list string))) in
  List.iter
    (fun (levels, entries) ->
      let tag = Printf.sprintf "L=%d C=%d" levels entries in
      let spec = Cpsrisk.Hierarchy.refine_spec ~levels ~entries () in
      let bfs = bfs_rounds spec in
      let choice = Cegar.Inc.run_scratch (choice_spec ~levels ~entries ()) in
      check rounds (tag ^ ": choice oracle = graph search") bfs
        (round_keys choice);
      List.iter
        (fun (driver, o) ->
          check rounds
            (Printf.sprintf "%s: %s = graph search" tag driver)
            bfs (round_keys o);
          check_outcome_equal
            (Printf.sprintf "%s: %s = choice oracle" tag driver)
            o choice)
        [
          ("run", Cegar.Inc.run spec);
          ("run_scratch", Cegar.Inc.run_scratch spec);
        ])
    differential_schedules

(* On the stratified spec a candidate is a facts-only delta the grounder
   decides: no assessment reaches the solver. Both [--mode] values build
   this one spec. *)
let test_inc_increment_decided () =
  List.iter
    (fun (tag, mode) ->
      let s =
        (Cegar.Inc.run
           (Cpsrisk.Hierarchy.refine_spec ~levels:10 ~entries:14 ~mode ()))
          .Cegar.Inc.stats
      in
      check Alcotest.int (tag ^ ": fresh assessments") 109 s.Cegar.Inc.s_fresh;
      check Alcotest.int (tag ^ ": decided by the grounder") 109
        s.Cegar.Inc.s_ground.Asp.Grounder.Stats.decided;
      check Alcotest.int (tag ^ ": solver runs") 0 s.Cegar.Inc.s_solves)
    [ ("assume", `Assume); ("increment", `Increment) ]

let test_inc_empty_candidates () =
  let spec = Cpsrisk.Hierarchy.refine_spec () in
  let spec = { spec with Cegar.Inc.candidates = [] } in
  (match Cegar.Inc.run spec with
  | exception Invalid_argument _ -> ()
  | _ -> fail "empty candidate list accepted");
  match Cegar.Inc.run_scratch spec with
  | exception Invalid_argument _ -> ()
  | _ -> fail "empty candidate list accepted by scratch driver"

let suites =
  [
    ( "cegar.levels",
      [
        Alcotest.test_case "focus mapping" `Quick test_levels_focus_mapping;
        Alcotest.test_case "refinement order" `Quick test_levels_refinement_order;
        Alcotest.test_case "matrix render" `Quick test_levels_matrix_render;
      ] );
    ( "cegar.refine",
      [
        Alcotest.test_case "apply" `Quick test_refine_apply;
        Alcotest.test_case "attack path" `Quick test_refine_attack_path;
        Alcotest.test_case "no reverse path" `Quick test_refine_attack_path_absent;
        Alcotest.test_case "flatten roundtrip" `Quick
          test_refine_flatten_roundtrip;
        Alcotest.test_case "flatten nested composition" `Quick
          test_refine_flatten_nested;
        Alcotest.test_case "errors" `Quick test_refine_errors;
      ] );
    ( "cegar.inc",
      [
        Alcotest.test_case "hierarchy schedule" `Quick
          test_inc_hierarchy_schedule;
        Alcotest.test_case "matches scratch oracle" `Quick
          test_inc_matches_scratch;
        Alcotest.test_case "seeded schedules match scratch" `Quick
          test_inc_seeded_matches_scratch;
        Alcotest.test_case "cache reuse across runs" `Quick
          test_inc_cache_reuse;
        Alcotest.test_case "empty level answered from cache" `Quick
          test_inc_empty_level_is_cached;
        Alcotest.test_case "stats shape" `Quick test_inc_stats_shape;
        Alcotest.test_case "empty candidates rejected" `Quick
          test_inc_empty_candidates;
        Alcotest.test_case "cache keyed by model limit" `Quick
          test_inc_cache_keyed_by_limit;
        Alcotest.test_case "stratified spec = choice oracle = graph search"
          `Quick test_inc_stratified_differential;
        Alcotest.test_case "increment candidates decided by the grounder"
          `Quick test_inc_increment_decided;
      ] );
  ]
