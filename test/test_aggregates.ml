(* Tests for the #count aggregate of the ASP engine. *)

let check = Alcotest.check
let fail = Alcotest.fail

let solve_str src =
  Asp.Solver.solve (Asp.Grounder.ground (Asp.Parser.parse_program src))

let single_model src =
  match solve_str src with
  | [ m ] -> m
  | ms -> fail (Printf.sprintf "expected one model, got %d" (List.length ms))

let holds m s = Asp.Model.holds m (Asp.Parser.parse_atom s)

let test_count_facts () =
  let m = single_model "p(1..3). q :- #count { X : p(X) } >= 3." in
  check Alcotest.bool "q derived" true (holds m "q");
  let m = single_model "p(1..3). q :- #count { X : p(X) } < 2." in
  check Alcotest.bool "q not derived" false (holds m "q");
  let m = single_model "p(1..3). q :- #count { X : p(X) } = 3." in
  check Alcotest.bool "exact count" true (holds m "q")

let test_count_with_negated_condition () =
  let m =
    single_model
      "p(1..3). bad(2). q :- #count { X : p(X), not bad(X) } = 2."
  in
  check Alcotest.bool "negation inside condition" true (holds m "q")

let test_count_distinct_tuples () =
  (* the same tuple via two derivations counts once *)
  let m =
    single_model
      "a(1). b(1). v(X) :- a(X). v(X) :- b(X).\n\
       q :- #count { X : v(X) } = 1."
  in
  check Alcotest.bool "deduplicated" true (holds m "q")

let test_count_global_variable () =
  let m =
    single_model
      "group(ga). group(gb). member(ga, 1). member(ga, 2). member(gb, 1).\n\
       big(G) :- group(G), #count { X : member(G, X) } >= 2."
  in
  check Alcotest.bool "big(ga)" true (holds m "big(ga)");
  check Alcotest.bool "not big(gb)" false (holds m "big(gb)")

let test_count_over_derived_predicate () =
  let m =
    single_model
      "e(1,2). e(2,3). r(X,Y) :- e(X,Y). r(X,Z) :- r(X,Y), e(Y,Z).\n\
       hub :- #count { Y : r(1, Y) } >= 2."
  in
  check Alcotest.bool "counts the transitive closure" true (holds m "hub")

let test_count_constrains_choices () =
  let models =
    solve_str "item(1..4). { pick(X) : item(X) }. :- #count { X : pick(X) } > 2."
  in
  (* subsets of size <= 2: 1 + 4 + 6 *)
  check Alcotest.int "bounded subsets" 11 (List.length models)

let test_count_derived_from_choices () =
  let models =
    solve_str
      "item(1..3). { pick(X) : item(X) }.\n\
       single :- #count { X : pick(X) } = 1."
  in
  let with_single =
    List.filter (fun m -> holds m "single") models
  in
  check Alcotest.int "eight models" 8 (List.length models);
  check Alcotest.int "three singletons" 3 (List.length with_single)

let test_count_in_weak_constraint () =
  let models =
    Asp.Solver.solve_optimal
      (Asp.Grounder.ground
         (Asp.Parser.parse_program
            "item(1..2). { pick(X) : item(X) }. :- #count { X : pick(X) } < 1.\n\
             :~ pick(X). [1@1, X]"))
  in
  (* must pick at least one; optimum picks exactly one (two optima) *)
  check Alcotest.int "two optima" 2 (List.length models);
  List.iter
    (fun m ->
      check Alcotest.int "one pick" 1
        (List.length (Asp.Model.by_predicate m "pick")))
    models

let test_count_models_pass_gl_oracle () =
  let g =
    Asp.Grounder.ground
      (Asp.Parser.parse_program
         "item(1..3). { pick(X) : item(X) }.\n\
          pair :- #count { X : pick(X) } = 2.\n\
          :- #count { X : pick(X) } > 2.")
  in
  let models = Asp.Solver.solve g in
  check Alcotest.bool "has models" true (models <> []);
  List.iter
    (fun m ->
      check Alcotest.bool "stable" true
        (Asp_oracle.Naive.is_stable_model g (Asp.Model.atoms m)))
    models

let test_count_unsafe_bound () =
  match solve_str "p(1). q :- #count { X : p(X) } >= N." with
  | exception Asp.Grounder.Unsafe _ -> ()
  | _ -> fail "unbound aggregate bound accepted"

let test_count_nested_rejected () =
  match
    solve_str "p(1). q :- #count { X : p(X), #count { Y : p(Y) } >= 1 } >= 1."
  with
  | exception Asp.Grounder.Unsafe _ -> ()
  | _ -> fail "nested aggregate accepted"

let test_count_in_choice_condition_rejected () =
  match solve_str "p(1). { q(X) : p(X), #count { Y : p(Y) } >= 1 }." with
  | exception Asp.Grounder.Unsafe _ -> ()
  | _ -> fail "aggregate in choice condition accepted"

let test_count_nonstratified () =
  (* aggregates in non-stratified programs: still beyond the exhaustive
     reference's stratification requirement, but the CDNL solver answers *)
  let src = "p(1). a :- not b. b :- not a. q :- #count { X : p(X) } >= 1." in
  let g = Asp.Grounder.ground (Asp.Parser.parse_program src) in
  (match Asp_oracle.Naive.solve g with
  | exception Asp_oracle.Naive.Unsupported _ -> ()
  | _ -> fail "expected the reference to reject the non-stratified aggregate");
  let models = Asp.Solver.solve g in
  check Alcotest.int "two models" 2 (List.length models);
  List.iter
    (fun m ->
      check Alcotest.bool "q derived through the aggregate" true
        (Asp.Model.holds m (Asp.Atom.prop "q")))
    models

let test_count_pp_roundtrip () =
  let src = "q(G) :- group(G), #count { X : member(G, X), not bad(X) } >= 2." in
  let r = Asp.Parser.parse_rule src in
  let r' = Asp.Parser.parse_rule (Asp.Rule.to_string r) in
  check Alcotest.string "roundtrip" (Asp.Rule.to_string r) (Asp.Rule.to_string r')

let test_count_zero_and_empty_condition_set () =
  (* counting over an empty extension: 0 tuples *)
  let m = single_model "q :- #count { X : ghost(X) } = 0. p." in
  check Alcotest.bool "zero count" true (holds m "q")

(* ----------------------------- #sum ---------------------------------- *)

let test_sum_facts () =
  let m =
    single_model
      "cost(a, 3). cost(b, 5). expensive :- #sum { C, X : cost(X, C) } > 7."
  in
  check Alcotest.bool "3+5 > 7" true (holds m "expensive");
  let m =
    single_model
      "cost(a, 3). cost(b, 5). cheap :- #sum { C, X : cost(X, C) } <= 8."
  in
  check Alcotest.bool "3+5 <= 8" true (holds m "cheap")

let test_sum_distinct_tuples () =
  (* the discriminating second component keeps equal weights apart *)
  let m =
    single_model
      "cost(a, 3). cost(b, 3). total :- #sum { C, X : cost(X, C) } = 6."
  in
  check Alcotest.bool "both 3s counted" true (holds m "total");
  (* without the discriminator the identical weights collapse to one *)
  let m =
    single_model
      "cost(a, 3). cost(b, 3). collapsed :- #sum { C : cost(X, C) } = 3."
  in
  check Alcotest.bool "tuple semantics" true (holds m "collapsed")

let test_sum_budget_constraint () =
  (* the classic encoding: forbid selections above a budget *)
  let models =
    solve_str
      "price(x, 4). price(y, 3). price(z, 6).\n\
       { buy(I) : price(I, _C) }.\n\
       :- #sum { C, I : buy(I), price(I, C) } > 7."
  in
  (* subsets with total <= 7: {}, {x}, {y}, {z}, {x,y} -> 5 *)
  check Alcotest.int "within budget" 5 (List.length models)

let test_sum_non_integer_weight_ignored () =
  let m =
    single_model "w(a, 2). w(b, oops). q :- #sum { C, X : w(X, C) } = 2."
  in
  check Alcotest.bool "symbolic weight contributes 0" true (holds m "q")

(* brute-force cross-check: counting picks over random bounds *)
let prop_count_matches_bruteforce =
  QCheck.Test.make ~name:"aggregates: choice counting matches brute force"
    ~count:60
    (QCheck.make
       ~print:(fun (n, b) -> Printf.sprintf "n=%d bound=%d" n b)
       QCheck.Gen.(pair (int_range 1 5) (int_range 0 5)))
    (fun (n, b) ->
      let src =
        Printf.sprintf
          "item(1..%d). { pick(X) : item(X) }. :- #count { X : pick(X) } != %d."
          n b
      in
      let models = solve_str src in
      (* number of size-b subsets of n items *)
      let rec choose n k =
        if k < 0 || k > n then 0
        else if k = 0 || k = n then 1
        else choose (n - 1) (k - 1) + choose (n - 1) k
      in
      List.length models = choose n b)

let qcheck t = QCheck_alcotest.to_alcotest t

let suites =
  [
    ( "asp.aggregates",
      [
        Alcotest.test_case "count facts" `Quick test_count_facts;
        Alcotest.test_case "negated condition" `Quick
          test_count_with_negated_condition;
        Alcotest.test_case "distinct tuples" `Quick test_count_distinct_tuples;
        Alcotest.test_case "global variable" `Quick test_count_global_variable;
        Alcotest.test_case "derived predicate" `Quick
          test_count_over_derived_predicate;
        Alcotest.test_case "constrains choices" `Quick
          test_count_constrains_choices;
        Alcotest.test_case "derived from choices" `Quick
          test_count_derived_from_choices;
        Alcotest.test_case "weak constraint interplay" `Quick
          test_count_in_weak_constraint;
        Alcotest.test_case "GL oracle" `Quick test_count_models_pass_gl_oracle;
        Alcotest.test_case "unsafe bound" `Quick test_count_unsafe_bound;
        Alcotest.test_case "nested rejected" `Quick test_count_nested_rejected;
        Alcotest.test_case "choice condition rejected" `Quick
          test_count_in_choice_condition_rejected;
        Alcotest.test_case "non-stratified solved" `Quick
          test_count_nonstratified;
        Alcotest.test_case "pp roundtrip" `Quick test_count_pp_roundtrip;
        Alcotest.test_case "zero count" `Quick
          test_count_zero_and_empty_condition_set;
        Alcotest.test_case "sum facts" `Quick test_sum_facts;
        Alcotest.test_case "sum tuple semantics" `Quick test_sum_distinct_tuples;
        Alcotest.test_case "sum budget constraint" `Quick
          test_sum_budget_constraint;
        Alcotest.test_case "sum symbolic weight" `Quick
          test_sum_non_integer_weight_ignored;
        qcheck prop_count_matches_bruteforce;
      ] );
  ]
