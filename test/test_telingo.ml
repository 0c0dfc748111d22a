(* Tests for the Telingo layer (lib/telingo): LTLf compiled to ASP must
   agree with the native finite-trace semantics. *)

let check = Alcotest.check
let fail = Alcotest.fail

let st bindings = Qual.Qstate.of_list bindings

let trace_of_levels levels =
  Ltl.Trace.of_list (List.map (fun l -> st [ ("level", l) ]) levels)

let parse = Ltl.Parser.parse

let test_atom_and_boolean () =
  let tr = trace_of_levels [ "normal"; "high" ] in
  check Alcotest.bool "atom true" true
    (Telingo.Compile.check_trace tr (parse "level=normal"));
  check Alcotest.bool "atom false" false
    (Telingo.Compile.check_trace tr (parse "level=high"));
  check Alcotest.bool "negation" true
    (Telingo.Compile.check_trace tr (parse "!level=high"));
  check Alcotest.bool "conjunction" true
    (Telingo.Compile.check_trace tr (parse "level=normal & X level=high"));
  check Alcotest.bool "implication" true
    (Telingo.Compile.check_trace tr (parse "level=high -> false"))

let test_temporal_operators () =
  let tr = trace_of_levels [ "low"; "normal"; "high"; "overflow" ] in
  check Alcotest.bool "eventually" true
    (Telingo.Compile.check_trace tr (parse "F level=overflow"));
  check Alcotest.bool "always fails" false
    (Telingo.Compile.check_trace tr (parse "G level=low"));
  check Alcotest.bool "until" true
    (Telingo.Compile.check_trace tr (parse "!level=overflow U level=high"));
  check Alcotest.bool "release" true
    (Telingo.Compile.check_trace tr (parse "level=high R !level=overflow"))

let test_next_at_boundary () =
  let tr = trace_of_levels [ "low" ] in
  check Alcotest.bool "strong next false on last" false
    (Telingo.Compile.check_trace tr (parse "X true"));
  check Alcotest.bool "weak next true on last" true
    (Telingo.Compile.check_trace tr (parse "WX false"))

let test_paper_requirements_compiled () =
  let mk level alert = st [ ("level", level); ("alert", alert) ] in
  let violating =
    Ltl.Trace.of_list
      [ mk "normal" "false"; mk "overflow" "false"; mk "overflow" "false" ]
  in
  let alerted =
    Ltl.Trace.of_list
      [ mk "normal" "false"; mk "overflow" "false"; mk "overflow" "true" ]
  in
  let r2 = parse "G (level=overflow -> F alert)" in
  check Alcotest.bool "R2 violated without alert" false
    (Telingo.Compile.check_trace violating r2);
  check Alcotest.bool "R2 holds with alert" true
    (Telingo.Compile.check_trace alerted r2)

let test_violated_rule () =
  let tr = trace_of_levels [ "normal"; "overflow" ] in
  let rules, root =
    Telingo.Compile.formula ~horizon:1 (parse "G !level=overflow")
  in
  let program =
    Asp.Program.append (Telingo.Compile.trace_facts tr) rules
    |> Asp.Program.add (Telingo.Compile.violated_rule ~requirement:"R1" ~root)
  in
  match Asp.Solver.solve (Asp.Grounder.ground program) with
  | [ m ] ->
      check Alcotest.bool "violated(r1) derived" true
        (Asp.Model.holds m (Asp.Parser.parse_atom "violated(r1)"))
  | _ -> fail "expected one model"

let test_custom_encoding () =
  (* map the bare atom "alarm" onto a unary alarm/1 predicate *)
  let encode atom t =
    if atom = "alarm" then Asp.Lit.Pos (Asp.Atom.make "alarm" [ t ])
    else Telingo.Compile.default_encoding atom t
  in
  let rules, root = Telingo.Compile.formula ~encode ~horizon:2 (parse "F alarm") in
  let facts = Asp.Parser.parse_program "time(0..2). alarm(2)." in
  let program = Asp.Program.append facts rules in
  match Asp.Solver.solve (Asp.Grounder.ground program) with
  | [ m ] -> check Alcotest.bool "root holds" true (Asp.Model.holds m root)
  | _ -> fail "expected one model"

let test_generated_program_is_stratified () =
  let rules, _ =
    Telingo.Compile.formula ~horizon:3
      (parse "G ((a -> F b) & !(c U d))")
  in
  let program =
    Asp.Program.append (Asp.Parser.parse_program "time(0..3).") rules
  in
  check Alcotest.bool "stratified" true
    (Asp.Deps.stratified (Asp.Deps.of_program program))

(* the central property: ASP-compiled semantics == native LTLf semantics *)
let formula_gen =
  let open QCheck.Gen in
  let atom = oneofl [ "level=low"; "level=normal"; "level=high"; "alert" ] in
  fix
    (fun self depth ->
      if depth <= 0 then map Ltl.Formula.atom atom
      else
        let sub = self (depth - 1) in
        frequency
          [
            (2, map Ltl.Formula.atom atom);
            (1, return Ltl.Formula.True);
            (1, return Ltl.Formula.False);
            (2, map Ltl.Formula.not_ sub);
            (2, map2 (fun a b -> Ltl.Formula.And (a, b)) sub sub);
            (2, map2 (fun a b -> Ltl.Formula.Or (a, b)) sub sub);
            (1, map2 Ltl.Formula.implies sub sub);
            (2, map Ltl.Formula.next sub);
            (1, map Ltl.Formula.wnext sub);
            (2, map Ltl.Formula.eventually sub);
            (2, map Ltl.Formula.always sub);
            (1, map2 Ltl.Formula.until sub sub);
            (1, map2 Ltl.Formula.release sub sub);
          ])
    3

let trace_gen =
  let open QCheck.Gen in
  let state =
    map2
      (fun level alert ->
        st [ ("level", level); ("alert", string_of_bool alert) ])
      (oneofl [ "low"; "normal"; "high" ])
      bool
  in
  map Ltl.Trace.of_list (list_size (int_range 1 5) state)

let prop_asp_agrees_with_native =
  QCheck.Test.make ~name:"telingo: ASP compilation = native LTLf semantics"
    ~count:300
    (QCheck.make
       ~print:(fun (f, tr) ->
         Printf.sprintf "%s on %d states" (Ltl.Formula.to_string f)
           (Ltl.Trace.length tr))
       (QCheck.Gen.pair formula_gen trace_gen))
    (fun (f, tr) ->
      Telingo.Compile.check_trace tr f = Ltl.Trace.eval tr f)

(* The horizon rule against the independent semantics: on a seeded
   lasso (prefix <= 4, period <= 4), the recursive [eval_at] oracle gives
   every horizon H in 0..50 the same answer as [reduce_horizon H]. *)
let lasso_gen =
  let open QCheck.Gen in
  let state =
    map2
      (fun level alert ->
        st [ ("level", level); ("alert", string_of_bool alert) ])
      (oneofl [ "low"; "normal"; "high" ])
      bool
  in
  pair (list_size (int_range 0 4) state) (list_size (int_range 1 4) state)

let lasso_trace (prefix, loop) horizon =
  let prefix = Array.of_list prefix and loop = Array.of_list loop in
  let i = Array.length prefix and p = Array.length loop in
  Ltl.Trace.of_list
    (List.init (horizon + 1) (fun t ->
         if t < i then prefix.(t) else loop.((t - i) mod p)))

let prop_reduce_horizon =
  QCheck.Test.make
    ~name:"telingo: horizon H and reduce_horizon H agree on a lasso"
    ~count:200
    (QCheck.make
       ~print:(fun (f, (prefix, loop)) ->
         Printf.sprintf "%s on a lasso of prefix %d, period %d"
           (Ltl.Formula.to_string f) (List.length prefix) (List.length loop))
       (QCheck.Gen.pair formula_gen lasso_gen))
    (fun (f, ((prefix, loop) as lasso)) ->
      let depth = Telingo.Compile.temporal_depth f in
      let reduce =
        Telingo.Compile.reduce_horizon ~depth ~prefix:(List.length prefix)
          ~period:(List.length loop)
      in
      let eval h = Ltl.Trace.eval_at (lasso_trace lasso h) 0 f in
      List.for_all
        (fun h ->
          let r = reduce h in
          r <= h && (r = h || eval h = eval r))
        (List.init 51 Fun.id))

let test_temporal_depth () =
  let depth s = Telingo.Compile.temporal_depth (Ltl.Parser.parse s) in
  check Alcotest.int "R1" 1 (depth "G !level=overflow");
  check Alcotest.int "R2" 2 (depth "G (level=overflow -> F alert)");
  check Alcotest.int "booleans" 0 (depth "a & !b | c");
  check Alcotest.int "U over X" 2 (depth "a U X b");
  check Alcotest.int "R" 1 (depth "a R b");
  (* below the threshold a horizon is its own representative; above it
     the horizon folds onto one period *)
  let reduce = Telingo.Compile.reduce_horizon ~depth:2 ~prefix:0 ~period:6 in
  check Alcotest.(list int) "{} lasso" [ 0; 11; 12; 17; 12; 17 ]
    (List.map reduce [ 0; 11; 12; 17; 48; 47 ]);
  let reduce = Telingo.Compile.reduce_horizon ~depth:2 ~prefix:3 ~period:1 in
  check Alcotest.(list int) "prefix 3 period 1" [ 4; 5; 5 ]
    (List.map reduce [ 4; 5; 48 ])

let qcheck t = QCheck_alcotest.to_alcotest t

let suites =
  [
    ( "telingo.compile",
      [
        Alcotest.test_case "atoms & booleans" `Quick test_atom_and_boolean;
        Alcotest.test_case "temporal operators" `Quick test_temporal_operators;
        Alcotest.test_case "next at boundary" `Quick test_next_at_boundary;
        Alcotest.test_case "paper requirements" `Quick
          test_paper_requirements_compiled;
        Alcotest.test_case "violated rule" `Quick test_violated_rule;
        Alcotest.test_case "custom encoding" `Quick test_custom_encoding;
        Alcotest.test_case "stratified output" `Quick
          test_generated_program_is_stratified;
        qcheck prop_asp_agrees_with_native;
        Alcotest.test_case "temporal depth" `Quick test_temporal_depth;
        qcheck prop_reduce_horizon;
      ] );
  ]
