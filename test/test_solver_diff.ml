(* Differential tests: the production CDNL solver (Asp.Solver) against
   both test-only oracles — the pruned DFS (Asp_oracle.Dfs, the previous
   production path) and the exhaustive reference (Asp_oracle.Naive) — on
   seeded random ground programs. Where the oracles accept a program all three
   must agree bit-for-bit on the model sets, the per-model
   weak-constraint costs and the optimal fronts; where the oracles
   reject (guess caps, aggregates under their stratification
   requirement) the CDNL solver must still answer, and every model it
   reports is verified independently through the Gelfond–Lifschitz
   check. *)

let check = Alcotest.check
let fail = Alcotest.fail

(* ------------------------------------------------------------------ *)
(* Seeded random program generator                                      *)
(* ------------------------------------------------------------------ *)

(* Propositional programs over a small vocabulary, exercising facts,
   rules with default negation (stratified and not), choice rules with
   conditions and cardinality bounds, integrity constraints, weak
   constraints (including negative weights, which force the mixed-sign
   lower bound in branch-and-bound), and #count/#sum aggregates. *)
let gen_program rng =
  let int n = Random.State.int rng n in
  let bool () = Random.State.bool rng in
  let n_atoms = 4 + int 4 in
  let atom i = Printf.sprintf "a%d" i in
  let rand_atom () = atom (int n_atoms) in
  let lit () = (if int 3 = 0 then "not " else "") ^ rand_atom () in
  let lits n = List.init n (fun _ -> lit ()) in
  let buf = Buffer.create 256 in
  let stmt fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  (* facts *)
  for _ = 1 to 1 + int 2 do
    stmt "%s." (rand_atom ())
  done;
  (* rules *)
  for _ = 1 to 2 + int 4 do
    stmt "%s :- %s." (rand_atom ()) (String.concat ", " (lits (1 + int 3)))
  done;
  (* choice rules *)
  for _ = 1 to 1 + int 2 do
    let elems =
      List.init (1 + int 3) (fun _ ->
          if bool () then rand_atom ()
          else Printf.sprintf "%s : %s" (rand_atom ()) (rand_atom ()))
    in
    let body =
      match int 3 with
      | 0 -> ""
      | n -> " :- " ^ String.concat ", " (lits n)
    in
    let lower = if int 3 = 0 then string_of_int (int 2) ^ " " else "" in
    let upper = if int 3 = 0 then " " ^ string_of_int (1 + int 2) else "" in
    stmt "%s{ %s }%s%s." lower (String.concat " ; " elems) upper body
  done;
  (* integrity constraints *)
  for _ = 1 to int 3 do
    stmt ":- %s." (String.concat ", " (lits (1 + int 2)))
  done;
  (* aggregates, occasionally (surface syntax is single-element; ground
     multi-element aggregates come from variables, covered by the corner
     programs below) *)
  if int 3 = 0 then begin
    let op = if bool () then ">" else "<=" in
    let agg = if bool () then "#count" else "#sum" in
    let body =
      Printf.sprintf "%s { %d : %s } %s %d" agg (1 + int 3)
        (String.concat ", " (lits (1 + int 2)))
        op (int 3)
    in
    if bool () then stmt ":- %s." body else stmt "%s :- %s." (rand_atom ()) body
  end;
  (* weak constraints *)
  for _ = 1 to int 3 do
    let weight = int 6 - 2 in
    let terms = if bool () then ", t" ^ string_of_int (int 2) else "" in
    stmt ":~ %s. [%d@%d%s]" (String.concat ", " (lits (1 + int 2))) weight
      (1 + int 2) terms
  done;
  Buffer.contents buf

(* Normal programs: facts, rules with default negation and integrity
   constraints, no choice rules, so every model is decided by the rules
   alone. With [stratified] every body atom has a lower index than its
   head (no cycles at all); otherwise bodies range over the whole
   vocabulary, reaching even and odd negative loops and positive loops.
   This is the well-founded fragment of the cheap tier. *)
let gen_normal_program ~stratified rng =
  let int n = Random.State.int rng n in
  let n_atoms = 4 + int 5 in
  let atom i = Printf.sprintf "a%d" i in
  let buf = Buffer.create 256 in
  let stmt fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  for _ = 1 to 1 + int 2 do
    stmt "%s." (atom (int n_atoms))
  done;
  for _ = 1 to 3 + int 6 do
    let head = if stratified then 1 + int (n_atoms - 1) else int n_atoms in
    let body_atom () = atom (if stratified then int head else int n_atoms) in
    let lits =
      List.init (1 + int 3) (fun _ ->
          (if int 2 = 0 then "not " else "") ^ body_atom ())
    in
    stmt "%s :- %s." (atom head) (String.concat ", " lits)
  done;
  for _ = 1 to int 2 do
    stmt ":- %s."
      (String.concat ", "
         (List.init (1 + int 2) (fun _ ->
              (if int 3 = 0 then "not " else "") ^ atom (int n_atoms))))
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Outcome comparison                                                   *)
(* ------------------------------------------------------------------ *)

type outcome =
  | Models of (string list * Asp.Model.cost) list
  | Rejected of string

let outcome_of_models models =
  Models
    (List.map
       (fun m ->
         (List.map Asp.Atom.to_string (Asp.Model.to_list m), Asp.Model.cost m))
       models)

let run f =
  match f () with
  | models -> outcome_of_models models
  | exception Asp_oracle.Dfs.Unsupported msg -> Rejected msg
  | exception Asp_oracle.Naive.Unsupported msg -> Rejected msg

let pp_outcome = function
  | Rejected msg -> "Unsupported: " ^ msg
  | Models ms ->
      ms
      |> List.map (fun (atoms, cost) ->
             Printf.sprintf "{%s}%s" (String.concat "," atoms)
               (match cost with
               | [] -> ""
               | c ->
                   " @ "
                   ^ String.concat ";"
                       (List.map (fun (p, w) -> Printf.sprintf "%d@%d" w p) c)))
      |> String.concat " | "

let outcomes_agree a b =
  match (a, b) with
  | Rejected x, Rejected y -> x = y
  | Models xs, Models ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (ax, cx) (ay, cy) ->
             ax = ay && Asp.Model.compare_cost cx cy = 0)
           xs ys
  | _ -> false

let compare_on ~what ~names src a b =
  if not (outcomes_agree a b) then
    fail
      (Printf.sprintf "%s diverged on program:\n%s\n  %s: %s\n  %s: %s" what
         src (fst names) (pp_outcome a) (snd names) (pp_outcome b))

(* Every model the CDNL solver produced must pass the independent
   Gelfond–Lifschitz check, and the list must be strictly sorted (so it
   is also duplicate-free). The fallback oracle for programs the
   reference solvers cannot enumerate. *)
let assert_stable ~what src g models =
  let rec sorted = function
    | a :: (b :: _ as rest) ->
        Asp.Model.compare a b < 0 && sorted rest
    | _ -> true
  in
  if not (sorted models) then
    fail (Printf.sprintf "%s: unsorted or duplicated models on:\n%s" what src);
  List.iter
    (fun m ->
      if not (Asp_oracle.Naive.is_stable_model g (Asp.Model.atoms m)) then
        fail
          (Printf.sprintf "%s produced a non-stable model {%s} on:\n%s" what
             (String.concat ","
                (List.map Asp.Atom.to_string (Asp.Model.to_list m)))
             src))
    models

(* the oracle caps stay at their historical default so the exhaustive
   paths remain fast; Dfs and Naive get the same bound so their rejection
   parity holds. The CDNL solver ignores the cap and must always answer. *)
let max_guess = 18

let diff_one src =
  let g = Asp.Grounder.ground (Asp.Parser.parse_program src) in
  (* legacy parity: the retained DFS still agrees with the reference,
     including which programs are rejected and with what message *)
  let dfs = run (fun () -> Asp_oracle.Dfs.solve ~max_guess g) in
  let naive = run (fun () -> Asp_oracle.Naive.solve ~max_guess g) in
  compare_on ~what:"solve (dfs vs naive)" ~names:("dfs", "naive") src dfs naive;
  let cdnl_models = Asp.Solver.solve g in
  let cdnl = outcome_of_models cdnl_models in
  (match naive with
  | Models _ ->
      compare_on ~what:"solve (cdnl vs naive)" ~names:("cdnl", "naive") src
        cdnl naive
  | Rejected _ ->
      (* the oracles gave up; verify the CDNL answer independently *)
      assert_stable ~what:"solve (cdnl)" src g cdnl_models);
  (* optima *)
  let dfs_opt = run (fun () -> Asp_oracle.Dfs.solve_optimal ~max_guess g) in
  let naive_opt = run (fun () -> Asp_oracle.Naive.solve_optimal ~max_guess g) in
  compare_on ~what:"solve_optimal (dfs vs naive)" ~names:("dfs", "naive") src
    dfs_opt naive_opt;
  let cdnl_opt_models = Asp.Solver.solve_optimal g in
  let cdnl_opt = outcome_of_models cdnl_opt_models in
  (match naive_opt with
  | Models _ ->
      compare_on ~what:"solve_optimal (cdnl vs naive)" ~names:("cdnl", "naive")
        src cdnl_opt naive_opt
  | Rejected _ ->
      (* self-consistency: branch-and-bound must return exactly the
         minimum-cost slice of the full enumeration *)
      let best =
        List.fold_left
          (fun acc m ->
            let c = Asp.Model.cost m in
            match acc with
            | None -> Some c
            | Some b -> if Asp.Model.compare_cost c b < 0 then Some c else acc)
          None cdnl_models
      in
      let expected =
        match best with
        | None -> []
        | Some b ->
            List.filter
              (fun m -> Asp.Model.compare_cost (Asp.Model.cost m) b = 0)
              cdnl_models
      in
      compare_on ~what:"solve_optimal (cdnl B&B vs cdnl enumeration)"
        ~names:("b&b", "enum") src cdnl_opt (outcome_of_models expected));
  (* under a limit the solvers may surface different models (the
     enumeration orders differ), so compare the count and check that every
     limited model belongs to the full set *)
  let limited = Asp.Solver.solve ~limit:2 g in
  (match naive with
  | Rejected _ -> ()
  | Models full ->
      check Alcotest.int
        (Printf.sprintf "limited model count on:\n%s" src)
        (min 2 (List.length full))
        (List.length limited));
  List.iter
    (fun m ->
      if not (List.exists (Asp.Model.equal m) cdnl_models) then
        fail (Printf.sprintf "limited solve invented a model on:\n%s" src))
    limited;
  (* preprocessing and the cheap tier are pure accelerations: every
     switch combination must reproduce the default answer bit for bit *)
  List.iter
    (fun (what, config) ->
      let ms = Asp.Solver.solve ~config g in
      compare_on ~what ~names:(what, "default") src (outcome_of_models ms)
        cdnl)
    [
      ( "solve no-preprocess",
        { Asp.Solver.Config.default with preprocess = false } );
      ("solve no-cheap", { Asp.Solver.Config.default with cheap_tier = false });
      ( "solve raw",
        {
          Asp.Solver.Config.default with
          preprocess = false;
          cheap_tier = false;
        } );
    ];
  (* guiding-path parallel enumeration, shared and isolated exchanges:
     the merged model sets and costs must equal the sequential run *)
  List.iter
    (fun (jobs, share) ->
      let r = Engine.Par.enumerate ~oversubscribe:true ~jobs ~share g in
      compare_on
        ~what:(Printf.sprintf "par jobs=%d share=%b" jobs share)
        ~names:("par", "seq") src
        (outcome_of_models r.Engine.Par.models)
        cdnl)
    [ (2, true); (2, false); (4, true); (4, false) ]

let test_differential_seeded () =
  for seed = 0 to 99 do
    let rng = Random.State.make [| 0xC9A; seed |] in
    diff_one (gen_program rng)
  done

(* A stratified program's well-founded model is total, so the cheap tier
   must take every one of them; the non-stratified half must also reach
   CDNL, or the comparison would not cover both tiers. *)
let test_differential_normal () =
  let full = ref 0 in
  for seed = 0 to 99 do
    let rng = Random.State.make [| 0x4E0; seed |] in
    let stratified = seed mod 2 = 0 in
    let src = gen_normal_program ~stratified rng in
    let eligible =
      Asp.Solver.cheap_eligible
        (Asp.Grounder.ground (Asp.Parser.parse_program src))
    in
    if stratified && not eligible then
      fail (Printf.sprintf "stratified program left the cheap tier:\n%s" src);
    if not eligible then incr full;
    diff_one src
  done;
  check Alcotest.bool "some non-stratified programs reach CDNL" true (!full > 0)

(* hand-picked programs covering the corners the generator reaches only
   rarely *)
let test_differential_corners () =
  List.iter diff_one
    [
      (* choice bounds interacting with conditions *)
      "item(1). item(2). item(3). 1 { pick(X) : item(X) } 2.";
      (* choice atom also derivable by a plain rule *)
      "{ a }. a :- b. b.";
      "{ a }. a :- b. { b }.";
      (* empty-element choice still enforces its (trivial) bounds *)
      "1 { p(X) : q(X) } :- r. r.";
      (* multi-level strata under choices *)
      "{ a }. b :- not a. c :- b, not d. d :- a.";
      (* non-stratified programs with choices *)
      "{ c }. a :- not b, c. b :- not a.";
      (* odd loop: no models either way *)
      "p :- not p.";
      (* non-tight: positive recursion with external support *)
      "{ c }. p :- q. q :- p. p :- c.";
      "{ c }. p :- q. q :- p. p :- c. :- not p.";
      (* unfounded loop with no external support: atoms must stay false *)
      "p :- q. q :- p. r :- not p.";
      (* aggregates over choice-dependent atoms *)
      "item(1). item(2). { in(X) : item(X) }. :- #count { X : in(X) } > 1.";
      "n(1). n(2). { pick(X) : n(X) }. big :- #sum { X : pick(X) } >= 3.";
      (* aggregates in a non-stratified program: the oracles reject,
         the CDNL solver answers (verified by the GL check) *)
      "a :- not b. b :- not a. c :- #count { 1 : a } > 0.";
      (* weak constraints with negative weights: the mixed-sign lower
         bound must keep branch-and-bound sound *)
      "{ a ; b }. :~ a. [-2@1] :~ b. [1@1]";
      "{ a ; b ; c }. :~ a. [-1@2, x] :~ b. [-1@2, x] :~ c. [3@1]";
      (* weak tuple dedup across priorities *)
      "a. b. :~ a. [2@1, s] :~ b. [2@1, s] :~ a, b. [1@2]";
    ]

(* The non-stratified aggregate corner both oracles reject: pin the CDNL
   answer exactly, not just through the GL check. *)
let test_beyond_oracle_aggregate () =
  let src = "a :- not b. b :- not a. c :- #count { 1 : a } > 0." in
  let g = Asp.Grounder.ground (Asp.Parser.parse_program src) in
  (match run (fun () -> Asp_oracle.Naive.solve ~max_guess g) with
  | Rejected _ -> ()
  | Models _ -> fail "expected Naive to reject the non-stratified aggregate");
  let models =
    Asp.Solver.solve g
    |> List.map (fun m ->
           List.map Asp.Atom.to_string (Asp.Model.to_list m))
  in
  check
    Alcotest.(list (list string))
    "models of the non-stratified aggregate program"
    [ [ "a"; "c" ]; [ "b" ] ]
    models

(* Programs beyond the oracles' guess caps: Dfs and Naive reject, the
   CDNL solver must still enumerate. Full enumeration would be 2^20 and
   2^80 models, so the checks go through [limit] and [satisfiable]. *)
let test_beyond_guess_cap () =
  let check_rejected ~what g =
    (match run (fun () -> Asp_oracle.Dfs.solve ~max_guess g) with
    | Rejected _ -> ()
    | Models _ -> fail (what ^ ": expected Dfs to reject"));
    match run (fun () -> Asp_oracle.Naive.solve ~max_guess g) with
    | Rejected _ -> ()
    | Models _ -> fail (what ^ ": expected Naive to reject")
  in
  (* 20 choice atoms: beyond the historical test cap of 18 *)
  let wide =
    Printf.sprintf "{ %s }."
      (String.concat " ; " (List.init 20 (Printf.sprintf "x%d")))
  in
  let g = Asp.Grounder.ground (Asp.Parser.parse_program wide) in
  check_rejected ~what:"wide choice" g;
  check Alcotest.bool "wide choice satisfiable" true (Asp.Solver.satisfiable g);
  let ms = Asp.Solver.solve ~limit:5 g in
  check Alcotest.int "wide choice limited count" 5 (List.length ms);
  assert_stable ~what:"wide choice" wide g ms;
  (* 40 negative loops (80 guess atoms): beyond even the old production
     solver's 64-atom fallback cap *)
  let loops =
    String.concat "\n"
      (List.init 40 (fun i ->
           Printf.sprintf "a%d :- not b%d. b%d :- not a%d." i i i i))
  in
  let g = Asp.Grounder.ground (Asp.Parser.parse_program loops) in
  (match run (fun () -> Asp_oracle.Dfs.solve g) with
  | Rejected _ -> ()
  | Models _ -> fail "expected Dfs to reject 80 guess atoms at its default cap");
  check Alcotest.bool "80-atom loops satisfiable" true
    (Asp.Solver.satisfiable g);
  let ms = Asp.Solver.solve ~limit:5 g in
  check Alcotest.int "80-atom loops limited count" 5 (List.length ms);
  assert_stable ~what:"80-atom loops" loops g ms

(* The cheap-tier classifier: membership in the propagation-only
   fragment is decided before search, and the decision must be sound on
   non-tight inputs (foundedness holds because models are least
   fixpoints, not arbitrary supported sets). *)
let test_cheap_classifier () =
  let eligible src =
    Asp.Solver.cheap_eligible
      (Asp.Grounder.ground (Asp.Parser.parse_program src))
  in
  (* non-tight but inside the fragment: the lfp construction is founded,
     so the positive p/q loop cannot smuggle in an unfounded model *)
  check Alcotest.bool "non-tight choice-supported loop" true
    (eligible "{ c }. p :- q. q :- p. p :- c.");
  (* same program plus a negated constraint: it is pending on the
     derived atom p, which no choice can force, so CDNL must take over *)
  check Alcotest.bool "negated constraint rejects" false
    (eligible "{ c }. p :- q. q :- p. p :- c. :- not p.");
  (* a constraint pending on two free atoms cannot be resolved by
     forcing: full tier *)
  check Alcotest.bool "two-pending constraint rejects" false
    (eligible "{ a ; b }. :- a, b.");
  (* negation over an undecided choice atom leaves the fragment *)
  check Alcotest.bool "rule negation rejects" false
    (eligible "{ a }. b :- not a.");
  (* choice bounds leave the fragment *)
  check Alcotest.bool "choice bounds reject" false
    (eligible "1 { a ; b } 1.");
  (* classifier-proven unsat, no search: the forced closure violates a
     constraint in every candidate model *)
  let src = "{ c }. a :- c. a. :- a." in
  let g = Asp.Grounder.ground (Asp.Parser.parse_program src) in
  check Alcotest.bool "forced-contradiction still eligible" true
    (Asp.Solver.cheap_eligible g);
  let ms, s = Asp.Solver.solve_with_stats g in
  check Alcotest.int "forced contradiction is unsat" 0 (List.length ms);
  check Alcotest.bool "unsat proven in the cheap tier" true
    s.Asp.Solver.Stats.cheap;
  check Alcotest.int "no search needed" 0 s.Asp.Solver.Stats.guesses;
  (* negation the well-founded bounds decide stays in the fragment and
     is answered without CDNL *)
  let cheap_models ~what src expected =
    let g = Asp.Grounder.ground (Asp.Parser.parse_program src) in
    check Alcotest.bool (what ^ " eligible") true (Asp.Solver.cheap_eligible g);
    let ms, s = Asp.Solver.solve_with_stats g in
    check
      Alcotest.(list (list string))
      (what ^ " models") expected
      (List.map
         (fun m -> List.map Asp.Atom.to_string (Asp.Model.to_list m))
         ms);
    check Alcotest.bool (what ^ " solved in the cheap tier") true
      s.Asp.Solver.Stats.cheap
  in
  cheap_models ~what:"stratified chain" "a. b :- a. c :- not b. d :- not c."
    [ [ "a"; "b"; "d" ] ];
  cheap_models ~what:"negation over a fact" "{ c }. d :- c, not b. b."
    [ [ "b" ]; [ "b"; "c" ] ];
  (* undecided negation goes to CDNL *)
  check Alcotest.bool "even loop rejects" false
    (eligible "a :- not b. b :- not a.");
  let odd = "p :- not p." in
  check Alcotest.bool "odd loop rejects" false (eligible odd);
  let ms, s =
    Asp.Solver.solve_with_stats
      (Asp.Grounder.ground (Asp.Parser.parse_program odd))
  in
  check Alcotest.int "odd loop is unsat" 0 (List.length ms);
  check Alcotest.bool "odd loop answered by CDNL" false
    s.Asp.Solver.Stats.cheap;
  check Alcotest.bool "undecided negated guard rejects" false
    (eligible "{ a }. { b : not a }.");
  (* the reference chain shape solves in the cheap tier *)
  let chain =
    "{ s }. a1 :- s. a2 :- a1. a3 :- a2. a4 :- a3. goal :- a4."
  in
  let g = Asp.Grounder.ground (Asp.Parser.parse_program chain) in
  let ms, s = Asp.Solver.solve_with_stats g in
  check Alcotest.int "chain model count" 2 (List.length ms);
  check Alcotest.bool "chain solved in the cheap tier" true
    s.Asp.Solver.Stats.cheap

(* Preprocessing statistics: the pipeline must actually fire on shapes
   built to trigger each reduction, and report it in [Stats]. *)
let test_preprocess_stats () =
  (* facts force units through the completion; the cheap tier would
     bypass CDNL entirely, so pin it off to observe the preprocessor *)
  let no_cheap = { Asp.Solver.Config.default with cheap_tier = false } in
  let src = "a. b :- a. { c }. d :- c, not b." in
  let g = Asp.Grounder.ground (Asp.Parser.parse_program src) in
  let _, s = Asp.Solver.solve_with_stats ~config:no_cheap g in
  check Alcotest.bool "unit propagation fired"
    true (s.Asp.Solver.Stats.pre_units > 0);
  (* x and y only ever appear together in one body, which the constraint
     then forbids *)
  let src = "a :- x, y. { x ; y }. :- x, y." in
  let g = Asp.Grounder.ground (Asp.Parser.parse_program src) in
  let ms, s = Asp.Solver.solve_with_stats ~config:no_cheap g in
  check Alcotest.int "constrained-body program models" 3 (List.length ms);
  check Alcotest.bool "some reduction fired" true
    (s.Asp.Solver.Stats.pre_units > 0 || s.Asp.Solver.Stats.pre_equivs > 0);
  (* preprocessing off: both counters stay at zero *)
  let raw = { no_cheap with preprocess = false } in
  let _, s0 = Asp.Solver.solve_with_stats ~config:raw g in
  check Alcotest.int "no-preprocess leaves units at 0" 0
    s0.Asp.Solver.Stats.pre_units;
  check Alcotest.int "no-preprocess leaves equivs at 0" 0
    s0.Asp.Solver.Stats.pre_equivs;
  (* the solver bench's pigeonhole encoding (5 holes): equivalence
     reduction is the pass that cuts its conflict count, so it must
     fire there *)
  let src =
    "pigeon(1..6). hole(1..5). { at(P,H) : hole(H) } :- pigeon(P).\n\
     placed(P) :- at(P,H). :- pigeon(P), not placed(P).\n\
     :- at(P,H), at(Q,H), P < Q."
  in
  let g = Asp.Grounder.ground (Asp.Parser.parse_program src) in
  let ms, s = Asp.Solver.solve_with_stats ~config:no_cheap g in
  check Alcotest.int "pigeon 5 is unsatisfiable" 0 (List.length ms);
  check Alcotest.bool "pigeon 5 merges body variables" true
    (s.Asp.Solver.Stats.pre_equivs > 0)

let suites =
  [
    ( "asp.solver_diff",
      [
        Alcotest.test_case "100 seeded random programs" `Quick
          test_differential_seeded;
        Alcotest.test_case "100 seeded normal programs" `Quick
          test_differential_normal;
        Alcotest.test_case "corner programs" `Quick test_differential_corners;
        Alcotest.test_case "cheap-tier classifier" `Quick
          test_cheap_classifier;
        Alcotest.test_case "preprocessing statistics" `Quick
          test_preprocess_stats;
        Alcotest.test_case "non-stratified aggregate beyond the oracles"
          `Quick test_beyond_oracle_aggregate;
        Alcotest.test_case "programs beyond the oracle guess caps" `Quick
          test_beyond_guess_cap;
      ] );
  ]
