(* Second differential fuzzer, folded in from the PR-2 review scratch work:
   a different seed base and a generator biased toward larger programs (more
   atoms, more strata, more choice rules, weak constraints with tuple terms)
   than the one in [Test_solver_diff], plus dedicated generators for
   non-tight programs (positive recursion with choice-controlled external
   support) and non-stratified programs (even loops through negation,
   choices conditioned on loop atoms). The CDNL solver, the retained DFS
   and the exhaustive reference must agree on the model sets, the
   per-model costs and the optima; where an oracle rejects, the CDNL
   answer is verified through the Gelfond–Lifschitz check. *)

type outcome =
  | Models of (string list * Asp.Model.cost) list
  | Rejected of string

let outcome_of_models models =
  Models
    (List.map
       (fun m ->
         ( List.map Asp.Atom.to_string (Asp.Model.to_list m),
           Asp.Model.cost m ))
       models)

let run f =
  match f () with
  | models -> outcome_of_models models
  | exception Asp_oracle.Dfs.Unsupported msg -> Rejected msg
  | exception Asp_oracle.Naive.Unsupported msg -> Rejected msg

let agree a b =
  match (a, b) with
  | Rejected x, Rejected y -> x = y
  | Models xs, Models ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (ax, cx) (ay, cy) -> ax = ay && Asp.Model.compare_cost cx cy = 0)
           xs ys
  | _ -> false

let assert_stable ~tag src g models =
  List.iter
    (fun m ->
      if not (Asp_oracle.Naive.is_stable_model g (Asp.Model.atoms m)) then
        Alcotest.fail
          (Printf.sprintf "%s: non-stable model {%s} on:\n%s" tag
             (String.concat ","
                (List.map Asp.Atom.to_string (Asp.Model.to_list m)))
             src))
    models

(* Three-way differential on one program: Dfs must match Naive exactly
   (including rejection messages); the CDNL solver must match Naive when
   Naive accepts and pass the GL check otherwise. *)
let diff3 ~tag seed src =
  let g = Asp.Grounder.ground (Asp.Parser.parse_program src) in
  let fail_diverge what a b =
    Alcotest.fail
      (Printf.sprintf "%s divergence (%s) at %s seed %d:\n%s" what
         (match (a, b) with
         | Rejected x, Rejected y when x <> y -> "rejection messages"
         | Rejected _, _ | _, Rejected _ -> "rejection vs models"
         | _ -> "model sets")
         tag seed src)
  in
  let naive = run (fun () -> Asp_oracle.Naive.solve ~max_guess:16 g) in
  let dfs = run (fun () -> Asp_oracle.Dfs.solve ~max_guess:16 g) in
  if not (agree dfs naive) then fail_diverge "solve dfs/naive" dfs naive;
  let cdnl_models = Asp.Solver.solve g in
  let cdnl = outcome_of_models cdnl_models in
  (match naive with
  | Models _ ->
      if not (agree cdnl naive) then fail_diverge "solve cdnl/naive" cdnl naive
  | Rejected _ -> assert_stable ~tag src g cdnl_models);
  let naive_opt =
    run (fun () -> Asp_oracle.Naive.solve_optimal ~max_guess:16 g)
  in
  let dfs_opt = run (fun () -> Asp_oracle.Dfs.solve_optimal ~max_guess:16 g) in
  if not (agree dfs_opt naive_opt) then
    fail_diverge "solve_optimal dfs/naive" dfs_opt naive_opt;
  let cdnl_opt = outcome_of_models (Asp.Solver.solve_optimal g) in
  (match naive_opt with
  | Models _ ->
      if not (agree cdnl_opt naive_opt) then
        fail_diverge "solve_optimal cdnl/naive" cdnl_opt naive_opt
  | Rejected _ -> ());
  (* preprocessing and the cheap tier are pure accelerations: every
     switch combination must reproduce the default answer bit for bit *)
  List.iter
    (fun config ->
      let variant = outcome_of_models (Asp.Solver.solve ~config g) in
      if not (agree variant cdnl) then
        fail_diverge "solve config A/B" variant cdnl)
    [
      { Asp.Solver.Config.default with preprocess = false };
      { Asp.Solver.Config.default with cheap_tier = false };
      { Asp.Solver.Config.default with preprocess = false; cheap_tier = false };
    ];
  (* guiding-path sharing on a sample of the corpus (every fifth seed,
     to keep the suite quick): 2- and 4-domain enumeration, shared and
     isolated, must reproduce the sequential model sets and costs *)
  if seed mod 5 = 0 then
    List.iter
      (fun (jobs, share) ->
        let r = Engine.Par.enumerate ~oversubscribe:true ~jobs ~share g in
        let par = outcome_of_models r.Engine.Par.models in
        if not (agree par cdnl) then
          fail_diverge
            (Printf.sprintf "par jobs=%d share=%b" jobs share)
            par cdnl)
      [ (2, true); (2, false); (4, true); (4, false) ]

(* ------------------------------------------------------------------ *)
(* Generator 1: large mixed programs (the original fuzzer)              *)
(* ------------------------------------------------------------------ *)

let gen_program rng =
  let int n = Random.State.int rng n in
  let bool () = Random.State.bool rng in
  let n_atoms = 5 + int 5 in
  let atom i = Printf.sprintf "a%d" i in
  let rand_atom () = atom (int n_atoms) in
  let lit () = (if int 3 = 0 then "not " else "") ^ rand_atom () in
  let lits n = List.init n (fun _ -> lit ()) in
  let buf = Buffer.create 256 in
  let stmt fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  for _ = 1 to 1 + int 2 do stmt "%s." (rand_atom ()) done;
  for _ = 1 to 3 + int 5 do
    stmt "%s :- %s." (rand_atom ()) (String.concat ", " (lits (1 + int 3)))
  done;
  for _ = 1 to 1 + int 3 do
    let elems =
      List.init (1 + int 3) (fun _ ->
          if bool () then rand_atom ()
          else Printf.sprintf "%s : %s" (rand_atom ()) (rand_atom ()))
    in
    let body =
      match int 3 with 0 -> "" | n -> " :- " ^ String.concat ", " (lits n)
    in
    let lower = if int 3 = 0 then string_of_int (int 2) ^ " " else "" in
    let upper = if int 3 = 0 then " " ^ string_of_int (1 + int 2) else "" in
    stmt "%s{ %s }%s%s." lower (String.concat " ; " elems) upper body
  done;
  for _ = 1 to int 4 do stmt ":- %s." (String.concat ", " (lits (1 + int 2))) done;
  if int 2 = 0 then begin
    let op = match int 4 with 0 -> ">" | 1 -> "<=" | 2 -> "=" | _ -> ">=" in
    let agg = if bool () then "#count" else "#sum" in
    let body =
      Printf.sprintf "%s { %d : %s } %s %d" agg (1 + int 3)
        (String.concat ", " (lits (1 + int 2))) op (int 3)
    in
    if bool () then stmt ":- %s." body else stmt "%s :- %s." (rand_atom ()) body
  end;
  for _ = 1 to int 4 do
    let weight = int 8 - 3 in
    let terms = if bool () then ", t" ^ string_of_int (int 2) else "" in
    stmt ":~ %s. [%d@%d%s]"
      (String.concat ", " (lits (1 + int 2)))
      weight (1 + int 3) terms
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Generator 2: non-tight programs                                      *)
(* ------------------------------------------------------------------ *)

(* Positive recursion: pairs of mutually dependent atoms whose external
   support comes (or fails to come) from choice atoms. Exercises the
   CDNL solver's unfounded-set checks against oracles that handle these
   programs natively (no negation inside the cycles). *)
let gen_nontight rng =
  let int n = Random.State.int rng n in
  let bool () = Random.State.bool rng in
  let n_choice = 2 + int 3 in
  let n_pairs = 2 + int 3 in
  let choice i = Printf.sprintf "c%d" i in
  let p i = Printf.sprintf "p%d" i and q i = Printf.sprintf "q%d" i in
  let buf = Buffer.create 256 in
  let stmt fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  stmt "{ %s }." (String.concat " ; " (List.init n_choice choice));
  for i = 0 to n_pairs - 1 do
    stmt "%s :- %s." (p i) (q i);
    stmt "%s :- %s." (q i) (p i);
    (* external support, sometimes absent: the cycle must then stay false *)
    if int 4 > 0 then stmt "%s :- %s." (p i) (choice (int n_choice));
    (* occasionally chain cycles together into a bigger SCC *)
    if i > 0 && int 3 = 0 then begin
      stmt "%s :- %s." (p i) (q (int i));
      if bool () then stmt "%s :- %s." (q (int i)) (p i)
    end
  done;
  (* derived layer with negation outside the cycles *)
  for _ = 1 to 1 + int 2 do
    stmt "d :- %s, not %s." (p (int n_pairs)) (choice (int n_choice))
  done;
  (* constraints over cycle atoms *)
  for _ = 1 to int 3 do
    if bool () then stmt ":- not %s." (p (int n_pairs))
    else stmt ":- %s, %s." (q (int n_pairs)) (choice (int n_choice))
  done;
  (* weak constraints, mixed sign *)
  for _ = 1 to int 3 do
    stmt ":~ %s. [%d@%d]" (p (int n_pairs)) (int 5 - 2) (1 + int 2)
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Generator 3: non-stratified programs                                 *)
(* ------------------------------------------------------------------ *)

(* Even loops through negation, choices conditioned on loop atoms, and
   occasionally positive recursion supported by a negation-derived atom
   (non-tight and non-stratified at once). Small enough for the oracles'
   exhaustive fallback. *)
let gen_nonstrat rng =
  let int n = Random.State.int rng n in
  let bool () = Random.State.bool rng in
  let n_pairs = 2 + int 2 in
  let x i = Printf.sprintf "x%d" i and y i = Printf.sprintf "y%d" i in
  let buf = Buffer.create 256 in
  let stmt fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  for i = 0 to n_pairs - 1 do
    let extra =
      if i > 0 && int 3 = 0 then Printf.sprintf ", %s" (x (int i)) else ""
    in
    stmt "%s :- not %s%s." (x i) (y i) extra;
    stmt "%s :- not %s." (y i) (x i)
  done;
  (* a choice conditioned on a loop atom *)
  if bool () then stmt "{ c : %s ; e }." (x (int n_pairs))
  else stmt "{ c ; e }.";
  (* positive cycle fed by a negation-derived atom *)
  if int 2 = 0 then begin
    stmt "p :- q. q :- p.";
    stmt "p :- %s." (x (int n_pairs));
    if bool () then stmt ":- not p."
  end;
  for _ = 1 to int 3 do
    let a = if bool () then x (int n_pairs) else y (int n_pairs) in
    let b = if bool () then "c" else "e" in
    if bool () then stmt ":- %s, %s." a b else stmt ":- %s, not %s." a b
  done;
  for _ = 1 to int 3 do
    let a = if bool () then x (int n_pairs) else "c" in
    stmt ":~ %s. [%d@%d]" a (int 6 - 2) (1 + int 2)
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Suites                                                               *)
(* ------------------------------------------------------------------ *)

let test_fuzz_seeded () =
  for seed = 0 to 149 do
    let rng = Random.State.make [| 0xBEEF; seed |] in
    diff3 ~tag:"mixed" seed (gen_program rng)
  done

let test_fuzz_nontight () =
  for seed = 0 to 99 do
    let rng = Random.State.make [| 0x710; seed |] in
    diff3 ~tag:"nontight" seed (gen_nontight rng)
  done

let test_fuzz_nonstrat () =
  for seed = 0 to 99 do
    let rng = Random.State.make [| 0x57A7; seed |] in
    diff3 ~tag:"nonstrat" seed (gen_nonstrat rng)
  done

(* Stats must be fresh per call: two consecutive solves of the same
   program report independent wall times and identical (deterministic)
   counters, and the first report is not mutated by the second solve. *)
let test_stats_reentrant () =
  let src = "{ a ; b ; c }. p :- q. q :- p. p :- a. :- a, b, c." in
  let g = Asp.Grounder.ground (Asp.Parser.parse_program src) in
  let ms1, s1 = Asp.Solver.solve_with_stats g in
  let w1 = s1.Asp.Solver.Stats.wall_s in
  let g1 = s1.Asp.Solver.Stats.guesses in
  let ms2, s2 = Asp.Solver.solve_with_stats g in
  if s1 == s2 then Alcotest.fail "solve_with_stats reused the stats record";
  Alcotest.check (Alcotest.float 0.0) "first wall time left untouched" w1
    s1.Asp.Solver.Stats.wall_s;
  Alcotest.check Alcotest.int "deterministic guess count" g1
    s2.Asp.Solver.Stats.guesses;
  if not (s2.Asp.Solver.Stats.wall_s >= 0.0) then
    Alcotest.fail "second wall time negative";
  Alcotest.check Alcotest.int "same models both times" (List.length ms1)
    (List.length ms2);
  (* same property for the retained DFS *)
  let _, d1 = Asp_oracle.Dfs.solve_with_stats g in
  let dw1 = d1.Asp_oracle.Dfs.Stats.wall_s in
  let _, d2 = Asp_oracle.Dfs.solve_with_stats g in
  if d1 == d2 then Alcotest.fail "Dfs.solve_with_stats reused the stats record";
  Alcotest.check (Alcotest.float 0.0) "dfs first wall time left untouched" dw1
    d1.Asp_oracle.Dfs.Stats.wall_s

(* One prepared solver must answer a run of assumption sets as fresh
   solves do. Each call draws its assumptions from the program's universe
   (plus an atom it lacks) and a mode: full enumeration, whose blocking
   nogoods are path-local; a one-model limit; or optimisation, whose bound
   prunes are. Enumeration and optima must equal a fresh solve's; a
   limited call must find a model exactly when the fresh one does, and
   the one it returns must be among the fresh enumeration's. The extra
   non-tight seeds are runs where a call without assumptions forces a
   level-0 fact through a blocking nogood: the nogoods learned after it
   must be dropped with it. *)
let check_call ~where h g ~assumptions mode =
  let all = Asp.Solver.solve ~assumptions g in
  let same what got want =
    if not (agree (outcome_of_models got) (outcome_of_models want)) then
      Alcotest.fail (Printf.sprintf "%s differs at %s" what where)
  in
  match mode with
  | `Enumerate ->
      same "enumeration" (fst (Asp.Solver.search ~assumptions h)) all
  | `First -> (
      match fst (Asp.Solver.search ~limit:1 ~assumptions h) with
      | [] when all = [] -> ()
      | [ m ] when List.exists (fun m' -> Asp.Model.compare m m' = 0) all ->
          ()
      | got ->
          Alcotest.fail
            (Printf.sprintf "limit 1: %d models, not one of the %d at %s"
               (List.length got) (List.length all) where))
  | `Optimum ->
      same "optimum"
        (fst (Asp.Solver.search_optimal ~assumptions h))
        (Asp.Solver.solve_optimal ~assumptions g)

let test_handle_reuse () =
  let missing = Asp.Atom.make "zz_absent" [] in
  let run_seed tag gen_base gen seed =
    let src = gen (Random.State.make [| gen_base; seed |]) in
    let g = Asp.Grounder.ground (Asp.Parser.parse_program src) in
    let universe =
      Array.of_list (Asp.Model.AtomSet.elements g.Asp.Ground.universe)
    in
    let rng = Random.State.make [| 0x4EA5; gen_base; seed |] in
    let int n = Random.State.int rng n in
    let draw () =
      List.init (int 4) (fun _ ->
          let a =
            if Array.length universe = 0 || int 8 = 0 then missing
            else universe.(int (Array.length universe))
          in
          (a, int 3 > 0))
    in
    let h = Asp.Solver.prepare g in
    for call = 0 to 29 do
      (* every fifth call enumerates everything under no assumptions, so
         a blocking nogood kept from an earlier one would hide models *)
      let assumptions = if call mod 5 = 0 then [] else draw () in
      let mode =
        if call mod 5 = 0 then `Enumerate
        else match int 3 with 0 -> `Enumerate | 1 -> `First | _ -> `Optimum
      in
      let where =
        Printf.sprintf "%s seed %d call %d {%s}:\n%s" tag seed call
          (String.concat ", "
             (List.map
                (fun (a, v) ->
                  (if v then "" else "not ") ^ Asp.Atom.to_string a)
                assumptions))
          src
      in
      check_call ~where h g ~assumptions mode
    done
  in
  List.iter
    (fun (tag, gen_base, gen, extra) ->
      List.iter (run_seed tag gen_base gen) (List.init 40 Fun.id @ extra))
    [
      ("mixed", 0xBEEF, gen_program, []);
      ("nontight", 0x710, gen_nontight, [ 359; 610; 773; 976 ]);
      ("nonstrat", 0x57A7, gen_nonstrat, []);
    ]

let suites =
  [
    ( "asp.solver_fuzz",
      [
        Alcotest.test_case "150 seeded large random programs" `Quick
          test_fuzz_seeded;
        Alcotest.test_case "100 seeded non-tight programs" `Quick
          test_fuzz_nontight;
        Alcotest.test_case "100 seeded non-stratified programs" `Quick
          test_fuzz_nonstrat;
        Alcotest.test_case "stats are fresh per call" `Quick
          test_stats_reentrant;
        Alcotest.test_case "one reusable solver answers like fresh solves"
          `Quick test_handle_reuse;
      ] );
  ]
