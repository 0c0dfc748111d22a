(* Differential tests for the grounder rewrite: the production grounder
   (Asp.Grounder — semi-naive fixpoint, first-argument indexes, incremental
   extend) against the retained naive oracle (Asp_oracle.Naive_ground) on
   seeded random non-ground programs and hand-picked corners. One-shot grounding
   must agree bit-for-bit on the produced Ground.t; prepare/extend must
   agree with grounding base+delta from scratch up to the duplicate-rule
   caveat documented on [Asp.Grounder.extend]. *)

let check = Alcotest.check
let fail = Alcotest.fail

(* keep the universes small so unbounded arithmetic recursion, when the
   generator produces it, overflows quickly on both sides *)
let max_atoms = 400

(* ------------------------------------------------------------------ *)
(* Seeded random non-ground program generator                           *)
(* ------------------------------------------------------------------ *)

(* Programs over unary preds p/q/t, binary r/e, choice-head h, with
   integer constants only (so comparisons and assignments always evaluate),
   exercising joins, recursion, default negation, assignments, builtin
   comparisons, choice rules with conditions, aggregates over variables,
   integrity and weak constraints. Safety is maintained by construction:
   head, negated and builtin variables are drawn from variables already
   used in positive body literals (or assigned). *)

let upreds = [| "p"; "q"; "t" |]
let bpreds = [| "r"; "e" |]

let gen_facts rng buf n =
  let int n = Random.State.int rng n in
  let stmt fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  for _ = 1 to n do
    if Random.State.bool rng then
      stmt "%s(%d)." upreds.(int 3) (1 + int 4)
    else stmt "%s(%d,%d)." bpreds.(int 2) (1 + int 4) (1 + int 4)
  done

let gen_rule rng buf =
  let int n = Random.State.int rng n in
  let bool () = Random.State.bool rng in
  let stmt fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let vars = [| "X"; "Y"; "Z" |] in
  let used = ref [] in
  let use v = if not (List.mem v !used) then used := v :: !used in
  let arg () =
    if int 4 = 0 then string_of_int (1 + int 4)
    else begin
      let v = vars.(int 3) in
      use v;
      v
    end
  in
  let body =
    List.init (1 + int 2) (fun _ ->
        if bool () then Printf.sprintf "%s(%s)" upreds.(int 3) (arg ())
        else Printf.sprintf "%s(%s,%s)" bpreds.(int 2) (arg ()) (arg ()))
  in
  let bound () =
    match !used with
    | [] -> string_of_int (1 + int 4)
    | l -> List.nth l (int (List.length l))
  in
  let body, assigned =
    if !used <> [] && int 3 = 0 then
      (body @ [ Printf.sprintf "W = %s + %d" (bound ()) (int 3) ], true)
    else (body, false)
  in
  let body =
    if int 3 = 0 then
      body
      @ [
          (if bool () then Printf.sprintf "not %s(%s)" upreds.(int 3) (bound ())
           else
             Printf.sprintf "not %s(%s,%s)" bpreds.(int 2) (bound ()) (bound ()));
        ]
    else body
  in
  let body =
    if !used <> [] && int 3 = 0 then begin
      let ops = [| "<"; "<="; ">"; ">="; "!="; "=" |] in
      body
      @ [
          Printf.sprintf "%s %s %s" (bound ()) ops.(int 6)
            (if bool () then bound () else string_of_int (int 5));
        ]
    end
    else body
  in
  let head_arg () =
    if assigned && bool () then "W"
    else if int 4 = 0 then string_of_int (1 + int 4)
    else bound ()
  in
  let head =
    if bool () then Printf.sprintf "%s(%s)" upreds.(int 3) (head_arg ())
    else Printf.sprintf "%s(%s,%s)" bpreds.(int 2) (head_arg ()) (head_arg ())
  in
  stmt "%s :- %s." head (String.concat ", " body)

let gen_choice rng buf =
  let int n = Random.State.int rng n in
  let bool () = Random.State.bool rng in
  let stmt fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let elems =
    List.init (1 + int 2) (fun _ ->
        let v = [| "X"; "Y" |].(int 2) in
        Printf.sprintf "h(%s) : %s(%s)" v upreds.(int 3) v)
  in
  let body =
    if bool () then ""
    else Printf.sprintf " :- %s(%s)" upreds.(int 3) (string_of_int (1 + int 4))
  in
  let lower = if int 3 = 0 then string_of_int (int 2) ^ " " else "" in
  let upper = if int 3 = 0 then " " ^ string_of_int (1 + int 2) else "" in
  stmt "%s{ %s }%s%s." lower (String.concat " ; " elems) upper body

let gen_extras rng buf =
  let int n = Random.State.int rng n in
  let bool () = Random.State.bool rng in
  let stmt fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  (* aggregates over variables: multi-element ground aggregates *)
  if int 2 = 0 then begin
    let agg = if bool () then "#count" else "#sum" in
    let op = [| ">="; "<="; ">"; "<" |].(int 4) in
    stmt "g(X) :- %s(X), %s { Y : %s(X,Y) } %s %d." upreds.(int 3) agg
      bpreds.(int 2) op (int 3)
  end;
  if int 3 = 0 then stmt "win :- #count { X : h(X) } >= %d." (1 + int 2);
  (* integrity constraints *)
  if int 2 = 0 then
    stmt ":- %s(X), not %s(X)." upreds.(int 3) upreds.(int 3);
  (* weak constraints, sometimes with a variable weight *)
  if int 2 = 0 then begin
    if bool () then stmt ":~ %s(X). [X@%d, X]" upreds.(int 3) (1 + int 2)
    else
      stmt ":~ %s(X,Y). [%d@1, X, Y]" bpreds.(int 2) (1 + int 3)
  end

let gen_program rng =
  let int n = Random.State.int rng n in
  let buf = Buffer.create 512 in
  gen_facts rng buf (3 + int 4);
  for _ = 1 to 2 + int 4 do
    gen_rule rng buf
  done;
  for _ = 1 to 1 + int 2 do
    gen_choice rng buf
  done;
  gen_extras rng buf;
  Buffer.contents buf

(* a small increment over the same vocabulary, for the extend tests *)
let gen_delta rng =
  let int n = Random.State.int rng n in
  let buf = Buffer.create 128 in
  gen_facts rng buf (1 + int 3);
  for _ = 1 to int 3 do
    gen_rule rng buf
  done;
  if int 3 = 0 then gen_choice rng buf;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Builtin-heavy and interval-comparison generators                     *)
(* ------------------------------------------------------------------ *)

(* Rules whose bodies are dominated by builtins — several comparisons and
   chained assignments per rule over integer-valued predicates — so the
   pending-builtin discharge order and the builtin-aware index probing
   carry most of the work. *)
let gen_builtin_rule rng buf =
  let int n = Random.State.int rng n in
  let bool () = Random.State.bool rng in
  let stmt fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let ops = [| "<"; "<="; ">"; ">="; "!=" |] in
  let body = ref [ Printf.sprintf "%s(X)" upreds.(int 3) ] in
  let used = ref [ "X" ] in
  if bool () then begin
    body := !body @ [ Printf.sprintf "%s(X,Y)" bpreds.(int 2) ];
    used := "Y" :: !used
  end;
  let pick l = List.nth l (int (List.length l)) in
  (* one to three comparisons: variable vs constant (the range-probe
     shape) and variable vs variable *)
  for _ = 1 to 1 + int 3 do
    let l = pick !used in
    let r = if bool () then string_of_int (int 6) else pick !used in
    body := !body @ [ Printf.sprintf "%s %s %s" l ops.(int 5) r ]
  done;
  (* zero to two chained assignments *)
  let assigned = ref [] in
  for i = 1 to int 3 do
    let w = Printf.sprintf "W%d" i in
    let src =
      match !assigned with
      | a :: _ when bool () -> a
      | _ -> pick !used
    in
    let op = if bool () then "+" else "*" in
    body := !body @ [ Printf.sprintf "%s = %s %s %d" w src op (1 + int 3) ];
    assigned := w :: !assigned
  done;
  let head_arg =
    match !assigned with w :: _ when bool () -> w | _ -> pick !used
  in
  stmt "%s(%s) :- %s." upreds.(int 3) head_arg (String.concat ", " !body)

let gen_builtin_program rng =
  let int n = Random.State.int rng n in
  let buf = Buffer.create 512 in
  gen_facts rng buf (4 + int 5);
  for _ = 1 to 3 + int 4 do
    gen_builtin_rule rng buf
  done;
  Buffer.contents buf

(* Interval-comparison joins over dense integer ranges: the enumerated
   literal's only variable is bounded by comparisons against constants or
   against already-bound variables — exactly the shape the grounder's
   range tier narrows. A sparse integer predicate rides along so missing
   buckets and partial ranges are hit too. *)
let gen_interval_program rng =
  let int n = Random.State.int rng n in
  let bool () = Random.State.bool rng in
  let buf = Buffer.create 512 in
  let stmt fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let n = 8 + int 17 in
  stmt "m(1..%d)." (4 + int 8);
  stmt "n(1..%d)." n;
  for _ = 1 to 3 + int 4 do
    stmt "s(%d)." (1 + int (2 * n))
  done;
  let ops = [| "<"; "<="; ">"; ">=" |] in
  for _ = 1 to 3 + int 4 do
    let second = if bool () then "n" else "s" in
    let guards =
      Printf.sprintf "Y %s X" ops.(int 4)
      ::
      (if bool () then [ Printf.sprintf "Y %s %d" ops.(int 4) (1 + int n) ]
       else [])
    in
    stmt "j%d(X,Y) :- m(X), %s(Y), %s." (int 5) second
      (String.concat ", " guards)
  done;
  (* interval membership between two constants *)
  for _ = 1 to 1 + int 3 do
    let a = 1 + int n and b = 1 + int n in
    stmt "in%d(Y) :- n(Y), Y >= %d, Y <= %d." (int 3) (min a b) (max a b)
  done;
  (* recursion through an interval guard *)
  if bool () then stmt "r(1). r(X+1) :- r(X), X < %d." (3 + int 10);
  Buffer.contents buf

(* increments over the interval vocabulary: new sparse facts, sometimes a
   widened dense range or a fresh guarded rule *)
let gen_interval_delta rng =
  let int n = Random.State.int rng n in
  let buf = Buffer.create 128 in
  let stmt fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  for _ = 1 to 2 + int 3 do
    stmt "s(%d)." (1 + int 40)
  done;
  if int 2 = 0 then stmt "n(%d..%d)." (20 + int 5) (26 + int 6);
  if int 2 = 0 then stmt "k%d(Y) :- n(Y), Y > %d." (int 3) (int 20);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Symbolic-term generator                                             *)
(* ------------------------------------------------------------------ *)

(* Programs over symbolic constants, integers and nested function terms
   f/1, g/2, in three strata (facts s0/d0, and n0 over integers only;
   s1/d1 derived from stratum 0; s2/d2 from strata 0-1), so no rule
   recurses and a program never overflows. They exercise what the
   integer-only generators above never reach: nested patterns,
   arithmetic inside body-atom arguments ([s1(X+1)], [d1(X*2,Y)] with X
   bound by an earlier literal), comparisons mixing symbols, integers
   and function terms, and arithmetic on symbols — an evaluation error,
   which both grounders must report as [Unsafe].
   Evaluation errors are kept order-independent: a rule that can raise
   has one positive literal, or a second literal whose arithmetic reads
   only the first literal's variables, so every join order reaches the
   same evaluations. *)

let sym_value rng =
  let int n = Random.State.int rng n in
  let atomic () =
    if int 3 = 0 then [| "a"; "b"; "c" |].(int 3) else string_of_int (int 4)
  in
  match int 7 with
  | 0 -> Printf.sprintf "f(%s)" (atomic ())
  | 1 -> Printf.sprintf "g(%s,%s)" (atomic ()) (atomic ())
  | _ -> atomic ()

let gen_sym_facts rng buf n =
  let stmt fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  for _ = 1 to n do
    match Random.State.int rng 5 with
    | 0 -> stmt "n0(%d)." (Random.State.int rng 4)
    | 1 | 2 -> stmt "s0(%s)." (sym_value rng)
    | _ -> stmt "d0(%s,%s)." (sym_value rng) (sym_value rng)
  done

(* one rule deriving into stratum [lvl] (1 or 2) *)
let gen_sym_rule rng buf lvl =
  let int n = Random.State.int rng n in
  let bool () = Random.State.bool rng in
  let stmt fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let lower () = string_of_int (int lvl) in
  let const () =
    match int 4 with
    | 0 -> "a"
    | 1 -> "f(b)"
    | _ -> string_of_int (int 4)
  in
  let cmp () = [| "<"; "<="; ">"; ">="; "!="; "=" |].(int 6) in
  let pick vs = List.nth vs (int (List.length vs)) in
  let head vs =
    match int 4 with
    | 0 -> Printf.sprintf "s%d(f(%s))" lvl (pick vs)
    | 1 -> Printf.sprintf "d%d(%s,%s)" lvl (pick vs) (const ())
    | 2 -> Printf.sprintf "d%d(%s,%s)" lvl (pick vs) (pick vs)
    | _ -> Printf.sprintf "s%d(%s)" lvl (pick vs)
  in
  let neg vs =
    if int 3 = 0 then [ Printf.sprintf "not s%s(%s)" (lower ()) (pick vs) ]
    else []
  in
  match int 5 with
  | 0 | 1 ->
      (* join over nested patterns: no arithmetic, cannot raise *)
      let first =
        match int 3 with
        | 0 -> (Printf.sprintf "d%s(f(X),Y)" (lower ()), [ "X"; "Y" ])
        | 1 -> (Printf.sprintf "d%s(X,g(Y,Z))" (lower ()), [ "X"; "Y"; "Z" ])
        | _ -> (Printf.sprintf "d%s(X,Y)" (lower ()), [ "X"; "Y" ])
      in
      let lits, vs = first in
      let lits, vs =
        if bool () then
          let y = if bool () then "Y" else "f(Y)" in
          (lits ^ Printf.sprintf ", s%s(%s)" (lower ()) y, vs)
        else if bool () then
          (lits ^ Printf.sprintf ", d%s(Y,W)" (lower ()), "W" :: vs)
        else (lits, vs)
      in
      let guard =
        if bool () then
          let rhs = if bool () then const () else pick vs in
          [ Printf.sprintf "%s %s %s" (pick vs) (cmp ()) rhs ]
        else []
      in
      stmt "%s :- %s." (head vs)
        (String.concat ", " ((lits :: guard) @ neg vs))
  | 2 ->
      (* one literal, then arithmetic: an assignment, a comparison against
         an arithmetic term, or an arithmetic head *)
      let lit =
        match int 4 with
        | 0 -> Printf.sprintf "s%s(X)" (lower ())
        | 1 -> Printf.sprintf "d%s(X,Y)" (lower ())
        | _ -> "n0(X)"
      in
      let vs = if String.contains lit 'Y' then [ "X"; "Y" ] else [ "X" ] in
      let body, vs =
        match int 4 with
        | 0 ->
            let op = if bool () then "+" else "*" in
            ([ lit; Printf.sprintf "W = X %s %d" op (1 + int 2) ], "W" :: vs)
        | 1 ->
            let c = if bool () then "a" else "2" in
            ([ lit; Printf.sprintf "X %s %s + 1" (cmp ()) c ], vs)
        | 2 -> ([ lit; Printf.sprintf "W = %d / X" (1 + int 6) ], "W" :: vs)
        | _ -> ([ lit ], vs)
      in
      let h = if int 3 = 0 then Printf.sprintf "s%d(X+1)" lvl else head vs in
      stmt "%s :- %s." h (String.concat ", " (body @ neg vs))
  | 3 ->
      (* arithmetic inside a body-atom argument, over the first literal's
         variable *)
      let second =
        if bool () then Printf.sprintf "s%s(X+1)" (lower ())
        else Printf.sprintf "d%s(X*2,Y)" (lower ())
      in
      let vs = if String.contains second 'Y' then [ "X"; "Y" ] else [ "X" ] in
      let first =
        if int 3 = 0 then Printf.sprintf "s%s(X)" (lower ()) else "n0(X)"
      in
      stmt "%s :- %s, %s." (head vs) first
        (String.concat ", " (second :: neg vs))
  | _ ->
      (* the same, the bound variable nested and the arithmetic in a
         negated literal *)
      stmt "%s :- d%s(f(X),Y), not s%s(X+1)." (head [ "X"; "Y" ]) (lower ())
        (lower ())

let gen_sym_program rng =
  let int n = Random.State.int rng n in
  let buf = Buffer.create 512 in
  let stmt fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  gen_sym_facts rng buf (4 + int 5);
  for _ = 1 to 1 + int 3 do
    gen_sym_rule rng buf 1
  done;
  for _ = 1 to 1 + int 3 do
    gen_sym_rule rng buf 2
  done;
  if int 2 = 0 then
    stmt "{ pick(X) : s1(X) ; pick(f(X)) : d0(X,a) } 2 :- s0(%s)."
      (sym_value rng);
  if int 2 = 0 then
    stmt "cnt(X) :- s0(X), #count { Y : d%d(X,Y) } >= %d." (int 2) (int 2);
  if int 3 = 0 then stmt ":- s2(X), not d1(X,a).";
  if int 3 = 0 then stmt ":~ s1(X). [1@1, X]";
  Buffer.contents buf

let gen_sym_delta rng =
  let int n = Random.State.int rng n in
  let buf = Buffer.create 128 in
  gen_sym_facts rng buf (1 + int 3);
  if int 2 = 0 then gen_sym_rule rng buf (1 + int 2);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* One-shot grounding: bit-for-bit parity                               *)
(* ------------------------------------------------------------------ *)

type outcome = Grounded of Asp.Ground.t | Unsafe | Overflow

let outcome_name = function
  | Grounded g ->
      Printf.sprintf "ground (%d rules, %d atoms)" (Asp.Ground.rule_count g)
        (Asp.Ground.atom_count g)
  | Unsafe -> "Unsafe"
  | Overflow -> "Overflow"

let run_new p =
  match Asp.Grounder.ground ~max_atoms p with
  | g -> Grounded g
  | exception Asp.Grounder.Unsafe _ -> Unsafe
  | exception Asp.Grounder.Overflow _ -> Overflow

(* the oracle lets arithmetic evaluation errors escape as [Term.eval]'s
   [Invalid_argument]; the grounder reports them as [Unsafe] *)
let run_oracle p =
  match Asp_oracle.Naive_ground.ground ~max_atoms p with
  | g -> Grounded g
  | exception Asp_oracle.Naive_ground.Unsafe _ -> Unsafe
  | exception Asp_oracle.Naive_ground.Overflow _ -> Overflow
  | exception Invalid_argument msg
    when String.starts_with ~prefix:"Term.eval: " msg ->
      Unsafe

let render g =
  String.concat "\n"
    (List.map (Format.asprintf "%a" Asp.Ground.pp_rule) g.Asp.Ground.rules)

let diff_one src =
  let p = Asp.Parser.parse_program src in
  let a = run_new p and b = run_oracle p in
  match (a, b) with
  | Grounded ga, Grounded gb ->
      if not (Asp.Ground.equal ga gb) then
        fail
          (Printf.sprintf
             "grounders diverged on program:\n%s\n--- new:\n%s\n--- oracle:\n%s"
             src (render ga) (render gb))
  | Unsafe, Unsafe | Overflow, Overflow -> ()
  | a, b ->
      fail
        (Printf.sprintf "outcome divergence on program:\n%s\n  new: %s\n  oracle: %s"
           src (outcome_name a) (outcome_name b))

let test_diff_seeded () =
  for seed = 0 to 199 do
    let rng = Random.State.make [| 0x96D; seed |] in
    diff_one (gen_program rng)
  done

let test_diff_builtin_seeded () =
  for seed = 0 to 99 do
    let rng = Random.State.make [| 0xB17; seed |] in
    diff_one (gen_builtin_program rng)
  done

let test_diff_interval_seeded () =
  for seed = 0 to 99 do
    let rng = Random.State.make [| 0x1A7; seed |] in
    diff_one (gen_interval_program rng)
  done

let corners =
  [
    (* transitive closure: recursion through a binary predicate *)
    "edge(1,2). edge(2,3). edge(3,4). path(X,Y) :- edge(X,Y).\n\
     path(X,Z) :- path(X,Y), edge(Y,Z).";
    (* symbolic constants and function terms *)
    "edge(a,b). edge(b,c). path(X,Y) :- edge(X,Y).\n\
     path(X,Z) :- path(X,Y), edge(Y,Z).";
    "f(1). g(f(X)) :- f(X). h(X) :- g(f(X)).";
    (* joins that profit from (and must not be changed by) the first-arg index *)
    "n(1..4). e(X,Y) :- n(X), n(Y), Y = X + 1. two(Z) :- e(1,Z). tri(X,Z) :- \
     e(X,Y), e(Y,Z).";
    (* assignments chained through builtins *)
    "base(5). a(X) :- base(B), X = B + 1. b(Y) :- a(X), Y = X * 2.";
    (* comparisons incl. equality used as a test *)
    "n(1..4). sq(X, X*X) :- n(X), X < 4. d(X) :- n(X), X != 2, X >= 2.";
    (* negation with universe simplification across predicates *)
    "p(1). p(2). s(1). q(X) :- p(X), not s(X). w :- not missing.";
    (* choice rules: bounds, conditions, multiple elements *)
    "item(1). item(2). item(3). 1 { pick(X) : item(X) } 2.";
    "t(1). t(2). 1 { c(X) : t(X) ; d(X) : t(X) } 3 :- t(1).";
    "a(1). { h(X) : a(X), not b(X) }. b(1) :- h(1).";
    (* aggregates over variables: multi-element, outer-variable conditions *)
    "p(1). p(2). q(X) :- p(X), #count { Y : p(Y), Y <= X } >= 2.";
    "v(1). v(2). v(3). w(X,Y) :- v(X), v(Y). big :- #sum { X,Y : w(X,Y) } >= \
     10.";
    "item(1). item(2). { in(X) : item(X) }. :- #count { X : in(X) } > 1.";
    (* weak constraints: variable weights, tuples, priorities *)
    "p(1). p(2). :~ p(X). [X@1, X]";
    "p(1). p(2). cost(X,2) :- p(X). :~ cost(X,W). [W@2, X]";
    (* non-integer weak weight rejected identically *)
    "sym(c1). :~ sym(X). [X@1]";
    (* bounded arithmetic recursion terminates identically *)
    "n(0). n(X+1) :- n(X), X < 50.";
    (* unbounded arithmetic recursion overflows identically *)
    "p(0). p(X + 1) :- p(X).";
    (* unsafe rules rejected identically *)
    "p(X) :- q.";
    "p(X) :- not q(X).";
    (* duplicate rules and facts: global dedup parity *)
    "p(1). p(1). q(X) :- p(X). q(X) :- p(X).";
  ]

let test_diff_corners () = List.iter diff_one corners

(* ------------------------------------------------------------------ *)
(* prepare/extend soundness                                             *)
(* ------------------------------------------------------------------ *)

(* extend's output may repeat a ground rule that two source rules share
   (no cross-rule dedup on reused instances), so rule lists are compared
   as sorted duplicate-free sets; universes and shows must match exactly. *)
let canon rules = List.sort_uniq compare rules

let extend_one base_src delta_src =
  let base = Asp.Parser.parse_program base_src in
  let delta = Asp.Parser.parse_program delta_src in
  match Asp.Grounder.prepare ~max_atoms base with
  | exception (Asp.Grounder.Unsafe _ | Asp.Grounder.Overflow _) -> ()
  | st -> (
      (* the base's own grounding is exactly the one-shot result *)
      if not (Asp.Ground.equal (Asp.Grounder.base st) (Asp.Grounder.ground ~max_atoms base))
      then fail (Printf.sprintf "prepare diverged from ground on base:\n%s" base_src);
      let ext =
        match Asp.Grounder.extend st delta with
        | g -> Grounded g
        | exception Asp.Grounder.Unsafe _ -> Unsafe
        | exception Asp.Grounder.Overflow _ -> Overflow
      in
      let scratch = run_new (Asp.Program.append base delta) in
      match (ext, scratch) with
      | Grounded ge, Grounded gs ->
          if not (Asp.Model.AtomSet.equal ge.Asp.Ground.universe gs.Asp.Ground.universe)
          then
            fail
              (Printf.sprintf "extend universe diverged on:\n%s\n+ delta:\n%s"
                 base_src delta_src);
          check
            (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
            "shows" gs.Asp.Ground.shows ge.Asp.Ground.shows;
          if canon ge.Asp.Ground.rules <> canon gs.Asp.Ground.rules then
            fail
              (Printf.sprintf
                 "extend rules diverged on:\n%s\n+ delta:\n%s\n--- extend:\n\
                  %s\n--- scratch:\n%s"
                 base_src delta_src (render ge) (render gs))
      | Unsafe, Unsafe | Overflow, Overflow -> ()
      | e, s ->
          fail
            (Printf.sprintf
               "extend outcome divergence on:\n%s\n+ delta:\n%s\n  extend: %s\n\
               \  scratch: %s"
               base_src delta_src (outcome_name e) (outcome_name s)))

let test_extend_seeded () =
  for seed = 0 to 119 do
    let rng = Random.State.make [| 0xE7E; seed |] in
    let base = gen_program rng in
    let delta = gen_delta rng in
    extend_one base delta
  done

let test_extend_builtin_seeded () =
  for seed = 0 to 59 do
    let rng = Random.State.make [| 0xB1E; seed |] in
    let base = gen_builtin_program rng in
    (* gen_delta shares the p/q/t/r/e vocabulary, so increments feed the
       builtin-heavy rules *)
    extend_one base (gen_delta rng)
  done

let test_extend_interval_seeded () =
  for seed = 0 to 59 do
    let rng = Random.State.make [| 0x17E; seed |] in
    let base = gen_interval_program rng in
    extend_one base (gen_interval_delta rng)
  done

let test_extend_corners () =
  List.iter
    (fun (base, delta) -> extend_one base delta)
    [
      (* empty delta: extend must reproduce the base grounding *)
      ("p(1). q(X) :- p(X), not s(X). s(2).", "");
      (* new facts feeding an existing join (augment path) *)
      ("e(1,2). e(2,3). path(X,Y) :- e(X,Y). path(X,Z) :- path(X,Y), e(Y,Z).",
       "e(3,4). e(4,5).");
      (* delta makes a previously-simplified negation derivable (recompute) *)
      ("p(1). p(2). q(X) :- p(X), not s(X).", "s(1).");
      (* delta touches a choice element's condition *)
      ("a(1). { h(X) : a(X) } 2.", "a(2). a(3).");
      (* delta touches an aggregate's condition *)
      ("p(1). p(2). r(1,1). g(X) :- p(X), #count { Y : r(X,Y) } >= 1.",
       "r(2,1). r(2,2).");
      (* delta adds rules over base predicates *)
      ("p(1). p(2). r(1,2).", "t2(X) :- r(X,Y), p(Y). t2(9) :- p(1).");
      (* delta rule derives into a base predicate, re-firing base rules *)
      ("p(1). q(X) :- p(X).", "p(X+1) :- p(X), X < 4.");
      (* weak constraints in base and delta *)
      (":~ p(X). [X@1, X] p(1).", "p(2). :~ p(X). [1@2, X]");
      (* delta with its own choice + aggregate over shared predicates *)
      ("n(1). n(2). big :- #count { X : n(X) } >= 3.",
       "n(3). { pick(X) : n(X) }.");
    ]

let test_extend_reuses () =
  let base =
    Asp.Parser.parse_program
      "p(1). p(2). q(X) :- p(X). e(1,2). e(2,3). path(X,Y) :- e(X,Y).\n\
       path(X,Z) :- path(X,Y), e(Y,Z)."
  in
  let st = Asp.Grounder.prepare base in
  let stats = Asp.Grounder.Stats.create () in
  let g =
    Asp.Grounder.extend ~stats st (Asp.Parser.parse_program "p(3). s(9).")
  in
  check Alcotest.bool "reused instances" true (stats.Asp.Grounder.Stats.reused_rules > 0);
  check Alcotest.bool "fresh instances" true (stats.Asp.Grounder.Stats.fresh_rules > 0);
  (* the delta-derived instance is present *)
  let has_q3 =
    List.exists
      (function
        | Asp.Ground.Gfact a | Asp.Ground.Grule { head = a; _ } ->
            Asp.Atom.to_string a = "q(3)"
        | _ -> false)
      g.Asp.Ground.rules
  in
  check Alcotest.bool "q(3) derived from the delta" true has_q3;
  (* untouched recursive instances were not re-derived: the path rules'
     signatures gained no atoms, so all their instances count as reused *)
  check Alcotest.bool "universe grew" true
    (Asp.Ground.atom_count g
    > Asp.Model.AtomSet.cardinal (Asp.Grounder.base_universe st))

let same_work ctx (a : Asp.Grounder.Stats.t) (b : Asp.Grounder.Stats.t) =
  let open Asp.Grounder.Stats in
  List.iter
    (fun (what, x, y) -> check Alcotest.int (ctx ^ " " ^ what) x y)
    [
      ("passes", a.passes, b.passes);
      ("firings", a.firings, b.firings);
      ("probes", a.probes, b.probes);
      ("fresh_rules", a.fresh_rules, b.fresh_rules);
      ("reused_rules", a.reused_rules, b.reused_rules);
    ]

(* One-shot grounding is prepare's state taken as a program: its work
   counters are pinned on the ground bench's tc 40 and tank 12 programs
   (each a third of the full bench's three-repetition rows), and
   [fresh_rules] counts an instance two source rules share once per
   rule, before the cross-rule dedup. *)
let test_ground_counters () =
  let pinned name p (passes, firings, probes, fresh, rules) =
    let s = Asp.Grounder.Stats.create () in
    let g = Asp.Grounder.ground ~stats:s p in
    same_work name
      {
        (Asp.Grounder.Stats.create ()) with
        passes;
        firings;
        probes;
        fresh_rules = fresh;
      }
      s;
    check Alcotest.int (name ^ " ground rules") rules (Asp.Ground.rule_count g)
  in
  pinned "tc 40" (Cpsrisk.Cascade.asp_chain_program 40) (41, 819, 1644, 819, 819);
  pinned "tank 12"
    (Cpsrisk.Water_tank.asp_program ~horizon:12
       ~scenario:(Epa.Scenario.make []) ())
    (26, 209, 1734, 209, 209);
  let shared = Asp.Parser.parse_program "p(1). a :- p(X). a :- p(1)." in
  let s = Asp.Grounder.Stats.create () in
  let g = Asp.Grounder.ground ~stats:s shared in
  check Alcotest.int "shared instance kept once" 2 (Asp.Ground.rule_count g);
  check Alcotest.int "shared instance counted per rule" 3
    s.Asp.Grounder.Stats.fresh_rules

(* ------------------------------------------------------------------ *)
(* extend_prepare: chained structural increments                       *)
(* ------------------------------------------------------------------ *)

(* Same comparison discipline as [extend_one]: universes and shows
   exact, rule lists as canonical sets (shared instances skip the
   cross-rule dedup). Each chained level is checked against a scratch
   grounding of the accumulated program, and must count the same
   grounding work as a plain extend of the same state by the same
   delta; the final warm state must still answer what-if extends
   exactly. *)
let extend_prepare_one base_src d1_src d2_src probe_src =
  let parse = Asp.Parser.parse_program in
  let base = parse base_src in
  let d1 = parse d1_src and d2 = parse d2_src and probe = parse probe_src in
  let compare_ground ctx ge gs =
    if not (Asp.Model.AtomSet.equal ge.Asp.Ground.universe gs.Asp.Ground.universe)
    then
      fail
        (Printf.sprintf "%s: universe diverged on:\n%s\n+ %s / %s" ctx base_src
           d1_src d2_src);
    check
      (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
      (ctx ^ " shows") gs.Asp.Ground.shows ge.Asp.Ground.shows;
    if canon ge.Asp.Ground.rules <> canon gs.Asp.Ground.rules then
      fail
        (Printf.sprintf
           "%s: rules diverged on:\n%s\n+ %s / %s\n--- incremental:\n%s\n--- \
            scratch:\n%s"
           ctx base_src d1_src d2_src (render ge) (render gs))
  in
  match Asp.Grounder.prepare ~max_atoms base with
  | exception (Asp.Grounder.Unsafe _ | Asp.Grounder.Overflow _) -> ()
  | st0 -> (
      let step ctx st dp accum =
        let sp = Asp.Grounder.Stats.create () in
        let inc =
          match Asp.Grounder.extend_prepare ~stats:sp st dp with
          | st' -> Ok st'
          | exception Asp.Grounder.Unsafe _ -> Error Unsafe
          | exception Asp.Grounder.Overflow _ -> Error Overflow
        in
        match (inc, run_new accum) with
        | Ok st', Grounded gs ->
            compare_ground ctx (Asp.Grounder.base st') gs;
            (* extend does the same work on the same state and delta *)
            let se = Asp.Grounder.Stats.create () in
            ignore (Asp.Grounder.extend ~stats:se st dp);
            same_work ctx se sp;
            Some st'
        | Error Unsafe, Unsafe | Error Overflow, Overflow -> None
        | Ok _, o ->
            fail
              (Printf.sprintf "%s: scratch %s where extend_prepare grounded"
                 ctx (outcome_name o))
        | Error e, o ->
            fail
              (Printf.sprintf "%s: extend_prepare %s vs scratch %s" ctx
                 (outcome_name (match e with Unsafe -> Unsafe | _ -> Overflow))
                 (outcome_name o))
      in
      let acc1 = Asp.Program.append base d1 in
      match step "level 1" st0 d1 acc1 with
      | None -> ()
      | Some st1 -> (
          let acc2 = Asp.Program.append acc1 d2 in
          match step "level 2" st1 d2 acc2 with
          | None -> ()
          | Some st2 -> (
              let acc3 = Asp.Program.append acc2 probe in
              let ext =
                match Asp.Grounder.extend st2 probe with
                | g -> Grounded g
                | exception Asp.Grounder.Unsafe _ -> Unsafe
                | exception Asp.Grounder.Overflow _ -> Overflow
              in
              match (ext, run_new acc3) with
              | Grounded ge, Grounded gs -> compare_ground "probe" ge gs
              | Unsafe, Unsafe | Overflow, Overflow -> ()
              | e, s ->
                  fail
                    (Printf.sprintf "probe divergence: extend %s, scratch %s"
                       (outcome_name e) (outcome_name s)))))

let test_extend_prepare_seeded () =
  for seed = 0 to 79 do
    let rng = Random.State.make [| 0x1CE; seed |] in
    let base = gen_program rng in
    let d1 = gen_delta rng and d2 = gen_delta rng and probe = gen_delta rng in
    extend_prepare_one base d1 d2 probe
  done

let test_extend_prepare_corners () =
  List.iter
    (fun (b, d1, d2, p) -> extend_prepare_one b d1 d2 p)
    [
      (* negation re-simplified at both levels *)
      ("p(1). q(X) :- p(X), not s(X).", "s(1).", "p(2). p(3).", "s(2).");
      (* recursion fed level by level, cyclic probe *)
      ( "e(1,2). path(X,Y) :- e(X,Y). path(X,Z) :- path(X,Y), e(Y,Z).",
        "e(2,3).",
        "e(3,4).",
        "e(4,1)." );
      (* choice condition growing, aggregate added mid-chain *)
      ( "a(1). { h(X) : a(X) } 2.",
        "a(2).",
        "big :- #count { X : a(X) } >= 2.",
        "a(3)." );
      (* empty increments chain without disturbing warm state *)
      ("p(1). q(X) :- p(X).", "", "q2(X) :- q(X).", "p(2).");
      (* delta rules deriving into base predicates at each level *)
      ("p(1). q(X) :- p(X).", "p(X+1) :- p(X), X < 3.", "r(X) :- q(X).",
       "p(7).");
    ]

(* ------------------------------------------------------------------ *)
(* Symbolic terms, nested patterns, evaluation errors                   *)
(* ------------------------------------------------------------------ *)

let test_sym_seeded () =
  for seed = 0 to 199 do
    let rng = Random.State.make [| 0x5E1; seed |] in
    diff_one (gen_sym_program rng)
  done

let sym_corners =
  [
    (* the four arithmetic evaluation errors: Unsafe on both sides *)
    "p(a). q(Y) :- p(X), Y = X + 1.";
    "p(a). r(1). q(X) :- p(X), r(X+1).";
    "p(1). q(Y) :- p(X), Y = X / 0.";
    "p(1). q(X) :- p(X), X < a+1.";
    (* ... and none when no candidate reaches the evaluation *)
    "p(a). q(X) :- p(X), r(X+1).";
    "p(a). q(X) :- p(X), X > 3, Y = X + 1.";
    (* an arithmetic argument joined after the literal binding its
       variable, whichever of the two gained atoms last *)
    "p(1). s. r(2) :- s. q(X) :- p(X), r(X+1). t :- not q(1).";
    "p(1). s. r(f(2)) :- s. q(X) :- p(X), r(f(X+1)).";
    (* an arithmetic argument over a variable bound only later never
       matches, in body order or any other *)
    "p(1). r(2). q(X) :- r(X+1), p(X). t :- not q(1).";
    (* within-atom binding, nested and arithmetic patterns *)
    "d(1,2). d(2,2). d(a,b). e(X) :- d(X,Y), Y = X + 1.";
    "d(f(g(1,a)),2). d(f(b),3). q(X,Y,Z) :- d(f(g(X,Y)),Z).";
    "d(1,2). d(2,4). q(X) :- d(X,X*2).";
    "d(1,2). d(a,2). q(X) :- d(X,X*2).";
    (* mixed comparisons: integers < symbols < function terms *)
    "v(1). v(a). v(f(1)). lo(X) :- v(X), X < a. hi(X) :- v(X), X > b.      eq(X) :- v(X), X = f(1).";
    (* ground arithmetic arguments, evaluable and not *)
    "p(2). q :- p(1+1).";
    "p(2). q :- p(a+1).";
    "q :- p(a+1).";
  ]

let test_sym_corners () = List.iter diff_one sym_corners

let test_sym_extend () =
  for seed = 0 to 119 do
    let rng = Random.State.make [| 0x5E2; seed |] in
    let base = gen_sym_program rng in
    let delta = gen_sym_delta rng in
    diff_one (base ^ "\n" ^ delta);
    extend_one base delta
  done

let test_sym_extend_prepare () =
  for seed = 0 to 79 do
    let rng = Random.State.make [| 0x5E3; seed |] in
    let base = gen_sym_program rng in
    let d1 = gen_sym_delta rng and d2 = gen_sym_delta rng in
    let probe = gen_sym_delta rng in
    diff_one (String.concat "\n" [ base; d1; d2; probe ]);
    extend_prepare_one base d1 d2 probe
  done

(* ------------------------------------------------------------------ *)
(* decide: stratified increments answered by the grounder               *)
(* ------------------------------------------------------------------ *)

(* [decide] either declines or returns exactly the models the solver
   finds for [extend]'s grounding of the same increment. Where [extend]
   raises and [decide] answers (negation blocks every instance that
   would fail or overflow), the case is recorded instead; the suites pin
   how many there are. *)
type tally = { mutable answered : int; mutable past_extend : int }

let new_tally () = { answered = 0; past_extend = 0 }

let decide_one tally base_src delta_src =
  let base = Asp.Parser.parse_program base_src in
  let delta = Asp.Parser.parse_program delta_src in
  match Asp.Grounder.prepare ~max_atoms base with
  | exception (Asp.Grounder.Unsafe _ | Asp.Grounder.Overflow _) -> ()
  | st -> (
      let stats = Asp.Grounder.Stats.create () in
      match Asp.Grounder.decide ~stats st delta with
      | None ->
          check Alcotest.int "declined: nothing decided" 0
            stats.Asp.Grounder.Stats.decided
      | Some models -> (
          tally.answered <- tally.answered + 1;
          check Alcotest.int "decided once" 1 stats.Asp.Grounder.Stats.decided;
          match Asp.Grounder.extend st delta with
          | exception (Asp.Grounder.Unsafe _ | Asp.Grounder.Overflow _) ->
              tally.past_extend <- tally.past_extend + 1
          | g ->
              let expected = Asp.Solver.solve g in
              if not (List.equal Asp.Model.equal expected models) then
                fail
                  (Printf.sprintf
                     "decide diverged on:\n%s\n+ delta:\n%s\n--- decide: %s\n\
                      --- extend + solve: %s"
                     base_src delta_src
                     (String.concat " | " (List.map Asp.Model.to_string models))
                     (String.concat " | "
                        (List.map Asp.Model.to_string expected)))))

(* the random generator's statements without choice rules, aggregates
   and weak constraints: the normal programs [decide] may answer *)
let normal_part src =
  String.split_on_char '\n' src
  |> List.filter (fun l ->
         not
           (String.contains l '{' || String.contains l '#'
           || String.starts_with ~prefix:":~" l))
  |> String.concat "\n"

let decided what ?(past_extend = 0) tally =
  if tally.answered = 0 then fail (what ^ ": decide answered no program");
  check Alcotest.int (what ^ ": answered where extend raised") past_extend
    tally.past_extend

let test_decide_seeded () =
  let t = new_tally () in
  for seed = 0 to 199 do
    let rng = Random.State.make [| 0xDEC; seed |] in
    let base = gen_program rng and delta = gen_delta rng in
    decide_one t base delta;
    decide_one t (normal_part base) delta;
    decide_one t (normal_part base) (normal_part delta)
  done;
  decided "random" t

let test_decide_builtin_seeded () =
  let t = new_tally () in
  for seed = 0 to 99 do
    let rng = Random.State.make [| 0xDEB; seed |] in
    decide_one t (gen_builtin_program rng) (normal_part (gen_delta rng))
  done;
  decided "builtin-heavy" t

let test_decide_interval_seeded () =
  let t = new_tally () in
  for seed = 0 to 99 do
    let rng = Random.State.make [| 0xDE1; seed |] in
    let base = gen_interval_program rng in
    decide_one t base (gen_interval_delta rng)
  done;
  decided "interval" t

let test_decide_sym_seeded () =
  let t = new_tally () in
  for seed = 0 to 199 do
    let rng = Random.State.make [| 0xDE5; seed |] in
    let base = gen_sym_program rng in
    decide_one t base (gen_sym_delta rng)
  done;
  decided "symbolic" t

let test_decide_corners () =
  let t = new_tally () in
  List.iter (fun src -> decide_one t src "") (corners @ sym_corners);
  List.iter
    (fun (base, delta) -> decide_one t base delta)
    [
      ("p(1). q(X) :- p(X), not s(X). s(2).", "");
      ("p(1). p(2). q(X) :- p(X), not s(X).", "s(1).");
      ("p(1). q(X) :- p(X).", "p(X+1) :- p(X), X < 4.");
      (* the delta retracts a base atom through negation *)
      ("a. b :- not c.", "c.");
      (* a delta rule over a base predicate re-fires base rules *)
      ("p(1). r(X) :- p(X), not s(X).", "s(X) :- p(X).");
      (* a delta constraint, violated and not *)
      ("p(1). q :- p(1).", ":- q.");
      ("p(1). q :- p(2).", ":- q.");
      (* a base constraint the delta violates *)
      ("p(1). :- p(2).", "p(2).");
      (* an even negative loop through the delta: not stratified *)
      ("p :- not q.", "q :- not p.");
      (* the delta's choice rule falls back *)
      ("p(1).", "{ q(X) : p(X) }.");
      (* only instances negation blocks overflow the universe, or reach
         arithmetic on a symbol: extend raises, decide answers *)
      ("p(0). stop.", "p(X+1) :- p(X), not stop.");
      ("s. q(Y) :- p(X), Y = X + 1.", "p(a) :- not s.");
    ];
  decided "corners" ~past_extend:2 t

(* ------------------------------------------------------------------ *)
(* decide across jobs: one prepared base, many facts-only deltas        *)
(* ------------------------------------------------------------------ *)

(* [decide] memoises dependent components across the deltas decided
   against one prepared base, from any domain. Each case prepares its
   base once per run and decides every delta against it, in several
   orders, on one domain and on two; every answer must be the models the
   solver finds for [extend]'s grounding of the same delta (or, where
   [extend] raises, what [decide] answers on a fresh base). A shared
   base may only save work: per delta, the in-order run's firings are at
   most those of the delta decided on a fresh base. *)

let shuffled seed l =
  let a = Array.of_list l in
  let rng = Random.State.make [| 0x5AFE; seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* decide every delta of [jobs] against [prep], job [i] on domain
   [i mod domains]: the answers and firings by job *)
let decide_all prep jobs ~domains =
  let jobs = Array.of_list jobs in
  let answers = Array.make (Array.length jobs) None in
  let firings = Array.make (Array.length jobs) 0 in
  let work k () =
    Array.iteri
      (fun i (_, delta, _) ->
        if i mod domains = k then begin
          let stats = Asp.Grounder.Stats.create () in
          answers.(i) <- Asp.Grounder.decide ~stats prep delta;
          firings.(i) <- stats.Asp.Grounder.Stats.firings
        end)
      jobs
  in
  let others = List.init (domains - 1) (fun k -> Domain.spawn (work (k + 1))) in
  work 0 ();
  List.iter Domain.join others;
  (answers, firings)

let models_str = function
  | None -> "declined"
  | Some ms -> String.concat " | " (List.map Asp.Model.to_string ms)

(* Runs one base and its deltas; returns, per delta, the firings of the
   in-order shared-base run and of a fresh base ([None] if [prepare]
   rejects the base). *)
let memo_case ?(seed = 0) base_src delta_srcs =
  let base = Asp.Parser.parse_program base_src in
  match Asp.Grounder.prepare ~max_atoms base with
  | exception (Asp.Grounder.Unsafe _ | Asp.Grounder.Overflow _) -> None
  | prep0 ->
      let jobs =
        List.mapi
          (fun i src ->
            let delta = Asp.Parser.parse_program src in
            let stats = Asp.Grounder.Stats.create () in
            let fresh =
              Asp.Grounder.decide ~stats
                (Asp.Grounder.prepare ~max_atoms base)
                delta
            in
            let solved =
              match Asp.Grounder.extend prep0 delta with
              | exception (Asp.Grounder.Unsafe _ | Asp.Grounder.Overflow _) ->
                  None
              | g -> Some (Asp.Solver.solve g)
            in
            (i, delta, (src, fresh, solved, stats.Asp.Grounder.Stats.firings)))
          delta_srcs
      in
      let run order ~domains =
        let jobs = order jobs in
        let answers, firings =
          decide_all (Asp.Grounder.prepare ~max_atoms base) jobs ~domains
        in
        List.iteri
          (fun k (_, _, (src, fresh, solved, _)) ->
            let got = answers.(k) in
            let ok =
              match (got, solved) with
              | Some ms, Some expected -> List.equal Asp.Model.equal expected ms
              | Some ms, None -> (
                  match fresh with
                  | Some f -> List.equal Asp.Model.equal f ms
                  | None -> false)
              | None, _ -> fresh = None
            in
            if not ok then
              fail
                (Printf.sprintf
                   "decide on a shared base (%d domain(s)) diverged on:\n%s\n\
                    + delta:\n%s\n--- decide: %s\n--- extend + solve: %s"
                   domains base_src src (models_str got) (models_str solved)))
          jobs;
        firings
      in
      let in_order = run Fun.id ~domains:1 in
      ignore (run (shuffled seed) ~domains:1);
      ignore (run (shuffled (seed + 1)) ~domains:2);
      ignore (run (shuffled (seed + 2)) ~domains:2);
      let fresh = List.map (fun (_, _, (_, _, _, f)) -> f) jobs in
      List.iteri
        (fun i f ->
          if in_order.(i) > f then
            fail
              (Printf.sprintf
                 "delta %d fired %d times on a shared base, %d on a fresh one"
                 i in_order.(i) f))
        fresh;
      Some (Array.to_list in_order, fresh)

(* the sum of firings on the shared base is below the fresh bases' *)
let memo_hit what (shared, fresh) =
  let sum = List.fold_left ( + ) 0 in
  if sum shared >= sum fresh then
    fail
      (Printf.sprintf "%s: no component memo hit (%d firings shared, %d fresh)"
         what (sum shared) (sum fresh))

(* facts-only deltas over one unary and one binary predicate of the
   random generator's vocabulary, so that every delta defines the same
   signatures and so shares one memo entry; now and then a constraint *)
let gen_fact_deltas rng n =
  let int n = Random.State.int rng n in
  let u = upreds.(int 3) and b = bpreds.(int 2) in
  List.init n (fun _ ->
      let buf = Buffer.create 64 in
      for k = 1 to 4 do
        if k = 1 || Random.State.bool rng then
          Printf.bprintf buf "%s(%d).\n" u (if k = 1 then 1 + int 4 else k)
      done;
      for _ = 0 to int 2 do
        Printf.bprintf buf "%s(%d,%d).\n" b (1 + int 4) (1 + int 4)
      done;
      if int 6 = 0 then Printf.bprintf buf ":- %s(%d).\n" upreds.(int 3) (1 + int 4);
      Buffer.contents buf)

let test_decide_shared_base () =
  let shared = ref [] and fresh = ref [] in
  for seed = 0 to 59 do
    let rng = Random.State.make [| 0xDE3; seed |] in
    let base = normal_part (gen_program rng) in
    match memo_case ~seed base (gen_fact_deltas rng 12) with
    | Some (s, f) ->
        shared := s @ !shared;
        fresh := f @ !fresh
    | None -> ()
  done;
  memo_hit "seeded" (!shared, !fresh);
  let case base deltas = Option.get (memo_case base deltas) in
  (* equal lower extensions through different facts: [s] is {1,2} both
     times, so the second delta's [t] comes from the memo *)
  let eq =
    case
      "s(X) :- p(X). s(X) :- q(X). t(X,Y) :- s(X), s(Y), X < Y. \
       u(X) :- t(X,Y), not w(Y). w(3)."
      [ "p(1). q(2)."; "p(2). q(1)."; "p(1). q(1)." ]
  in
  (match eq with
  | [ _; second; _ ], [ _; fresh_second; _ ] ->
      if second >= fresh_second then
        fail
          (Printf.sprintf "no hit on an equal extension: %d firings, fresh %d"
             second fresh_second)
  | _ -> fail "three deltas");
  (* deltas that differ only in an atom read under negation; the shown
     [f] of a repeat comes from the memo *)
  memo_hit "negation"
    (case "b(X) :- a(X), not c(X). e(X) :- b(X). f(X) :- e(X). #show f/1."
       [ "a(1). c(1)."; "a(1). c(2)."; "a(1). c(1)."; "a(1). c(2)." ]);
  ignore (case "b :- a, not c. d :- b." [ "a."; "a. c."; "a."; "a. c." ]);
  ignore (case "a. b :- not c." [ ""; "c."; ""; "c." ]);
  (* two inputs to one component, each varying alone *)
  memo_hit "two inputs"
    (case "s(X,Y) :- p(X), q(Y). t(X) :- s(X,X)."
       [ "p(1). q(1)."; "p(1). q(2)."; "p(2). q(1)."; "p(1). q(2)." ]);
  (* a constraint and a #show over an extension taken from the memo *)
  memo_hit "constraint"
    (case "b(X) :- a(X), not c(X). e(X) :- b(X). :- e(2). #show b/1."
       [ "a(2). c(3)."; "a(2). c(4)."; "a(1). c(3)."; "a(1). c(4)." ])

let suites =
  [
    ( "asp.grounder_diff",
      [
        Alcotest.test_case "200 seeded random programs" `Quick test_diff_seeded;
        Alcotest.test_case "builtin-heavy: 100 seeded programs" `Quick
          test_diff_builtin_seeded;
        Alcotest.test_case "interval: 100 seeded programs" `Quick
          test_diff_interval_seeded;
        Alcotest.test_case "corner programs" `Quick test_diff_corners;
        Alcotest.test_case "extend vs scratch (120 seeded)" `Quick
          test_extend_seeded;
        Alcotest.test_case "extend vs scratch (corners)" `Quick
          test_extend_corners;
        Alcotest.test_case "extend vs scratch (60 builtin-heavy)" `Quick
          test_extend_builtin_seeded;
        Alcotest.test_case "extend vs scratch (60 interval)" `Quick
          test_extend_interval_seeded;
        Alcotest.test_case "extend reuses base instances" `Quick
          test_extend_reuses;
        Alcotest.test_case "extend_prepare chains vs scratch (80 seeded)"
          `Quick test_extend_prepare_seeded;
        Alcotest.test_case "extend_prepare chains vs scratch (corners)" `Quick
          test_extend_prepare_corners;
        Alcotest.test_case "symbolic: 200 seeded programs" `Quick
          test_sym_seeded;
        Alcotest.test_case "symbolic: corner programs" `Quick test_sym_corners;
        Alcotest.test_case "symbolic: extend vs scratch (120 seeded)" `Quick
          test_sym_extend;
        Alcotest.test_case "symbolic: extend_prepare chains (80 seeded)" `Quick
          test_sym_extend_prepare;
        Alcotest.test_case "one-shot ground work counters pinned" `Quick
          test_ground_counters;
        Alcotest.test_case "decide vs extend + solve (600 seeded)" `Quick
          test_decide_seeded;
        Alcotest.test_case "decide vs extend + solve (100 builtin-heavy)"
          `Quick test_decide_builtin_seeded;
        Alcotest.test_case "decide vs extend + solve (100 interval)" `Quick
          test_decide_interval_seeded;
        Alcotest.test_case "decide vs extend + solve (200 symbolic)" `Quick
          test_decide_sym_seeded;
        Alcotest.test_case "decide vs extend + solve (corners)" `Quick
          test_decide_corners;
        Alcotest.test_case "decide: one base, many facts-only deltas" `Quick
          test_decide_shared_base;
      ] );
  ]
