type encoding = string -> Asp.Term.t -> Asp.Lit.t

let sanitize s =
  let s = String.lowercase_ascii s in
  let out =
    String.map
      (fun c ->
        if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_' then c
        else '_')
      s
  in
  if out = "" then "x"
  else if out.[0] >= '0' && out.[0] <= '9' then "x" ^ out
  else out

let default_encoding atom time_term =
  let var, value =
    match String.index_opt atom '=' with
    | Some i ->
        ( String.sub atom 0 i,
          String.sub atom (i + 1) (String.length atom - i - 1) )
    | None -> (atom, "true")
  in
  Asp.Lit.Pos
    (Asp.Atom.make "holds"
       [ Asp.Term.const (sanitize var); Asp.Term.const (sanitize value); time_term ])

(* internal time variables; deliberately unusual names so context
   parameters cannot capture them *)
let tvar = Asp.Term.var "TLT_NOW"
let svar = Asp.Term.var "TLT_NEXT"
let time_lit t = Asp.Lit.Pos (Asp.Atom.make "time" [ t ])
let succ_assign =
  Asp.Lit.Cmp (svar, Asp.Lit.Eq, Asp.Term.func "+" [ tvar; Asp.Term.int 1 ])
let at_last horizon = Asp.Lit.Cmp (tvar, Asp.Lit.Eq, Asp.Term.int horizon)

type context = {
  params : Asp.Term.t list;
  guards : Asp.Lit.t list;
}

let no_context = { params = []; guards = [] }

let formula ?(prefix = "f") ?(encode = default_encoding)
    ?(context = no_context) ~horizon f =
  let rules = ref [] in
  let counter = ref 0 in
  let fresh () =
    let id = !counter in
    incr counter;
    Printf.sprintf "%ssat_%d" prefix id
  in
  let add head body = rules := Asp.Rule.rule head (context.guards @ body) :: !rules in
  (* compile [f]; returns the name of its satisfaction predicate *)
  let rec go f =
    let name = fresh () in
    let sat t = Asp.Atom.make name (context.params @ [ t ]) in
    let head = sat tvar in
    let pos child t = Asp.Lit.Pos (Asp.Atom.make child (context.params @ [ t ])) in
    let neg child t = Asp.Lit.Neg (Asp.Atom.make child (context.params @ [ t ])) in
    (match (f : Ltl.Formula.t) with
    | True -> add head [ time_lit tvar ]
    | False -> ()
    | Atom a -> add head [ time_lit tvar; encode a tvar ]
    | Not g ->
        let gn = go g in
        add head [ time_lit tvar; neg gn tvar ]
    | And (a, b) ->
        let an = go a and bn = go b in
        add head [ time_lit tvar; pos an tvar; pos bn tvar ]
    | Or (a, b) ->
        let an = go a and bn = go b in
        add head [ time_lit tvar; pos an tvar ];
        add head [ time_lit tvar; pos bn tvar ]
    | Implies (a, b) ->
        let an = go (Ltl.Formula.Not a) and bn = go b in
        add head [ time_lit tvar; pos an tvar ];
        add head [ time_lit tvar; pos bn tvar ]
    | Next g ->
        let gn = go g in
        add head [ time_lit tvar; succ_assign; time_lit svar; pos gn svar ]
    | Wnext g ->
        let gn = go g in
        add head [ time_lit tvar; succ_assign; time_lit svar; pos gn svar ];
        add head [ time_lit tvar; at_last horizon ]
    | Eventually g ->
        let gn = go g in
        add head [ time_lit tvar; pos gn tvar ];
        add head [ time_lit tvar; succ_assign; pos name svar ]
    | Always g ->
        let gn = go g in
        add head [ time_lit tvar; pos gn tvar; at_last horizon ];
        add head [ time_lit tvar; pos gn tvar; succ_assign; pos name svar ]
    | Until (a, b) ->
        let an = go a and bn = go b in
        add head [ time_lit tvar; pos bn tvar ];
        add head [ time_lit tvar; pos an tvar; succ_assign; pos name svar ]
    | Release (a, b) ->
        let an = go a and bn = go b in
        add head [ time_lit tvar; pos bn tvar; at_last horizon ];
        add head [ time_lit tvar; pos bn tvar; pos an tvar ];
        add head [ time_lit tvar; pos bn tvar; succ_assign; pos name svar ]);
    name
  in
  let root_name = go f in
  ( Asp.Program.of_rules (List.rev !rules),
    Asp.Atom.make root_name (context.params @ [ Asp.Term.int 0 ]) )

let encoded_atoms ?(encode = default_encoding) f =
  List.map (fun a -> (a, encode a tvar)) (Ltl.Formula.atoms f)

let violated_rule ~requirement ~root =
  Asp.Rule.rule
    (Asp.Atom.make "violated" [ Asp.Term.const (sanitize requirement) ])
    [ Asp.Lit.Neg root ]

let trace_facts trace =
  let facts = ref [] in
  let n = Ltl.Trace.length trace in
  for t = 0 to n - 1 do
    facts := Asp.Rule.fact (Asp.Atom.make "time" [ Asp.Term.int t ]) :: !facts;
    List.iter
      (fun (var, value) ->
        facts :=
          Asp.Rule.fact
            (Asp.Atom.make "holds"
               [
                 Asp.Term.const (sanitize var); Asp.Term.const (sanitize value);
                 Asp.Term.int t;
               ])
          :: !facts)
      (Qual.Qstate.to_list (Ltl.Trace.state trace t))
  done;
  Asp.Program.of_rules (List.rev !facts)

let check_trace trace f =
  let horizon = Ltl.Trace.length trace - 1 in
  let rules, root = formula ~horizon f in
  let program = Asp.Program.append (trace_facts trace) rules in
  match Asp.Solver.solve (Asp.Grounder.ground program) with
  | [ m ] -> Asp.Model.holds m root
  | models ->
      invalid_arg
        (Printf.sprintf "Telingo.check_trace: expected one model, got %d"
           (List.length models))

let rec temporal_depth (f : Ltl.Formula.t) =
  match f with
  | True | False | Atom _ -> 0
  | Not g -> temporal_depth g
  | And (a, b) | Or (a, b) | Implies (a, b) ->
      max (temporal_depth a) (temporal_depth b)
  | Next g | Wnext g | Eventually g | Always g -> 1 + temporal_depth g
  | Until (a, b) | Release (a, b) ->
      1 + max (temporal_depth a) (temporal_depth b)

let reduce_horizon ~depth ~prefix ~period horizon =
  if prefix < 0 || period < 1 || depth < 0 then
    invalid_arg "Telingo.Compile.reduce_horizon";
  let threshold = prefix + (depth * period) in
  if horizon < threshold then horizon
  else threshold + ((horizon - prefix) mod period)
