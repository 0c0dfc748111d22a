module Term = Asp.Term
module Atom = Asp.Atom
module Lit = Asp.Lit
module Rule = Asp.Rule
module Program = Asp.Program

type dead_cause =
  | Undefined_pred of string * int
  | Underivable_pred of string * int
  | Empty_arg of { pred : string * int; arg : int; term : Term.t }
  | Disjoint_var of string
  | False_cmp of Lit.t
  | False_agg of Lit.t

let dead_cause_to_string = function
  | Undefined_pred (p, n) ->
      Printf.sprintf "predicate %s/%d is never defined" p n
  | Underivable_pred (p, n) ->
      Printf.sprintf "predicate %s/%d has no satisfiable defining rule" p n
  | Empty_arg { pred = p, n; arg; term } ->
      Printf.sprintf "argument %d of %s/%d never takes value %s" (arg + 1) p n
        (Term.to_string term)
  | Disjoint_var v ->
      Printf.sprintf "variable %s joins positions with disjoint domains" v
  | False_cmp l ->
      Printf.sprintf "comparison %s is always false under inferred domains"
        (Lit.to_string l)
  | False_agg l ->
      Printf.sprintf "aggregate %s can never hold" (Lit.to_string l)

type pred_info = {
  psig : string * int;
  doms : Domain.t array;
  card : float;
  fact_count : int;
  exact : bool;
  defined : bool;
  derivable : bool;
  consumed : bool;
}

type rule_info = {
  index : int;
  rule : Rule.t;
  env : (string * Domain.t) list;
  dead : dead_cause option;
  firings : float;
  cost : float;
  cmp_true : Lit.t list;
  false_aggs : Lit.t list;
  dead_elems : (Atom.t * dead_cause) list;
  live_elems : int;
}

type t = {
  prog : Program.t;
  infos : ((string * int) * pred_info) list;
  tbl : (string * int, pred_info) Hashtbl.t;
  rinfos : rule_info list;
  universe : int;
  total : float;
}

let program t = t.prog
let preds t = List.map snd t.infos
let find_pred t s = Hashtbl.find_opt t.tbl s
let rules t = t.rinfos
let const_universe t = t.universe
let total_cost t = t.total

(* ------------------------------------------------------------------ *)
(* Mutable per-predicate state during the fixpoint                     *)
(* ------------------------------------------------------------------ *)

type pstate = {
  mutable sdoms : Domain.t array;
  mutable sderivable : bool;
  mutable sdefined : bool;
  mutable sconsumed : bool;
  mutable sfacts : Atom.t list;  (* distinct ground fact heads, reversed *)
  mutable scount : float;
  mutable shas_rule : bool;  (* derived by at least one non-fact rule *)
}

module AtomSet = Set.Make (Atom)

let is_arith op = List.mem op Term.arith_ops

(* Abstract value of a term under a variable environment. *)
let rec eval_term_env env (t : Term.t) =
  match t.Term.node with
  | Term.Var v -> ( match Hashtbl.find_opt env v with Some d -> d | None -> Domain.top)
  | Term.Func (op, args) when is_arith op ->
      if Term.is_ground t then Domain.of_term t
      else Domain.arith op (List.map (eval_term_env env) args)
  | _ when Term.is_ground t -> Domain.of_term t
  | _ -> Domain.top

let flip_cmp = function
  | Lit.Lt -> Lit.Gt
  | Lit.Gt -> Lit.Lt
  | Lit.Le -> Lit.Ge
  | Lit.Ge -> Lit.Le
  | (Lit.Eq | Lit.Ne) as c -> c

(* ------------------------------------------------------------------ *)
(* Per-rule body environment                                           *)
(* ------------------------------------------------------------------ *)

(* Meet each variable with the producer domains of its positive-literal
   occurrences; detect undefined / underivable predicates and ground
   arguments outside their domain. Comparison narrowing happens in a
   second stage so that always-true/false verdicts are judged against the
   un-narrowed environment. *)
let atom_pass states env body set_dead =
  List.iter
    (fun lit ->
      match lit with
      | Lit.Pos a -> (
          let s = (a.Atom.pred, Atom.arity a) in
          match Hashtbl.find_opt states s with
          | None -> set_dead (Undefined_pred (fst s, snd s))
          | Some st ->
              if not st.sderivable then
                set_dead
                  (if st.sdefined then Underivable_pred (fst s, snd s)
                   else Undefined_pred (fst s, snd s))
              else
                List.iteri
                  (fun i (arg : Term.t) ->
                    let di = st.sdoms.(i) in
                    match arg.Term.node with
                    | Term.Var v ->
                        let cur =
                          match Hashtbl.find_opt env v with
                          | Some d -> d
                          | None -> Domain.top
                        in
                        let m = Domain.meet cur di in
                        Hashtbl.replace env v m;
                        if Domain.is_empty m && not (Domain.is_empty cur)
                           && not (Domain.is_empty di)
                        then set_dead (Disjoint_var v)
                        else if Domain.is_empty di then
                          set_dead (Empty_arg { pred = s; arg = i; term = arg })
                    | _ when Term.is_ground arg ->
                        if Domain.is_empty (Domain.meet (Domain.of_term arg) di)
                        then
                          set_dead (Empty_arg { pred = s; arg = i; term = arg })
                    | _ -> ())
                  a.Atom.args)
      | Lit.Neg _ | Lit.Cmp _ | Lit.Count _ -> ())
    body

(* Comparison-driven narrowing; iterated a few times so short chains
   (X < Y, Y < Z) propagate. *)
let cmp_pass env body set_dead =
  for _ = 1 to 3 do
    List.iter
      (fun lit ->
        match lit with
        | Lit.Cmp (t1, op, t2) ->
            let d1 = eval_term_env env t1 and d2 = eval_term_env env t2 in
            (match Domain.cmp op d1 d2 with
            | Some false -> set_dead (False_cmp lit)
            | _ -> ());
            let narrow v op other =
              let cur =
                match Hashtbl.find_opt env v with
                | Some d -> d
                | None -> Domain.top
              in
              let r = Domain.restrict op cur other in
              Hashtbl.replace env v r;
              if Domain.is_empty r && not (Domain.is_empty cur) then
                set_dead (False_cmp lit)
            in
            (match t1.Term.node with
            | Term.Var v -> narrow v op (eval_term_env env t2)
            | _ -> ());
            (match t2.Term.node with
            | Term.Var v -> narrow v (flip_cmp op) (eval_term_env env t1)
            | _ -> ())
        | _ -> ())
      body
  done

(* Aggregate satisfiability: a #count over a tuple space with a provably
   bounded number of distinct instantiations cannot exceed that bound, and
   can always be 0 (the condition may hold nowhere). *)
let agg_check states env lit =
  match lit with
  | Lit.Count { kind = Lit.Cardinality; terms; cond; op; bound } -> (
      match Term.eval_int bound with
      | None -> None
      | Some b -> (
          let cenv = Hashtbl.copy env in
          let cdead = ref None in
          let set_dead c = if !cdead = None then cdead := Some c in
          atom_pass states cenv cond set_dead;
          cmp_pass cenv cond set_dead;
          let space =
            if !cdead <> None then Some 0.0
            else
              List.fold_left
                (fun acc tm ->
                  match acc with
                  | None -> None
                  | Some p -> (
                      match Domain.card (eval_term_env cenv tm) with
                      | Some c -> Some (p *. float_of_int c)
                      | None -> None))
                (Some 1.0) terms
          in
          (* count ranges over [0, space]; decide op against that range *)
          let unsat =
            match (op, space) with
            | Lit.Lt, _ -> b <= 0
            | Lit.Le, _ -> b < 0
            | Lit.Gt, Some m -> float_of_int b >= m
            | Lit.Ge, Some m -> float_of_int b > m
            | Lit.Eq, Some m -> b < 0 || float_of_int b > m
            | Lit.Eq, None -> b < 0
            | Lit.Ne, Some m -> m = 0.0 && b = 0
            | (Lit.Gt | Lit.Ge | Lit.Ne), None -> false
          in
          if unsat then Some (False_agg lit) else None))
  | _ -> None

type renv = {
  renv_tbl : (string, Domain.t) Hashtbl.t;
  rdead : dead_cause option;
  rcmp_true : Lit.t list;
  rfalse_aggs : Lit.t list;
}

let body_env states body =
  let env = Hashtbl.create 8 in
  let dead = ref None in
  let set_dead c = if !dead = None then dead := Some c in
  atom_pass states env body set_dead;
  (* verdicts against the un-narrowed environment *)
  let cmp_true =
    if !dead <> None then []
    else
      List.filter
        (fun lit ->
          match lit with
          | Lit.Cmp (t1, op, t2) ->
              Domain.cmp op (eval_term_env env t1) (eval_term_env env t2)
              = Some true
          | _ -> false)
        body
  in
  cmp_pass env body set_dead;
  let false_aggs =
    if !dead <> None then []
    else
      List.filter_map
        (fun lit ->
          match agg_check states env lit with
          | Some (False_agg _) ->
              set_dead (False_agg lit);
              Some lit
          | _ -> None)
        body
  in
  { renv_tbl = env; rdead = !dead; rcmp_true = cmp_true; rfalse_aggs = false_aggs }

(* Extend a rule environment with a choice element's condition. *)
let elem_env states renv cond =
  let env = Hashtbl.copy renv.renv_tbl in
  let dead = ref None in
  let set_dead c = if !dead = None then dead := Some c in
  atom_pass states env cond set_dead;
  cmp_pass env cond set_dead;
  (env, !dead)

(* ------------------------------------------------------------------ *)
(* Domain fixpoint                                                     *)
(* ------------------------------------------------------------------ *)

let widen_after = 8

let propagate_head states changed ~widen env atom =
  let s = (atom.Atom.pred, Atom.arity atom) in
  match Hashtbl.find_opt states s with
  | None -> ()
  | Some st ->
      if not st.sderivable then begin
        st.sderivable <- true;
        changed := true
      end;
      List.iteri
        (fun i arg ->
          let v = eval_term_env env arg in
          let old = st.sdoms.(i) in
          let nu = if widen then Domain.widen old v else Domain.join old v in
          if not (Domain.equal old nu) then begin
            st.sdoms.(i) <- nu;
            changed := true
          end)
        atom.Atom.args

let domain_fixpoint states rules max_rounds =
  let round = ref 0 in
  let changed = ref true in
  while !changed && !round < max_rounds do
    changed := false;
    incr round;
    let widen = !round > widen_after in
    List.iter
      (fun r ->
        match r with
        | Rule.Weak _ -> ()
        | Rule.Rule { head; body; _ } -> (
            let renv = body_env states body in
            if renv.rdead = None then
              match head with
              | Rule.Falsity -> ()
              | Rule.Head a ->
                  propagate_head states changed ~widen renv.renv_tbl a
              | Rule.Choice { elems; _ } ->
                  List.iter
                    (fun (e : Rule.choice_elem) ->
                      let env, edead = elem_env states renv e.Rule.cond in
                      if edead = None then
                        propagate_head states changed ~widen env e.Rule.atom)
                    elems))
      rules
  done

(* ------------------------------------------------------------------ *)
(* Cardinality fixpoint                                                *)
(* ------------------------------------------------------------------ *)

let count_cap = 1e18

let dom_card_f universe d =
  match Domain.card d with
  | Some n -> float_of_int (max n 1)
  | None -> float_of_int (max universe 1)

let env_card universe env v =
  match Hashtbl.find_opt env v with
  | Some d -> dom_card_f universe d
  | None -> float_of_int (max universe 1)

(* Estimated number of satisfying ground substitutions of a literal set:
   product of relation cardinalities, divided by the domain size of every
   shared variable once per extra occurrence (equi-join), times a 0.5
   selectivity per ordering comparison, capped by the substitution-space
   product of the variable domains. *)
let est_join states universe env lits =
  let positives =
    List.filter_map (function Lit.Pos a -> Some a | _ -> None) lits
  in
  if positives = [] then 1.0
  else
    let counts =
      List.map
        (fun a ->
          match Hashtbl.find_opt states (a.Atom.pred, Atom.arity a) with
          | Some st -> st.scount
          | None -> 0.0)
        positives
    in
    if List.exists (fun c -> c <= 0.0) counts then 0.0
    else begin
      let rows = ref (List.fold_left ( *. ) 1.0 counts) in
      (* shared-variable equi-join correction *)
      let occ = Hashtbl.create 8 in
      List.iter
        (fun a ->
          List.iter
            (fun v ->
              Hashtbl.replace occ v
                (1 + Option.value ~default:0 (Hashtbl.find_opt occ v)))
            (Atom.vars a))
        positives;
      Hashtbl.iter
        (fun v o ->
          if o > 1 then
            rows :=
              !rows /. (env_card universe env v ** float_of_int (o - 1)))
        occ;
      (* comparison selectivity: an ordering between two variable terms
         keeps ~half the pairs; an equality pins one side down to the
         other (functional dependency), keeping ~1/|dom| of them.
         Ground-side comparisons are already folded into the variable
         domains, so only variable-vs-variable forms count here. *)
      List.iter
        (fun lit ->
          match lit with
          | Lit.Cmp (t1, op, t2)
            when Term.vars t1 <> [] && Term.vars t2 <> [] -> (
              match op with
              | Lit.Lt | Lit.Le | Lit.Gt | Lit.Ge -> rows := !rows *. 0.5
              | Lit.Eq ->
                  let side (t : Term.t) =
                    match t.Term.node with
                    | Term.Var v -> Some (env_card universe env v)
                    | _ -> None
                  in
                  (match (side t1, side t2) with
                  | Some a, Some b -> rows := !rows /. Float.max a b
                  | Some c, None | None, Some c -> rows := !rows /. c
                  | None, None -> ())
              | Lit.Ne -> ())
          | _ -> ())
        lits;
      (* substitution-space cap *)
      let cap =
        Hashtbl.fold
          (fun v _ acc -> Float.min count_cap (acc *. env_card universe env v))
          occ 1.0
      in
      Float.min (Float.min !rows cap) count_cap
    end

let pred_space universe st =
  Array.fold_left
    (fun acc d -> Float.min count_cap (acc *. dom_card_f universe d))
    1.0 st.sdoms

let count_fixpoint states universe rules max_rounds =
  (* precompute the live body environments once; counts iterate over them *)
  let prepared =
    List.filter_map
      (fun r ->
        match r with
        | Rule.Weak _ -> None
        | Rule.Rule { head; body; _ } -> (
            let renv = body_env states body in
            if renv.rdead <> None then None
            else
              match head with
              | Rule.Falsity -> None
              | Rule.Head a when body = [] && Atom.is_ground a ->
                  None (* ground fact: already in the exact base count *)
              | Rule.Head a -> Some (renv, body, [ (a, body) ])
              | Rule.Choice { elems; _ } ->
                  let live =
                    List.filter_map
                      (fun (e : Rule.choice_elem) ->
                        let _, edead = elem_env states renv e.Rule.cond in
                        if edead = None then
                          Some (e.Rule.atom, body @ e.Rule.cond)
                        else None)
                      elems
                  in
                  Some (renv, body, live)))
      rules
  in
  let rounds = max 32 max_rounds in
  let continue_ = ref true in
  let round = ref 0 in
  while !continue_ && !round < rounds do
    incr round;
    continue_ := false;
    (* accumulate fresh contributions per head predicate *)
    let contrib = Hashtbl.create 16 in
    List.iter
      (fun (renv, _body, heads) ->
        List.iter
          (fun (a, joint) ->
            let s = (a.Atom.pred, Atom.arity a) in
            let est = est_join states universe renv.renv_tbl joint in
            Hashtbl.replace contrib s
              (est +. Option.value ~default:0.0 (Hashtbl.find_opt contrib s)))
          heads)
      prepared;
    Hashtbl.iter
      (fun s st ->
        let base = float_of_int (List.length st.sfacts) in
        let extra = Option.value ~default:0.0 (Hashtbl.find_opt contrib s) in
        let nu = Float.min (pred_space universe st) (base +. extra) in
        let nu = Float.min nu count_cap in
        if nu > st.scount *. 1.005 +. 0.0001 then begin
          st.scount <- nu;
          continue_ := true
        end)
      states
  done

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let rec term_consts acc (t : Term.t) =
  match t.Term.node with
  | Term.Const _ | Term.Int _ | Term.Str _ -> Domain.TermSet.add t acc
  | Term.Var _ -> acc
  | Term.Func (_, args) -> List.fold_left term_consts acc args

let collect_universe rules =
  let acc = ref Domain.TermSet.empty in
  let atom (a : Atom.t) =
    acc := List.fold_left term_consts !acc a.Atom.args
  in
  let rec lit = function
    | Lit.Pos a | Lit.Neg a -> atom a
    | Lit.Cmp (t1, _, t2) ->
        acc := term_consts (term_consts !acc t1) t2
    | Lit.Count { terms; cond; bound; _ } ->
        acc := List.fold_left term_consts !acc (bound :: terms);
        List.iter lit cond
  in
  List.iter
    (fun r ->
      match r with
      | Rule.Rule { head; body; _ } ->
          (match head with
          | Rule.Head a -> atom a
          | Rule.Falsity -> ()
          | Rule.Choice { elems; _ } ->
              List.iter
                (fun (e : Rule.choice_elem) ->
                  atom e.Rule.atom;
                  List.iter lit e.Rule.cond)
                elems);
          List.iter lit body
      | Rule.Weak { body; weight; terms; _ } ->
          acc := List.fold_left term_consts !acc (weight :: terms);
          List.iter lit body)
    rules;
  max 1 (Domain.TermSet.cardinal !acc)

let mark_consumed states prog =
  let mark (s : string * int) =
    match Hashtbl.find_opt states s with
    | Some st -> st.sconsumed <- true
    | None -> ()
  in
  let rec lit = function
    | Lit.Pos a | Lit.Neg a -> mark (Atom.signature a)
    | Lit.Cmp _ -> ()
    | Lit.Count { cond; _ } -> List.iter lit cond
  in
  List.iter
    (fun r ->
      match r with
      | Rule.Rule { body; head; _ } ->
          List.iter lit body;
          (match head with
          | Rule.Choice { elems; _ } ->
              List.iter (fun (e : Rule.choice_elem) -> List.iter lit e.Rule.cond) elems
          | _ -> ())
      | Rule.Weak { body; _ } -> List.iter lit body)
    (Program.rules prog);
  match Program.shows prog with
  | [] -> Hashtbl.iter (fun _ st -> st.sconsumed <- true) states
  | shows -> List.iter mark shows

let analyze ?(max_rounds = 64) prog =
  let rules = Program.rules prog in
  let universe = collect_universe rules in
  let states : (string * int, pstate) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (p, n) ->
      Hashtbl.replace states (p, n)
        {
          sdoms = Array.make n Domain.bot;
          sderivable = false;
          sdefined = false;
          sconsumed = false;
          sfacts = [];
          scount = 0.0;
          shas_rule = false;
        })
    (Program.predicates prog);
  (* syntactic prepass: defined flags, exact fact sets *)
  let fact_sets : (string * int, AtomSet.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun r ->
      match r with
      | Rule.Weak _ -> ()
      | Rule.Rule { head; body; _ } ->
          let is_choice =
            match head with Rule.Choice _ -> true | _ -> false
          in
          let heads = Rule.head_atoms r in
          List.iter
            (fun a ->
              match Hashtbl.find_opt states (Atom.signature a) with
              | None -> ()
              | Some st ->
                  st.sdefined <- true;
                  if is_choice || body <> [] || not (Atom.is_ground a) then
                    st.shas_rule <- true)
            heads;
          if body = [] then
            match head with
            | Rule.Head a when Atom.is_ground a -> (
                match Atom.eval a with
                | a ->
                    let s = Atom.signature a in
                    let set =
                      Option.value ~default:AtomSet.empty
                        (Hashtbl.find_opt fact_sets s)
                    in
                    Hashtbl.replace fact_sets s (AtomSet.add a set)
                | exception Invalid_argument _ -> ())
            | _ -> ())
    rules;
  Hashtbl.iter
    (fun s set ->
      match Hashtbl.find_opt states s with
      | Some st -> st.sfacts <- AtomSet.elements set
      | None -> ())
    fact_sets;
  (* choice rules / non-ground heads also count as "has rule" for exactness;
     a pred is exact iff everything deriving it was a ground fact *)
  mark_consumed states prog;
  domain_fixpoint states rules max_rounds;
  count_fixpoint states universe rules max_rounds;
  (* final per-rule pass with the stabilised state *)
  let rinfos =
    List.mapi
      (fun index r ->
        let body = Rule.body r in
        let renv = body_env states body in
        let env_list =
          Hashtbl.fold (fun v d acc -> (v, d) :: acc) renv.renv_tbl []
          |> List.sort compare
        in
        let base = { index; rule = r; env = env_list; dead = renv.rdead;
                     firings = 0.0; cost = 0.0; cmp_true = renv.rcmp_true;
                     false_aggs = renv.rfalse_aggs; dead_elems = [];
                     live_elems = 0 } in
        if renv.rdead <> None then base
        else
          let firings = est_join states universe renv.renv_tbl body in
          match r with
          | Rule.Rule { head = Rule.Choice { elems; _ }; _ } ->
              let dead_elems, live =
                List.fold_left
                  (fun (de, live) (e : Rule.choice_elem) ->
                    let _, edead = elem_env states renv e.Rule.cond in
                    match edead with
                    | Some c -> ((e.Rule.atom, c) :: de, live)
                    | None -> (de, e :: live))
                  ([], []) elems
              in
              let elem_cost =
                List.fold_left
                  (fun acc (e : Rule.choice_elem) ->
                    acc
                    +. est_join states universe renv.renv_tbl
                         (body @ e.Rule.cond))
                  0.0 live
              in
              {
                base with
                firings;
                cost = Float.min count_cap (firings +. elem_cost);
                dead_elems = List.rev dead_elems;
                live_elems = List.length live;
              }
          | _ -> { base with firings; cost = firings })
      rules
  in
  let infos =
    Hashtbl.fold
      (fun s st acc ->
        let info =
          {
            psig = s;
            doms = Array.copy st.sdoms;
            card = st.scount;
            fact_count = List.length st.sfacts;
            exact = not st.shas_rule;
            defined = st.sdefined;
            derivable = st.sderivable;
            consumed = st.sconsumed;
          }
        in
        (s, info) :: acc)
      states []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let tbl = Hashtbl.create 32 in
  List.iter (fun (s, i) -> Hashtbl.replace tbl s i) infos;
  let total =
    List.fold_left (fun acc ri -> acc +. ri.cost) 0.0 rinfos
  in
  { prog; infos; tbl; rinfos; universe; total }

(* ------------------------------------------------------------------ *)
(* Public term evaluation                                              *)
(* ------------------------------------------------------------------ *)

let eval_term _t env term =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (v, d) -> Hashtbl.replace tbl v d) env;
  eval_term_env tbl term
