(* The pre-rewrite two-phase grounder, retained verbatim as the differential
   oracle for [Grounder] (the same role [Naive] plays for [Solver]). The only
   behavioural deltas from the historical code are (a) the [?universe_seed]
   over-approximation hook is gone — superseded by [Grounder.prepare]/[extend]
   — and (b) phase-2 candidate lists are canonicalised to ascending
   [Atom.compare] order so that enumeration order (and therefore the emitted
   [Ground.t]) is a function of the universe *set*, not of derivation order.
   [Grounder] applies the same canonicalisation, which is what makes
   bit-for-bit comparison of the two outputs meaningful. *)

exception Unsafe of string
exception Overflow of string

let check_rule r =
  match Safety.violations r with
  | [] -> ()
  | vs ->
      let located =
        match Rule.pos r with
        | Some p -> Rule.pos_to_string p ^ ": "
        | None -> ""
      in
      raise (Unsafe (located ^ Safety.describe r vs))

(* ------------------------------------------------------------------ *)
(* Matching                                                            *)
(* ------------------------------------------------------------------ *)

let rec unify subst pat gterm =
  let pat = Term.substitute subst pat in
  let pat = if Term.is_ground pat then Term.eval pat else pat in
  match pat.Term.node with
  | Term.Var v -> Some ((v, gterm) :: subst)
  | Term.Func (f, args) -> (
      match gterm.Term.node with
      | Term.Func (g, gargs)
        when String.equal f g && List.length args = List.length gargs ->
          unify_all subst args gargs
      | Term.Const _ | Term.Int _ | Term.Str _ | Term.Var _ | Term.Func _ ->
          None)
  | Term.Const _ | Term.Int _ | Term.Str _ ->
      if Term.equal pat gterm then Some subst else None

and unify_all subst pats gterms =
  match pats, gterms with
  | [], [] -> Some subst
  | p :: ps, g :: gs -> (
      match unify subst p g with
      | Some subst -> unify_all subst ps gs
      | None -> None)
  | _ -> None

let unify_atom subst (pat : Atom.t) (ga : Atom.t) =
  if String.equal pat.Atom.pred ga.Atom.pred then
    unify_all subst pat.Atom.args ga.Atom.args
  else None

type builtin_step = Result of bool | Bind of string * Term.t | Stuck

let try_builtin subst (l, op, r) =
  let l' = Term.substitute subst l and r' = Term.substitute subst r in
  if Term.is_ground l' && Term.is_ground r' then Result (Lit.eval_cmp op l' r')
  else
    match op, l'.Term.node, r'.Term.node with
    | Lit.Eq, Term.Var v, _ when Term.is_ground r' -> Bind (v, Term.eval r')
    | Lit.Eq, _, Term.Var v when Term.is_ground l' -> Bind (v, Term.eval l')
    | _ -> Stuck

let rec discharge subst builtins =
  let progressed = ref false in
  let rec pass subst acc = function
    | [] -> Some (subst, List.rev acc)
    | b :: rest -> (
        match try_builtin subst b with
        | Result true ->
            progressed := true;
            pass subst acc rest
        | Result false -> None
        | Bind (v, t) ->
            progressed := true;
            pass ((v, t) :: subst) acc rest
        | Stuck -> pass subst (b :: acc) rest)
  in
  match pass subst [] builtins with
  | None -> None
  | Some (subst, []) -> Some (subst, [])
  | Some (subst, leftover) ->
      if !progressed then discharge subst leftover else Some (subst, leftover)

let matches by_sig subst0 lits ~on_match =
  let positives =
    List.filter_map
      (function
        | Lit.Pos a -> Some a
        | Lit.Neg _ | Lit.Cmp _ | Lit.Count _ -> None)
      lits
  in
  let builtins =
    List.filter_map
      (function
        | Lit.Cmp (l, op, r) -> Some (l, op, r)
        | Lit.Pos _ | Lit.Neg _ | Lit.Count _ -> None)
      lits
  in
  let candidates sg =
    match Hashtbl.find_opt by_sig sg with Some l -> !l | None -> []
  in
  let rec go subst builtins = function
    | [] -> (
        match discharge subst builtins with
        | Some (subst, []) -> on_match subst
        | Some (_, _ :: _) ->
            raise (Unsafe "builtin comparison with unbound variables")
        | None -> ())
    | pat :: rest -> (
        match discharge subst builtins with
        | None -> ()
        | Some (subst, builtins) ->
            let pat' = Atom.substitute subst pat in
            List.iter
              (fun ga ->
                match unify_atom subst pat' ga with
                | Some subst -> go subst builtins rest
                | None -> ())
              (candidates (Atom.signature pat')))
  in
  go subst0 builtins positives

let negatives lits =
  List.filter_map
    (function Lit.Neg a -> Some a | Lit.Pos _ | Lit.Cmp _ | Lit.Count _ -> None)
    lits

let positive_atoms lits =
  List.filter_map
    (function Lit.Pos a -> Some a | Lit.Neg _ | Lit.Cmp _ | Lit.Count _ -> None)
    lits

let count_lits lits =
  List.filter_map
    (function
      | Lit.Count c -> Some c | Lit.Pos _ | Lit.Neg _ | Lit.Cmp _ -> None)
    lits

(* ------------------------------------------------------------------ *)
(* Grounding                                                           *)
(* ------------------------------------------------------------------ *)

let ground ?(max_atoms = 200_000) p =
  List.iter check_rule (Program.rules p);
  let univ : (Atom.t, unit) Hashtbl.t = Hashtbl.create 1024 in
  let by_sig : (string * int, Atom.t list ref) Hashtbl.t = Hashtbl.create 64 in
  let count = ref 0 in
  let add_atom a =
    let a = Atom.eval a in
    if not (Atom.is_ground a) then
      raise (Unsafe ("derived non-ground atom " ^ Atom.to_string a));
    if Hashtbl.mem univ a then false
    else begin
      Hashtbl.replace univ a ();
      incr count;
      if !count > max_atoms then
        raise
          (Overflow
             (Printf.sprintf "atom universe exceeded %d atoms" max_atoms));
      let key = Atom.signature a in
      (match Hashtbl.find_opt by_sig key with
      | Some l -> l := a :: !l
      | None -> Hashtbl.add by_sig key (ref [ a ]));
      true
    end
  in
  (* Phase 1: universe fixpoint over the positive projection. *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun r ->
        match r with
        | Rule.Weak _ -> ()
        | Rule.Rule { head; body; _ } ->
            matches by_sig [] body ~on_match:(fun subst ->
                match head with
                | Rule.Falsity -> ()
                | Rule.Head a ->
                    if add_atom (Atom.substitute subst a) then changed := true
                | Rule.Choice { elems; _ } ->
                    List.iter
                      (fun (e : Rule.choice_elem) ->
                        matches by_sig subst e.cond ~on_match:(fun subst' ->
                            if add_atom (Atom.substitute subst' e.atom) then
                              changed := true))
                      elems))
      (Program.rules p)
  done;
  (* Canonicalise candidate order before phase 2 (see module comment). *)
  Hashtbl.iter (fun _ l -> l := List.sort Atom.compare !l) by_sig;
  (* Phase 2: final instantiation. *)
  let in_universe a = Hashtbl.mem univ a in
  let simplify_negs negs =
    List.filter in_universe (List.map (fun a -> Atom.eval a) negs)
  in
  let seen : (Ground.grule, unit) Hashtbl.t = Hashtbl.create 256 in
  let out = ref [] in
  let emit gr =
    if not (Hashtbl.mem seen gr) then begin
      Hashtbl.replace seen gr ();
      out := gr :: !out
    end
  in
  let ground_pos subst lits =
    List.map (fun a -> Atom.eval (Atom.substitute subst a)) (positive_atoms lits)
  in
  let ground_neg subst lits =
    simplify_negs (List.map (Atom.substitute subst) (negatives lits))
  in
  let ground_counts subst lits rule_str =
    List.map
      (fun (c : Lit.count) ->
        let cbound =
          match Term.eval_int (Term.substitute subst c.Lit.bound) with
          | Some n -> n
          | None ->
              raise
                (Unsafe ("aggregate bound is not an integer in: " ^ rule_str))
        in
        let celems = ref [] in
        matches by_sig subst c.Lit.cond ~on_match:(fun subst' ->
            let ce =
              {
                Ground.etuple =
                  List.map
                    (fun t -> Term.eval (Term.substitute subst' t))
                    c.Lit.terms;
                epos = ground_pos subst' c.Lit.cond;
                eneg = ground_neg subst' c.Lit.cond;
              }
            in
            if not (List.mem ce !celems) then celems := ce :: !celems);
        {
          Ground.ckind = c.Lit.kind;
          celems = List.rev !celems;
          cop = c.Lit.op;
          cbound;
        })
      (count_lits lits)
  in
  List.iter
    (fun r ->
      let rule_str = Rule.to_string r in
      match r with
      | Rule.Rule { head; body; _ } ->
          matches by_sig [] body ~on_match:(fun subst ->
              let pos = ground_pos subst body in
              let neg = ground_neg subst body in
              let counts = ground_counts subst body rule_str in
              match head with
              | Rule.Head a ->
                  let head = Atom.eval (Atom.substitute subst a) in
                  if pos = [] && neg = [] && counts = [] then
                    emit (Ground.Gfact head)
                  else emit (Ground.Grule { head; pos; neg; counts })
              | Rule.Falsity -> emit (Ground.Gconstraint { pos; neg; counts })
              | Rule.Choice { lower; upper; elems } ->
                  let gelems = ref [] in
                  List.iter
                    (fun (e : Rule.choice_elem) ->
                      matches by_sig subst e.cond ~on_match:(fun subst' ->
                          let ge =
                            {
                              Ground.gatom =
                                Atom.eval (Atom.substitute subst' e.atom);
                              gpos = ground_pos subst' e.cond;
                              gneg = ground_neg subst' e.cond;
                            }
                          in
                          if not (List.mem ge !gelems) then
                            gelems := ge :: !gelems))
                    elems;
                  emit
                    (Ground.Gchoice
                       { lower; upper; elems = List.rev !gelems; pos; neg; counts }))
      | Rule.Weak { body; weight; priority; terms; _ } ->
          matches by_sig [] body ~on_match:(fun subst ->
              let pos = ground_pos subst body in
              let neg = ground_neg subst body in
              let counts = ground_counts subst body rule_str in
              let weight =
                match Term.eval_int (Term.substitute subst weight) with
                | Some w -> w
                | None ->
                    raise
                      (Unsafe
                         ("weak constraint weight is not an integer: "
                        ^ Rule.to_string r))
              in
              let terms =
                List.map (fun t -> Term.eval (Term.substitute subst t)) terms
              in
              emit (Ground.Gweak { pos; neg; counts; weight; priority; terms })))
    (Program.rules p);
  let universe =
    Hashtbl.fold
      (fun a () acc -> Model.AtomSet.add a acc)
      univ Model.AtomSet.empty
  in
  {
    Ground.rules = List.rev !out;
    universe;
    shows = Program.shows p;
    numbering = Ground.number universe;
  }
