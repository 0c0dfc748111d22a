type count_elem = { etuple : Term.t list; epos : int array; eneg : int array }

type count = {
  ckind : Lit.agg_kind;
  celems : count_elem array;
  cop : Lit.cmp;
  cbound : int;
}

type rule = { head : int; pos : int array; neg : int array; counts : int array }
type elem = { eatom : int; egpos : int array; egneg : int array }

type choice = {
  lower : int option;
  upper : int option;
  elems : elem array;
  cpos : int array;
  cneg : int array;
  ccounts : int array;
}

type constr = { kpos : int array; kneg : int array; kcounts : int array }

type weak = {
  wpos : int array;
  wneg : int array;
  wcounts : int array;
  weight : int;
  priority : int;
  terms : Term.t list;
}

module AtomTbl = Hashtbl.Make (struct
  type t = Atom.t

  let equal = Atom.equal
  let hash = Atom.hash
end)

type t = {
  atoms : Atom.t array;
  index : int AtomTbl.t;
  n_atoms : int;
  facts : int array;
  rules : rule array;
  choices : choice array;
  constraints : constr array;
  weaks : weak array;
  counts : count array;
  choice_atoms : Bitset.t;
  derived_head : Bitset.t;
  has_counts : bool;
  has_negative_weight : bool;
}

(* table : Atom.t -> id, shared during compilation only *)
let intern table atoms_rev next a =
  match AtomTbl.find_opt table a with
  | Some i -> i
  | None ->
      let i = !next in
      AtomTbl.replace table a i;
      atoms_rev := a :: !atoms_rev;
      incr next;
      i

let compile (g : Ground.t) =
  let table = AtomTbl.create 1024 in
  let atoms_rev = ref [] in
  let next = ref 0 in
  let id a = intern table atoms_rev next a in
  (* seed from the grounder's universe index: ids ascend in Atom.compare
     order, so iterating set bits yields atoms already sorted *)
  Model.AtomSet.iter (fun a -> ignore (id a)) g.Ground.universe;
  let ids l = Array.of_list (List.map id l) in
  let counts_rev = ref [] in
  let n_counts = ref 0 in
  let compile_counts cs =
    Array.of_list
      (List.map
         (fun (c : Ground.gcount) ->
           let celems =
             Array.of_list
               (List.map
                  (fun (e : Ground.gcount_elem) ->
                    {
                      etuple = e.Ground.etuple;
                      epos = ids e.Ground.epos;
                      eneg = ids e.Ground.eneg;
                    })
                  c.Ground.celems)
           in
           let idx = !n_counts in
           incr n_counts;
           counts_rev :=
             {
               ckind = c.Ground.ckind;
               celems;
               cop = c.Ground.cop;
               cbound = c.Ground.cbound;
             }
             :: !counts_rev;
           idx)
         cs)
  in
  let facts = ref []
  and rules = ref []
  and choices = ref []
  and constraints = ref []
  and weaks = ref [] in
  List.iter
    (fun r ->
      match r with
      | Ground.Gfact a -> facts := id a :: !facts
      | Ground.Grule { head; pos; neg; counts } ->
          rules :=
            { head = id head; pos = ids pos; neg = ids neg;
              counts = compile_counts counts }
            :: !rules
      | Ground.Gchoice { lower; upper; elems; pos; neg; counts } ->
          choices :=
            {
              lower;
              upper;
              elems =
                Array.of_list
                  (List.map
                     (fun (e : Ground.gelem) ->
                       {
                         eatom = id e.Ground.gatom;
                         egpos = ids e.Ground.gpos;
                         egneg = ids e.Ground.gneg;
                       })
                     elems);
              cpos = ids pos;
              cneg = ids neg;
              ccounts = compile_counts counts;
            }
            :: !choices
      | Ground.Gconstraint { pos; neg; counts } ->
          constraints :=
            { kpos = ids pos; kneg = ids neg; kcounts = compile_counts counts }
            :: !constraints
      | Ground.Gweak { pos; neg; counts; weight; priority; terms } ->
          weaks :=
            {
              wpos = ids pos;
              wneg = ids neg;
              wcounts = compile_counts counts;
              weight;
              priority;
              terms;
            }
            :: !weaks)
    g.Ground.rules;
  let atoms = Array.of_list (List.rev !atoms_rev) in
  let n_atoms = Array.length atoms in
  let facts = Array.of_list (List.rev !facts) in
  let rules = Array.of_list (List.rev !rules) in
  let choices = Array.of_list (List.rev !choices) in
  let constraints = Array.of_list (List.rev !constraints) in
  let weaks = Array.of_list (List.rev !weaks) in
  let counts = Array.of_list (List.rev !counts_rev) in
  let choice_atoms = Bitset.create n_atoms in
  Array.iter
    (fun c -> Array.iter (fun e -> Bitset.set choice_atoms e.eatom) c.elems)
    choices;
  let derived_head = Bitset.create n_atoms in
  Array.iter (fun a -> Bitset.set derived_head a) facts;
  Array.iter (fun r -> Bitset.set derived_head r.head) rules;
  {
    atoms;
    index = table;
    n_atoms;
    facts;
    rules;
    choices;
    constraints;
    weaks;
    counts;
    choice_atoms;
    derived_head;
    has_counts = counts <> [||];
    has_negative_weight = Array.exists (fun w -> w.weight < 0) weaks;
  }

let id p a = AtomTbl.find p.index a

let atoms_of_bitset p bits =
  let acc = ref Model.AtomSet.empty in
  Bitset.iter_true (fun i -> acc := Model.AtomSet.add p.atoms.(i) !acc) bits;
  !acc

let all_true m ids = Array.for_all (fun i -> Bitset.get m i) ids
let none_true m ids = not (Array.exists (fun i -> Bitset.get m i) ids)

let eval_count _p m (c : count) =
  let tuples =
    Array.to_list c.celems
    |> List.filter_map (fun e ->
           if all_true m e.epos && none_true m e.eneg then Some e.etuple
           else None)
    |> List.sort_uniq (List.compare Term.compare)
  in
  let n =
    match c.ckind with
    | Lit.Cardinality -> List.length tuples
    | Lit.Summation ->
        List.fold_left
          (fun acc tuple ->
            match tuple with
            | { Term.node = Term.Int w; _ } :: _ -> acc + w
            | _ -> acc (* non-integer weights contribute 0, as in clingo *))
          0 tuples
  in
  match c.cop with
  | Lit.Eq -> n = c.cbound
  | Lit.Ne -> n <> c.cbound
  | Lit.Lt -> n < c.cbound
  | Lit.Le -> n <= c.cbound
  | Lit.Gt -> n > c.cbound
  | Lit.Ge -> n >= c.cbound

let counts_sat p m idxs =
  Array.for_all (fun i -> eval_count p m p.counts.(i)) idxs

let cost_of p m =
  let tuples = Hashtbl.create 16 in
  Array.iter
    (fun w ->
      if all_true m w.wpos && none_true m w.wneg && counts_sat p m w.wcounts
      then Hashtbl.replace tuples (w.priority, w.weight, w.terms) ())
    p.weaks;
  let per_level = Hashtbl.create 4 in
  Hashtbl.iter
    (fun (priority, weight, _) () ->
      let cur = Option.value ~default:0 (Hashtbl.find_opt per_level priority) in
      Hashtbl.replace per_level priority (cur + weight))
    tuples;
  Hashtbl.fold (fun pr w acc -> (pr, w) :: acc) per_level []
  |> List.sort (fun (a, _) (b, _) -> Stdlib.compare b a)
