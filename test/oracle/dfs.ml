exception Unsupported of string

module AtomSet = Model.AtomSet

let default_max_guess = 64

(* statistics are shared with the CDNL solver; DFS leaves the
   conflict-driven counters at zero *)
module Stats = Solver_stats

(* ------------------------------------------------------------------ *)
(* Rule-level stratification of the ground program                     *)
(* ------------------------------------------------------------------ *)

(* Union-find over predicate signatures with path compression and
   union-by-size: all head predicates of one rule share a stratum (a
   choice rule may derive several predicates). *)
module Uf = struct
  type t = {
    parent : (string * int, string * int) Hashtbl.t;
    size : (string * int, int) Hashtbl.t;
  }

  let create () : t = { parent = Hashtbl.create 64; size = Hashtbl.create 64 }

  let rec find (uf : t) x =
    match Hashtbl.find_opt uf.parent x with
    | None ->
        Hashtbl.replace uf.parent x x;
        x
    | Some p when p = x -> x
    | Some p ->
        let r = find uf p in
        Hashtbl.replace uf.parent x r;
        r

  let size_of uf r = Option.value ~default:1 (Hashtbl.find_opt uf.size r)

  let union uf a b =
    let ra = find uf a and rb = find uf b in
    if ra <> rb then begin
      let sa = size_of uf ra and sb = size_of uf rb in
      let small, big = if sa <= sb then (ra, rb) else (rb, ra) in
      Hashtbl.replace uf.parent small big;
      Hashtbl.replace uf.size big (sa + sb)
    end
end

type rule_deps = {
  heads : (string * int) list;
  pos_deps : (string * int) list;
  neg_deps : (string * int) list;
}

(* every atom an aggregate's condition mentions must be decided strictly
   below the rule: treat them all as negative dependencies *)
let count_deps counts =
  List.concat_map
    (fun (c : Ground.gcount) ->
      List.concat_map
        (fun (e : Ground.gcount_elem) ->
          List.map Atom.signature e.Ground.epos
          @ List.map Atom.signature e.Ground.eneg)
        c.Ground.celems)
    counts

let rule_deps = function
  | Ground.Gfact a -> { heads = [ Atom.signature a ]; pos_deps = []; neg_deps = [] }
  | Ground.Grule { head; pos; neg; counts } ->
      {
        heads = [ Atom.signature head ];
        pos_deps = List.map Atom.signature pos;
        neg_deps = List.map Atom.signature neg @ count_deps counts;
      }
  | Ground.Gchoice { elems; pos; neg; counts; _ } ->
      {
        heads = List.map (fun e -> Atom.signature e.Ground.gatom) elems;
        pos_deps =
          List.map Atom.signature pos
          @ List.concat_map
              (fun e -> List.map Atom.signature e.Ground.gpos)
              elems;
        neg_deps =
          List.map Atom.signature neg
          @ List.concat_map
              (fun e -> List.map Atom.signature e.Ground.gneg)
              elems
          @ count_deps counts;
      }
  | Ground.Gconstraint _ | Ground.Gweak _ ->
      { heads = []; pos_deps = []; neg_deps = [] }

type strat = {
  stratum_of : (string * int) -> int;
  max_stratum : int;
  ok : bool; (* false when the program is not stratified modulo choices *)
}

let stratify (g : Ground.t) =
  let uf = Uf.create () in
  let deps = List.map rule_deps g.Ground.rules in
  (* merge head predicates of each rule *)
  List.iter
    (fun d ->
      match d.heads with
      | [] -> ()
      | h :: rest -> List.iter (fun h' -> Uf.union uf h h') rest)
    deps;
  (* collect nodes *)
  let nodes = Hashtbl.create 64 in
  let add_node sg = Hashtbl.replace nodes (Uf.find uf sg) () in
  List.iter
    (fun d ->
      List.iter add_node d.heads;
      List.iter add_node d.pos_deps;
      List.iter add_node d.neg_deps)
    deps;
  AtomSet.iter (fun a -> add_node (Atom.signature a)) g.Ground.universe;
  (* edges rep(head) -> (rep(dep), negated?), deduplicated per node in
     O(1) via a nested table instead of a List.mem scan *)
  let edges = Hashtbl.create 64 in
  let out_edges h =
    match Hashtbl.find_opt edges h with
    | Some t -> t
    | None ->
        let t = Hashtbl.create 8 in
        Hashtbl.add edges h t;
        t
  in
  let add_edge h d negp =
    let h = Uf.find uf h and d = Uf.find uf d in
    Hashtbl.replace (out_edges h) (d, negp) ()
  in
  List.iter
    (fun d ->
      List.iter
        (fun h ->
          List.iter (fun p -> add_edge h p false) d.pos_deps;
          List.iter (fun n -> add_edge h n true) d.neg_deps)
        d.heads)
    deps;
  (* longest-path stratum assignment with negative edges strict; detect
     negative cycles by bounding iterations. *)
  let node_list = Hashtbl.fold (fun n () acc -> n :: acc) nodes [] in
  let n_nodes = List.length node_list in
  let stratum = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace stratum n 0) node_list;
  let changed = ref true in
  let rounds = ref 0 in
  let ok = ref true in
  while !changed && !ok do
    changed := false;
    incr rounds;
    if !rounds > n_nodes + 1 then ok := false
    else
      List.iter
        (fun h ->
          match Hashtbl.find_opt edges h with
          | None -> ()
          | Some out ->
              let sh = Hashtbl.find stratum h in
              let best = ref sh in
              Hashtbl.iter
                (fun (d, negp) () ->
                  let sd = Hashtbl.find stratum d in
                  let required = if negp then sd + 1 else sd in
                  if !best < required then best := required)
                out;
              if !best > sh then begin
                Hashtbl.replace stratum h !best;
                changed := true
              end)
        node_list
  done;
  let max_stratum = Hashtbl.fold (fun _ s acc -> max s acc) stratum 0 in
  {
    stratum_of =
      (fun sg ->
        match Hashtbl.find_opt stratum (Uf.find uf sg) with
        | Some s -> s
        | None -> 0);
    max_stratum;
    ok = !ok;
  }

(* ------------------------------------------------------------------ *)
(* Pruned depth-first search over the choice space                      *)
(* ------------------------------------------------------------------ *)

(* The program is stratified modulo choices, so within one stratum the
   fixpoint is monotone: negative and aggregate dependencies point to
   strictly lower (already final) strata. The search therefore interleaves
   semi-naive propagation with decisions: rules fire only when a positive
   body atom is newly derived (watch index), and a choice element whose
   condition fires with an undecided atom becomes a branch point. A
   subtree is abandoned as soon as a constraint or a choice upper bound is
   violated on atoms whose values can no longer change. *)

exception Done
exception Prune

(* growable int stack; doubles as the assignment trail and, via [qhead],
   the semi-naive propagation queue *)
module Ivec = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = Array.make 64 0; len = 0 }

  let push v x =
    if v.len = Array.length v.a then begin
      let b = Array.make (2 * v.len) 0 in
      Array.blit v.a 0 b 0 v.len;
      v.a <- b
    end;
    v.a.(v.len) <- x;
    v.len <- v.len + 1
end

type watcher =
  | WRule of int
  | WChoiceBody of int
  | WChoiceElem of int * int

type engine = {
  p : Interned.t;
  astratum : int array; (* atom id -> stratum *)
  max_stratum : int;
  facts_at : int list array;
  rules_at : int list array;
  choices_at : int list array; (* choices with elements, by element stratum *)
  bounds_at : int list array; (* bound checks, by the stratum they are final *)
  constraints_at : int list array; (* full checks, by the stratum they are final *)
  count_max : int array; (* count idx -> max stratum mentioned *)
  weak_max : int array; (* weak idx -> max stratum mentioned *)
  watch : watcher list array; (* same-stratum positive-body dependents *)
  cwatch : int list array; (* constraints mentioning the atom *)
  bwatch : int list array; (* upper-bounded choices with an element on it *)
  value : Bitset.t;
  trail : Ivec.t;
  mutable qhead : int;
  decided : int array; (* 0 undecided / 1 in / 2 out *)
  stats : Stats.t;
  on_leaf : engine -> unit;
  on_boundary : engine -> int -> unit; (* branch-and-bound hook *)
}

let all_true e ids = Array.for_all (fun i -> Bitset.get e.value i) ids
let none_true e ids = not (Array.exists (fun i -> Bitset.get e.value i) ids)

(* counts whose atoms live strictly below [current] are final *)
let counts_final_sat e ~current idxs =
  Array.for_all
    (fun ci ->
      e.count_max.(ci) < current
      && Interned.eval_count e.p e.value e.p.Interned.counts.(ci))
    idxs

(* [i] is false now and in every extension of the current assignment:
   either its stratum is complete, or nothing can ever derive it, or it is
   a pure choice atom that has been decided out *)
let finally_false e ~current i =
  (not (Bitset.get e.value i))
  && (e.astratum.(i) < current
     || (not (Bitset.get e.p.Interned.derived_head i))
        && ((not (Bitset.get e.p.Interned.choice_atoms i))
           || e.decided.(i) = 2))

let certainly_violated e ~current k =
  let c = e.p.Interned.constraints.(k) in
  all_true e c.Interned.kpos
  && Array.for_all (finally_false e ~current) c.Interned.kneg
  && counts_final_sat e ~current c.Interned.kcounts

(* a choice upper bound is certainly violated when the body is certainly
   satisfied and more elements than the bound are certainly chosen; only
   meaningful while the choice's own stratum is being processed (earlier,
   element negative conditions are not final yet) *)
let choice_stratum e c =
  if Array.length c.Interned.elems = 0 then -1
  else e.astratum.(c.Interned.elems.(0).Interned.eatom)

let eager_bound_check e ~current cidx =
  let c = e.p.Interned.choices.(cidx) in
  match c.Interned.upper with
  | None -> ()
  | Some u ->
      if
        choice_stratum e c = current
        && all_true e c.Interned.cpos
        && none_true e c.Interned.cneg
        && counts_final_sat e ~current c.Interned.ccounts
      then begin
        let chosen = ref 0 in
        Array.iter
          (fun el ->
            if
              Bitset.get e.value el.Interned.eatom
              && all_true e el.Interned.egpos
              && none_true e el.Interned.egneg
            then incr chosen)
          c.Interned.elems;
        if !chosen > u then raise Prune
      end

let add_atom e ~current a =
  if not (Bitset.get e.value a) then begin
    Bitset.set e.value a;
    Ivec.push e.trail a;
    e.stats.Stats.firings <- e.stats.Stats.firings + 1;
    List.iter
      (fun k -> if certainly_violated e ~current k then raise Prune)
      e.cwatch.(a);
    List.iter (fun c -> eager_bound_check e ~current c) e.bwatch.(a)
  end

let undo e mark =
  while e.trail.Ivec.len > mark do
    e.trail.Ivec.len <- e.trail.Ivec.len - 1;
    Bitset.clear e.value e.trail.Ivec.a.(e.trail.Ivec.len)
  done;
  e.qhead <- mark

let body_sat e ~current (c : Interned.choice) =
  all_true e c.Interned.cpos
  && none_true e c.Interned.cneg
  && counts_final_sat e ~current c.Interned.ccounts

let try_rule e ~current ridx =
  let r = e.p.Interned.rules.(ridx) in
  if
    (not (Bitset.get e.value r.Interned.head))
    && all_true e r.Interned.pos
    && none_true e r.Interned.neg
    && counts_final_sat e ~current r.Interned.counts
  then add_atom e ~current r.Interned.head

(* a fired element with an undecided atom is a branch candidate; a decided
   or already-derived atom needs no decision *)
let try_elem e ~current acc cidx eidx =
  let c = e.p.Interned.choices.(cidx) in
  let el = c.Interned.elems.(eidx) in
  if
    body_sat e ~current c
    && all_true e el.Interned.egpos
    && none_true e el.Interned.egneg
  then begin
    let a = el.Interned.eatom in
    if not (Bitset.get e.value a) then
      match e.decided.(a) with
      | 1 -> add_atom e ~current a
      | 2 -> ()
      | _ -> acc := a :: !acc
  end

let try_choice_body e ~current acc cidx =
  let c = e.p.Interned.choices.(cidx) in
  if body_sat e ~current c then
    Array.iteri (fun eidx _ -> try_elem e ~current acc cidx eidx) c.Interned.elems

let propagate e ~current acc =
  while e.qhead < e.trail.Ivec.len do
    let a = e.trail.Ivec.a.(e.qhead) in
    e.qhead <- e.qhead + 1;
    List.iter
      (function
        | WRule r -> try_rule e ~current r
        | WChoiceBody c -> try_choice_body e ~current acc c
        | WChoiceElem (c, el) -> try_elem e ~current acc c el)
      e.watch.(a)
  done

(* full (non-eager) checks once every mentioned atom is final *)
let boundary_checks e s =
  List.iter
    (fun k ->
      let c = e.p.Interned.constraints.(k) in
      if
        all_true e c.Interned.kpos
        && none_true e c.Interned.kneg
        && Interned.counts_sat e.p e.value c.Interned.kcounts
      then raise Prune)
    e.constraints_at.(s);
  List.iter
    (fun cidx ->
      let c = e.p.Interned.choices.(cidx) in
      if
        all_true e c.Interned.cpos
        && none_true e c.Interned.cneg
        && Interned.counts_sat e.p e.value c.Interned.ccounts
      then begin
        let chosen = ref 0 in
        Array.iter
          (fun el ->
            if
              Bitset.get e.value el.Interned.eatom
              && all_true e el.Interned.egpos
              && none_true e el.Interned.egneg
            then incr chosen)
          c.Interned.elems;
        let lower_ok =
          match c.Interned.lower with Some lo -> !chosen >= lo | None -> true
        in
        let upper_ok =
          match c.Interned.upper with Some hi -> !chosen <= hi | None -> true
        in
        if not (lower_ok && upper_ok) then raise Prune
      end)
    e.bounds_at.(s);
  e.on_boundary e s

let seed e s acc =
  List.iter (fun a -> add_atom e ~current:s a) e.facts_at.(s);
  List.iter (fun r -> try_rule e ~current:s r) e.rules_at.(s);
  List.iter (fun c -> try_choice_body e ~current:s acc c) e.choices_at.(s)

let rec run_stratum e s cands =
  let acc = ref [] in
  propagate e ~current:s acc;
  decide e s (List.rev_append !acc cands)

and decide e s cands =
  match cands with
  | a :: rest when e.decided.(a) <> 0 || Bitset.get e.value a ->
      decide e s rest
  | a :: rest ->
      let mark = e.trail.Ivec.len in
      e.stats.Stats.guesses <- e.stats.Stats.guesses + 1;
      e.decided.(a) <- 1;
      (try
         add_atom e ~current:s a;
         run_stratum e s rest
       with Prune -> e.stats.Stats.pruned <- e.stats.Stats.pruned + 1);
      undo e mark;
      e.decided.(a) <- 0;
      e.stats.Stats.guesses <- e.stats.Stats.guesses + 1;
      e.decided.(a) <- 2;
      (try
         (* the atom is now certainly out (unless derivable by plain
            rules): re-examine the constraints mentioning it *)
         List.iter
           (fun k -> if certainly_violated e ~current:s k then raise Prune)
           e.cwatch.(a);
         run_stratum e s rest
       with Prune -> e.stats.Stats.pruned <- e.stats.Stats.pruned + 1);
      undo e mark;
      e.decided.(a) <- 0
  | [] ->
      boundary_checks e s;
      if s = e.max_stratum then begin
        e.stats.Stats.leaves <- e.stats.Stats.leaves + 1;
        e.on_leaf e
      end
      else begin
        let acc = ref [] in
        seed e (s + 1) acc;
        run_stratum e (s + 1) (List.rev !acc)
      end

let make_engine (p : Interned.t) (st : strat) stats ~on_leaf ~on_boundary =
  let n = p.Interned.n_atoms in
  let astratum =
    Array.init n (fun i -> st.stratum_of (Atom.signature p.Interned.atoms.(i)))
  in
  let strata = st.max_stratum + 1 in
  let facts_at = Array.make strata [] in
  let rules_at = Array.make strata [] in
  let choices_at = Array.make strata [] in
  let bounds_at = Array.make strata [] in
  let constraints_at = Array.make strata [] in
  let watch = Array.make (max n 1) [] in
  let cwatch = Array.make (max n 1) [] in
  let bwatch = Array.make (max n 1) [] in
  let max_over ids from = Array.fold_left (fun m i -> max m astratum.(i)) from ids in
  (* -1 when the aggregate mentions no atoms (e.g. all elements were
     simplified away by the grounder): such a count is final everywhere,
     including at stratum 0 *)
  let count_max =
    Array.map
      (fun (c : Interned.count) ->
        Array.fold_left
          (fun m (el : Interned.count_elem) ->
            max_over el.Interned.eneg (max_over el.Interned.epos m))
          (-1) c.Interned.celems)
      p.Interned.counts
  in
  let counts_max idxs = Array.fold_left (fun m ci -> max m count_max.(ci)) 0 idxs in
  let weak_max =
    Array.map
      (fun (w : Interned.weak) ->
        max
          (max_over w.Interned.wneg (max_over w.Interned.wpos 0))
          (counts_max w.Interned.wcounts))
      p.Interned.weaks
  in
  Array.iter (fun a -> facts_at.(astratum.(a)) <- a :: facts_at.(astratum.(a)))
    p.Interned.facts;
  Array.iteri
    (fun ridx (r : Interned.rule) ->
      let s = astratum.(r.Interned.head) in
      rules_at.(s) <- ridx :: rules_at.(s);
      Array.iter
        (fun a -> if astratum.(a) = s then watch.(a) <- WRule ridx :: watch.(a))
        r.Interned.pos)
    p.Interned.rules;
  Array.iteri
    (fun cidx (c : Interned.choice) ->
      if Array.length c.Interned.elems > 0 then begin
        let s = astratum.(c.Interned.elems.(0).Interned.eatom) in
        choices_at.(s) <- cidx :: choices_at.(s);
        bounds_at.(s) <- cidx :: bounds_at.(s);
        Array.iter
          (fun a ->
            if astratum.(a) = s then
              watch.(a) <- WChoiceBody cidx :: watch.(a))
          c.Interned.cpos;
        Array.iteri
          (fun eidx (el : Interned.elem) ->
            Array.iter
              (fun a ->
                if astratum.(a) = s then
                  watch.(a) <- WChoiceElem (cidx, eidx) :: watch.(a))
              el.Interned.egpos;
            if c.Interned.upper <> None then begin
              bwatch.(el.Interned.eatom) <- cidx :: bwatch.(el.Interned.eatom);
              Array.iter
                (fun a -> bwatch.(a) <- cidx :: bwatch.(a))
                el.Interned.egpos
            end)
          c.Interned.elems
      end
      else begin
        (* an element-free choice still carries bounds over its body *)
        let s =
          max
            (max_over c.Interned.cneg (max_over c.Interned.cpos 0))
            (counts_max c.Interned.ccounts)
        in
        bounds_at.(s) <- cidx :: bounds_at.(s)
      end)
    p.Interned.choices;
  Array.iteri
    (fun kidx (c : Interned.constr) ->
      let s =
        max
          (max_over c.Interned.kneg (max_over c.Interned.kpos 0))
          (counts_max c.Interned.kcounts)
      in
      constraints_at.(s) <- kidx :: constraints_at.(s);
      Array.iter (fun a -> cwatch.(a) <- kidx :: cwatch.(a)) c.Interned.kpos;
      Array.iter (fun a -> cwatch.(a) <- kidx :: cwatch.(a)) c.Interned.kneg)
    p.Interned.constraints;
  {
    p;
    astratum;
    max_stratum = st.max_stratum;
    facts_at;
    rules_at;
    choices_at;
    bounds_at;
    constraints_at;
    count_max;
    weak_max;
    watch;
    cwatch;
    bwatch;
    value = Bitset.create n;
    trail = Ivec.create ();
    qhead = 0;
    decided = Array.make (max n 1) 0;
    stats;
    on_leaf;
    on_boundary;
  }

(* partial weak-constraint cost over the weaks that are already final;
   with non-negative weights this is a lower bound on every extension *)
let partial_cost e s =
  let tuples = Hashtbl.create 16 in
  Array.iteri
    (fun widx (w : Interned.weak) ->
      if
        e.weak_max.(widx) <= s
        && all_true e w.Interned.wpos
        && none_true e w.Interned.wneg
        && Interned.counts_sat e.p e.value w.Interned.wcounts
      then
        Hashtbl.replace tuples (w.Interned.priority, w.Interned.weight, w.Interned.terms) ())
    e.p.Interned.weaks;
  let per_level = Hashtbl.create 4 in
  Hashtbl.iter
    (fun (priority, weight, _) () ->
      let cur = Option.value ~default:0 (Hashtbl.find_opt per_level priority) in
      Hashtbl.replace per_level priority (cur + weight))
    tuples;
  Hashtbl.fold (fun pr w acc -> (pr, w) :: acc) per_level []
  |> List.sort (fun (a, _) (b, _) -> Stdlib.compare b a)

(* ------------------------------------------------------------------ *)
(* Non-stratified fallback: guess negated atoms, verify the reduct      *)
(* ------------------------------------------------------------------ *)

(* least model of the reduct via a worklist over an all-rules watch index;
   negatives are decided by [guess], choice atoms admitted by [guess] *)
let eval_reduct_interned (p : Interned.t) ~guess value stats =
  Bitset.reset value;
  let trail = Ivec.create () in
  let qhead = ref 0 in
  let n = p.Interned.n_atoms in
  let watch = Array.make (max n 1) [] in
  Array.iteri
    (fun ridx (r : Interned.rule) ->
      Array.iter
        (fun a -> watch.(a) <- WRule ridx :: watch.(a))
        r.Interned.pos)
    p.Interned.rules;
  Array.iteri
    (fun cidx (c : Interned.choice) ->
      Array.iter
        (fun a -> watch.(a) <- WChoiceBody cidx :: watch.(a))
        c.Interned.cpos;
      Array.iteri
        (fun eidx (el : Interned.elem) ->
          Array.iter
            (fun a -> watch.(a) <- WChoiceElem (cidx, eidx) :: watch.(a))
            el.Interned.egpos)
        c.Interned.elems)
    p.Interned.choices;
  let add a =
    if not (Bitset.get value a) then begin
      Bitset.set value a;
      Ivec.push trail a;
      stats.Stats.firings <- stats.Stats.firings + 1
    end
  in
  let neg_ok ids = not (Array.exists (fun i -> Bitset.get guess i) ids) in
  let all_true ids = Array.for_all (fun i -> Bitset.get value i) ids in
  let try_rule ridx =
    let r = p.Interned.rules.(ridx) in
    if
      (not (Bitset.get value r.Interned.head))
      && all_true r.Interned.pos && neg_ok r.Interned.neg
    then add r.Interned.head
  in
  let try_elem cidx eidx =
    let c = p.Interned.choices.(cidx) in
    let el = c.Interned.elems.(eidx) in
    if
      all_true c.Interned.cpos && neg_ok c.Interned.cneg
      && Bitset.get guess el.Interned.eatom
      && all_true el.Interned.egpos
      && neg_ok el.Interned.egneg
    then add el.Interned.eatom
  in
  let try_choice_body cidx =
    let c = p.Interned.choices.(cidx) in
    if all_true c.Interned.cpos && neg_ok c.Interned.cneg then
      Array.iteri (fun eidx _ -> try_elem cidx eidx) c.Interned.elems
  in
  Array.iter add p.Interned.facts;
  Array.iteri (fun ridx _ -> try_rule ridx) p.Interned.rules;
  Array.iteri (fun cidx _ -> try_choice_body cidx) p.Interned.choices;
  while !qhead < trail.Ivec.len do
    let a = trail.Ivec.a.(!qhead) in
    incr qhead;
    List.iter
      (function
        | WRule r -> try_rule r
        | WChoiceBody c -> try_choice_body c
        | WChoiceElem (c, el) -> try_elem c el)
      watch.(a)
  done

let constraints_ok_interned (p : Interned.t) value =
  Array.for_all
    (fun (c : Interned.constr) ->
      not
        (Array.for_all (fun i -> Bitset.get value i) c.Interned.kpos
        && (not (Array.exists (fun i -> Bitset.get value i) c.Interned.kneg))
        && Interned.counts_sat p value c.Interned.kcounts))
    p.Interned.constraints

let bounds_ok_interned (p : Interned.t) value =
  Array.for_all
    (fun (c : Interned.choice) ->
      let all_true ids = Array.for_all (fun i -> Bitset.get value i) ids in
      let none_true ids = not (Array.exists (fun i -> Bitset.get value i) ids) in
      if
        not
          (all_true c.Interned.cpos && none_true c.Interned.cneg
          && Interned.counts_sat p value c.Interned.ccounts)
      then true
      else begin
        let chosen = ref 0 in
        Array.iter
          (fun (el : Interned.elem) ->
            if
              Bitset.get value el.Interned.eatom
              && all_true el.Interned.egpos
              && none_true el.Interned.egneg
            then incr chosen)
          c.Interned.elems;
        (match c.Interned.lower with Some lo -> !chosen >= lo | None -> true)
        && match c.Interned.upper with Some hi -> !chosen <= hi | None -> true
      end)
    p.Interned.choices

(* ------------------------------------------------------------------ *)
(* Top-level drivers                                                    *)
(* ------------------------------------------------------------------ *)

(* every true atom: the oracle ignores [#show], unlike
   {!Interned.atoms_of_bitset} *)
let whole (p : Interned.t) bits =
  let acc = ref Model.AtomSet.empty in
  Bitset.iter_true (fun i -> acc := Model.AtomSet.add p.Interned.atoms.(i) !acc) bits;
  !acc

let solve_core ?limit ?(max_guess = default_max_guess) ~optimal (g : Ground.t) =
  let t0 = Unix.gettimeofday () in
  let stats = Stats.create () in
  let st = stratify g in
  let p = Interned.compile g in
  let models = ref [] in
  let seen : (Bitset.t, unit) Hashtbl.t = Hashtbl.create 64 in
  let n_found = ref 0 in
  let best = ref None in
  let bnb = optimal && not p.Interned.has_negative_weight in
  let add_model bits =
    let key = Bitset.copy bits in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      stats.Stats.models <- stats.Stats.models + 1;
      let cost = Interned.cost_of p bits in
      if optimal then begin
        (* models already beaten by the incumbent can never be optimal *)
        let keep =
          match !best with Some b -> Model.compare_cost cost b <= 0 | None -> true
        in
        (match !best with
        | Some b when Model.compare_cost cost b >= 0 -> ()
        | _ -> best := Some cost);
        if keep then
          models := Model.make ~cost (whole p bits) :: !models
      end
      else begin
        models := Model.make ~cost (whole p bits) :: !models;
        incr n_found;
        match limit with Some l when !n_found >= l -> raise Done | _ -> ()
      end
    end
  in
  (try
     if st.ok then begin
       let n_choices = Bitset.cardinal p.Interned.choice_atoms in
       if n_choices > max_guess then
         raise
           (Unsupported
              (Printf.sprintf "%d choice atoms exceed the guess bound %d"
                 n_choices max_guess));
       let on_leaf e = add_model e.value in
       let on_boundary e s =
         if bnb then
           match !best with
           | None -> ()
           | Some b ->
               if Model.compare_cost (partial_cost e s) b > 0 then raise Prune
       in
       let e = make_engine p st stats ~on_leaf ~on_boundary in
       try
         let acc = ref [] in
         seed e 0 acc;
         run_stratum e 0 (List.rev !acc)
       with Prune -> stats.Stats.pruned <- stats.Stats.pruned + 1
     end
     else begin
       (* non-stratified fallback: guess negated atoms too and verify the
          Gelfond–Lifschitz consistency condition *)
       if p.Interned.has_counts then
         raise
           (Unsupported
              "aggregates require the program to be stratified modulo choices");
       let n = p.Interned.n_atoms in
       let negs = Bitset.create n in
       Array.iter
         (fun (r : Interned.rule) -> Array.iter (Bitset.set negs) r.Interned.neg)
         p.Interned.rules;
       Array.iter
         (fun (c : Interned.choice) ->
           Array.iter (Bitset.set negs) c.Interned.cneg;
           Array.iter
             (fun (el : Interned.elem) ->
               Array.iter (Bitset.set negs) el.Interned.egneg)
             c.Interned.elems)
         p.Interned.choices;
       let guess_ids = ref [] in
       for i = n - 1 downto 0 do
         if Bitset.get negs i || Bitset.get p.Interned.choice_atoms i then
           guess_ids := i :: !guess_ids
       done;
       let guess_ids = !guess_ids in
       let n_guess = List.length guess_ids in
       if n_guess > max_guess then
         raise
           (Unsupported
              (Printf.sprintf
                 "non-stratified program with %d guess atoms exceeds bound %d"
                 n_guess max_guess));
       let neg_ids = ref [] in
       for i = n - 1 downto 0 do
         if Bitset.get negs i then neg_ids := i :: !neg_ids
       done;
       let neg_ids = !neg_ids in
       let guess = Bitset.create n in
       let value = Bitset.create n in
       let rec go = function
         | [] ->
             stats.Stats.leaves <- stats.Stats.leaves + 1;
             eval_reduct_interned p ~guess value stats;
             let consistent =
               List.for_all
                 (fun a -> Bitset.get value a = Bitset.get guess a)
                 neg_ids
             in
             if
               consistent
               && constraints_ok_interned p value
               && bounds_ok_interned p value
             then add_model value
         | a :: rest ->
             stats.Stats.guesses <- stats.Stats.guesses + 2;
             go rest;
             Bitset.set guess a;
             go rest;
             Bitset.clear guess a
       in
       (try go guess_ids with Done -> ())
     end
   with Done -> ());
  let result = List.sort Model.compare !models in
  let result =
    if optimal then
      match !best with
      | None -> []
      | Some b ->
          List.filter (fun m -> Model.compare_cost (Model.cost m) b = 0) result
    else result
  in
  stats.Stats.wall_s <- Unix.gettimeofday () -. t0;
  (result, stats)

let solve_with_stats ?limit ?max_guess g =
  solve_core ?limit ?max_guess ~optimal:false g

let solve ?limit ?max_guess g = fst (solve_with_stats ?limit ?max_guess g)

let solve_optimal_with_stats ?max_guess g =
  solve_core ?max_guess ~optimal:true g

let solve_optimal ?max_guess g = fst (solve_optimal_with_stats ?max_guess g)

let satisfiable ?max_guess g = solve ?max_guess ~limit:1 g <> []

(* Gelfond–Lifschitz verification stays on the reference implementation:
   the oracle must share no code with the fast path it validates. *)
let is_stable_model = Naive.is_stable_model
