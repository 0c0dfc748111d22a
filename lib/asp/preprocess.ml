(* Clause-level preprocessing over completion nogoods, run once before
   CDNL search: unit propagation to fixpoint and — when the caller allows
   it — binary-clause equivalence reduction restricted to body variables.

   The restriction matters for soundness. Atom variables are the model
   projection, so merging them would change the reported models;
   aggregate variables are evaluated lazily against the total candidate,
   so they must stay materialized for the solver's explanations. Body variables of a *tight* program carry no semantic
   weight beyond their defining clauses: the unfounded-set machinery
   (which reads body-variable values directly) never runs, eliminated
   variables are simply auto-decided at the fringe, and the model
   projection is untouched. Callers therefore pass [elim_bodies = tight].

   Unit propagation is sound unconditionally (for enumeration too). *)

type result = {
  clauses : int array list;  (* surviving clauses, >= 2 literals each *)
  forced : int list;  (* level-0 literals, in derivation order *)
  unsat : bool;
}

type state = {
  value : int array;  (* var -> 0 undef / 1 true / -1 false *)
  mutable forced_rev : int list;
  mutable unsat : bool;
}

let value_lit st l =
  let v = st.value.(l lsr 1) in
  if l land 1 = 0 then v else -v

(* returns true when the literal was freshly assigned *)
let assign st l =
  match value_lit st l with
  | 1 -> false
  | -1 ->
      st.unsat <- true;
      false
  | _ ->
      st.value.(l lsr 1) <- (if l land 1 = 0 then 1 else -1);
      st.forced_rev <- l :: st.forced_rev;
      true

(* sort, drop duplicate literals, fold in the current assignment;
   [`Sat] covers tautologies and satisfied clauses *)
let normalize st lits =
  let lits = List.sort_uniq compare lits in
  let rec check = function
    | a :: (b :: _ as rest) ->
        if a lxor b = 1 then true else check rest
    | _ -> false
  in
  if check lits || List.exists (fun l -> value_lit st l = 1) lits then `Sat
  else `Clause (List.filter (fun l -> value_lit st l = 0) lits)

type cl = { lits : int array; mutable n_free : int; mutable dead : bool }

(* counting-based unit propagation to fixpoint over normalized clauses
   (no assigned or duplicate literals on entry); returns the surviving
   clauses as literal lists *)
let propagate st nvars clauses =
  let queue = Queue.create () in
  let push_unit l = if assign st l then Queue.add l queue in
  let occ = Array.make (2 * max nvars 1) [] in
  let records = ref [] in
  List.iter
    (fun lits ->
      match lits with
      | [] -> st.unsat <- true
      | [ l ] -> push_unit l
      | _ ->
          let c =
            { lits = Array.of_list lits; n_free = List.length lits; dead = false }
          in
          records := c :: !records;
          List.iter (fun l -> occ.(l) <- c :: occ.(l)) lits)
    clauses;
  let records = List.rev !records in
  while (not st.unsat) && not (Queue.is_empty queue) do
    let l = Queue.pop queue in
    List.iter (fun c -> c.dead <- true) occ.(l);
    List.iter
      (fun c ->
        if not c.dead then begin
          c.n_free <- c.n_free - 1;
          if c.n_free = 0 then st.unsat <- true
          else if c.n_free = 1 then begin
            (* exactly one literal is not yet processed-false: it may be
               free (unit), true (satisfied), or false by a queued but
               unprocessed assignment (conflict — do NOT mark dead, or
               the pending queue entry would skip it) *)
            let u = ref (-1) in
            let sat = ref false in
            Array.iter
              (fun x ->
                match value_lit st x with
                | 0 -> u := x
                | 1 -> sat := true
                | _ -> ())
              c.lits;
            if !sat then c.dead <- true
            else if !u >= 0 then push_unit !u
            else st.unsat <- true
          end
        end)
      occ.(l lxor 1)
  done;
  if st.unsat then []
  else
    List.filter_map
      (fun c ->
        if c.dead then None
        else
          Some
            (Array.to_list c.lits
            |> List.filter (fun l -> value_lit st l = 0)))
      records

(* ------------------------------------------------------------------ *)
(* Equivalence reduction (body variables only)                          *)
(* ------------------------------------------------------------------ *)

(* union-find with parity: val(v) = val(root) xor parity *)
let uf_find parent par v =
  let rec root v = if parent.(v) = v then v else root parent.(v) in
  let r = root v in
  (* path-compress, accumulating parities top-down *)
  let rec compress v =
    if parent.(v) = v then 0
    else begin
      let p = par.(v) lxor compress parent.(v) in
      parent.(v) <- r;
      par.(v) <- p;
      p
    end
  in
  (r, compress v)

let uf_union st parent par u v q =
  let ru, pu = uf_find parent par u in
  let rv, pv = uf_find parent par v in
  if ru = rv then begin
    if pu lxor pv lxor q <> 0 then st.unsat <- true
  end
  else if ru < rv then begin
    parent.(rv) <- ru;
    par.(rv) <- pu lxor pv lxor q
  end
  else begin
    parent.(ru) <- rv;
    par.(ru) <- pu lxor pv lxor q
  end

(* detect binary-clause equivalences ((l1 | l2) together with
   (~l1 | ~l2) means l1 <-> ~l2), merge the variable classes, and
   substitute every eliminable body variable by its representative.
   Returns the substituted clauses re-normalized, plus the count. *)
let equiv_reduce st ~nvars ~body_base clauses =
  let pairs = Hashtbl.create 64 in
  List.iter
    (fun lits ->
      match lits with
      | [ a; b ] -> Hashtbl.replace pairs (min a b, max a b) ()
      | _ -> ())
    clauses;
  let parent = Array.init (max nvars 1) (fun i -> i) in
  let par = Array.make (max nvars 1) 0 in
  Hashtbl.iter
    (fun (a, b) () ->
      let ca, cb = (a lxor 1, b lxor 1) in
      if
        Hashtbl.mem pairs (min ca cb, max ca cb)
        && (a lsr 1 >= body_base || b lsr 1 >= body_base)
      then
        uf_union st parent par (a lsr 1) (b lsr 1)
          (1 lxor (a land 1) lxor (b land 1)))
    pairs;
  let eliminated = ref 0 in
  let subst = Array.make (max nvars 1) (-1) in
  (* subst.(v) = rewritten literal for [2v], -1 when v stays *)
  for v = body_base to nvars - 1 do
    if st.value.(v) = 0 then begin
      let r, p = uf_find parent par v in
      if r <> v then begin
        subst.(v) <- (2 * r) + p;
        incr eliminated
      end
    end
  done;
  if !eliminated = 0 then (clauses, 0)
  else begin
    let rewrite l =
      let v = l lsr 1 in
      if subst.(v) < 0 then l else subst.(v) lxor (l land 1)
    in
    let rewritten =
      List.filter_map
        (fun lits ->
          match normalize st (List.map rewrite lits) with
          | `Sat -> None
          | `Clause c -> Some c)
        clauses
    in
    (* substitution can create new units and duplicates *)
    (propagate st nvars rewritten, !eliminated)
  end

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let run ?(elim_bodies = false) ~nvars ~body_base ~stats clauses =
  let st =
    { value = Array.make (max nvars 1) 0; forced_rev = []; unsat = false }
  in
  let norm =
    List.filter_map
      (fun c ->
        match normalize st (Array.to_list c) with
        | `Sat -> None
        | `Clause lits -> Some lits)
      clauses
  in
  let cls = propagate st nvars norm in
  let cls, equivs =
    if elim_bodies && not st.unsat then
      equiv_reduce st ~nvars ~body_base cls
    else (cls, 0)
  in
  let forced = List.rev st.forced_rev in
  stats.Solver_stats.pre_units <-
    stats.Solver_stats.pre_units + List.length forced;
  stats.Solver_stats.pre_equivs <- stats.Solver_stats.pre_equivs + equivs;
  {
    clauses = (if st.unsat then [] else List.map Array.of_list cls);
    forced;
    unsat = st.unsat;
  }
