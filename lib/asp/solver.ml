(* Conflict-driven nogood learning (CDNL-ASP) solver: the production
   solving path. See solver.mli for the architecture overview and
   DESIGN.md §10 for the full derivation. *)

module AtomSet = Model.AtomSet
module Stats = Solver_stats

module Config = struct
  type t = {
    preprocess : bool;  (* completion-nogood preprocessing (§12.1) *)
    cheap_tier : bool;  (* propagation-only tier for eligible programs *)
  }

  let default = { preprocess = true; cheap_tier = true }
end

(* Luby restart sequence: 1 1 2 1 1 2 4 ... *)
let rec luby i =
  let k = ref 1 in
  while (1 lsl !k) - 1 < i do incr k done;
  if (1 lsl !k) - 1 = i then 1 lsl (!k - 1)
  else luby (i - (1 lsl (!k - 1)) + 1)

let restart_base = 100

type driver = {
  p : Interned.t;
  comp : Completion.t;
  k : Nogood.t;
  stats : Stats.t;
  abits : Bitset.t;  (* currently-true atoms, kept in sync with the trail *)
  mutable cursor : int;  (* trail positions < cursor have been scanned *)
  agg_left : int array;  (* per count: unassigned scope atoms *)
  bound_left : int array;  (* per bound_scope entry *)
  weak_left : int array;  (* per weak constraint *)
  atom_aggs : int list array;
  atom_bounds : int list array;
  atom_weaks : int list array;
  scc_dirty : bool array;
  mutable any_dirty : bool;
}

let make_driver (p : Interned.t) (comp : Completion.t) stats =
  let n_atoms = comp.Completion.n_atoms in
  let k =
    Nogood.create ~branchable:n_atoms ~nvars:comp.Completion.n_vars ~stats ()
  in
  let n1 = max n_atoms 1 in
  let d =
    {
      p;
      comp;
      k;
      stats;
      abits = Bitset.create n1;
      cursor = 0;
      agg_left = Array.map Array.length comp.Completion.agg_scope;
      bound_left = Array.map (fun (_, s) -> Array.length s) comp.Completion.bound_scope;
      weak_left = Array.map Array.length comp.Completion.weak_scope;
      atom_aggs = Array.make n1 [];
      atom_bounds = Array.make n1 [];
      atom_weaks = Array.make n1 [];
      scc_dirty = Array.make (max (Array.length comp.Completion.sccs) 1) true;
      any_dirty = Array.length comp.Completion.sccs > 0;
    }
  in
  Array.iteri
    (fun ci scope ->
      Array.iter (fun a -> d.atom_aggs.(a) <- ci :: d.atom_aggs.(a)) scope)
    comp.Completion.agg_scope;
  Array.iteri
    (fun bi (_, scope) ->
      Array.iter (fun a -> d.atom_bounds.(a) <- bi :: d.atom_bounds.(a)) scope)
    comp.Completion.bound_scope;
  Array.iteri
    (fun wi scope ->
      Array.iter (fun a -> d.atom_weaks.(a) <- wi :: d.atom_weaks.(a)) scope)
    comp.Completion.weak_scope;
  Nogood.set_undo_hook k (fun lit ->
      (* the popped literal sat at position [trail_size] (the kernel
         shrinks before calling); only roll back what was scanned *)
      let pos = Nogood.trail_size k in
      if d.cursor > pos then begin
        d.cursor <- pos;
        let v = lit lsr 1 in
        if v < n_atoms then begin
          if lit land 1 = 0 then Bitset.clear d.abits v;
          List.iter
            (fun ci -> d.agg_left.(ci) <- d.agg_left.(ci) + 1)
            d.atom_aggs.(v);
          List.iter
            (fun bi -> d.bound_left.(bi) <- d.bound_left.(bi) + 1)
            d.atom_bounds.(v);
          List.iter
            (fun wi -> d.weak_left.(wi) <- d.weak_left.(wi) + 1)
            d.atom_weaks.(v)
        end
      end);
  d

(* bring the lazy-propagator state up to date with the trail: atom bitset,
   scope countdowns, dirty SCC marks (a support body assigned false) *)
let scan d =
  let n_atoms = d.comp.Completion.n_atoms in
  let body_base = n_atoms + d.comp.Completion.n_counts in
  let ts = Nogood.trail_size d.k in
  while d.cursor < ts do
    let lit = Nogood.trail_get d.k d.cursor in
    d.cursor <- d.cursor + 1;
    let v = lit lsr 1 in
    if v < n_atoms then begin
      if lit land 1 = 0 then Bitset.set d.abits v;
      List.iter
        (fun ci -> d.agg_left.(ci) <- d.agg_left.(ci) - 1)
        d.atom_aggs.(v);
      List.iter
        (fun bi -> d.bound_left.(bi) <- d.bound_left.(bi) - 1)
        d.atom_bounds.(v);
      List.iter
        (fun wi -> d.weak_left.(wi) <- d.weak_left.(wi) - 1)
        d.atom_weaks.(v)
    end
    else if v >= body_base && lit land 1 = 1 then begin
      (* a body became false: its head's loop may have lost support *)
      let b = d.comp.Completion.bodies.(v - body_base) in
      if b.Completion.bhead >= 0 then begin
        let si = d.comp.Completion.scc_of.(b.Completion.bhead) in
        if si >= 0 && not d.scc_dirty.(si) then begin
          d.scc_dirty.(si) <- true;
          d.any_dirty <- true
        end
      end
    end
  done

type check_outcome =
  | Quiet  (* nothing to do: the assignment passed every lazy check *)
  | Progress  (* clauses added / literals asserted: propagate again *)
  | Confl of Nogood.clause
  | Bottom  (* an empty clause surfaced: branch exhausted *)

(* aggregate variables: evaluated against the atom assignment once every
   atom of their scope is decided; the explanation clause is the negation
   of the exact scope assignment, which is sound because the scope is
   fully assigned *)
let check_aggregates d =
  let n_counts = d.comp.Completion.n_counts in
  let n_atoms = d.comp.Completion.n_atoms in
  let outcome = ref Quiet in
  let ci = ref 0 in
  while !outcome == Quiet && !ci < n_counts do
    let i = !ci in
    incr ci;
    if d.agg_left.(i) = 0 then begin
      let v = n_atoms + i in
      let desired =
        Interned.eval_count d.p d.abits d.p.Interned.counts.(i)
      in
      let cur = Nogood.value_var d.k v in
      if cur = 0 || cur = 1 <> desired then begin
        let lits = ref [ (if desired then Completion.lit_true v else Completion.lit_false v) ] in
        Array.iter
          (fun a ->
            lits :=
              (if Bitset.get d.abits a then Completion.lit_false a
               else Completion.lit_true a)
              :: !lits)
          d.comp.Completion.agg_scope.(i);
        match Nogood.add_dynamic d.k ~learnt:true (Array.of_list !lits) with
        | Nogood.Unit -> outcome := Progress
        | Nogood.Conflict c -> outcome := Confl c
        | Nogood.Sat -> ()
        | Nogood.Empty -> outcome := Bottom
      end
    end
  done;
  !outcome

(* choice bounds: checked once the scope (body, elements, conditions) is
   fully assigned; a violation contributes the negation of the exact
   scope assignment as a conflict *)
let check_bounds d =
  let n = Array.length d.comp.Completion.bound_scope in
  let outcome = ref Quiet in
  let bi = ref 0 in
  while !outcome == Quiet && !bi < n do
    let i = !bi in
    incr bi;
    if d.bound_left.(i) = 0 then begin
      let cidx, scope = d.comp.Completion.bound_scope.(i) in
      let c = d.p.Interned.choices.(cidx) in
      let all_true ids = Array.for_all (fun a -> Bitset.get d.abits a) ids in
      let none_true ids =
        not (Array.exists (fun a -> Bitset.get d.abits a) ids)
      in
      if
        all_true c.Interned.cpos
        && none_true c.Interned.cneg
        && Interned.counts_sat d.p d.abits c.Interned.ccounts
      then begin
        let chosen = ref 0 in
        Array.iter
          (fun (el : Interned.elem) ->
            if
              Bitset.get d.abits el.Interned.eatom
              && all_true el.Interned.egpos
              && none_true el.Interned.egneg
            then incr chosen)
          c.Interned.elems;
        let lower_ok =
          match c.Interned.lower with Some lo -> !chosen >= lo | None -> true
        in
        let upper_ok =
          match c.Interned.upper with Some hi -> !chosen <= hi | None -> true
        in
        if not (lower_ok && upper_ok) then begin
          let lits =
            Array.map
              (fun a ->
                if Bitset.get d.abits a then Completion.lit_false a
                else Completion.lit_true a)
              scope
          in
          match Nogood.add_dynamic d.k ~learnt:true lits with
          | Nogood.Conflict c -> outcome := Confl c
          | Nogood.Unit -> outcome := Progress
          | Nogood.Sat -> ()
          | Nogood.Empty -> outcome := Bottom
        end
      end
    end
  done;
  !outcome

(* unfounded-set check over one dirty SCC: the founded atoms are grown
   from external support (a non-false body whose same-SCC positive atoms
   are already founded); what remains and is not already false is an
   unfounded set U, and every atom of U gets the loop nogood
   [not a \/ external-bodies-of-U] (Lin-Zhao for arbitrary sets) *)
let check_scc d si =
  d.stats.Stats.unfounded_checks <- d.stats.Stats.unfounded_checks + 1;
  let comp = d.comp in
  let scc = comp.Completion.sccs.(si) in
  let founded = Hashtbl.create (Array.length scc) in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun a ->
        if not (Hashtbl.mem founded a) then
          let supported =
            List.exists
              (fun (bi, in_scc) ->
                Nogood.value_var d.k comp.Completion.bodies.(bi).Completion.bvar
                <> -1
                && Array.for_all (fun x -> Hashtbl.mem founded x) in_scc)
              comp.Completion.supports.(a)
          in
          if supported then begin
            Hashtbl.replace founded a ();
            changed := true
          end)
      scc
  done;
  let u =
    Array.to_list scc
    |> List.filter (fun a ->
           (not (Hashtbl.mem founded a)) && Nogood.value_var d.k a <> -1)
  in
  match u with
  | [] -> Quiet
  | _ ->
      d.stats.Stats.unfounded_sets <- d.stats.Stats.unfounded_sets + 1;
      let in_u = Hashtbl.create 16 in
      List.iter (fun a -> Hashtbl.replace in_u a ()) u;
      let eb = ref [] in
      let eb_seen = Hashtbl.create 16 in
      List.iter
        (fun a ->
          List.iter
            (fun (bi, in_scc) ->
              if
                (not (Hashtbl.mem eb_seen bi))
                && not (Array.exists (fun x -> Hashtbl.mem in_u x) in_scc)
              then begin
                Hashtbl.replace eb_seen bi ();
                eb :=
                  Completion.lit_true
                    comp.Completion.bodies.(bi).Completion.bvar
                  :: !eb
              end)
            comp.Completion.supports.(a))
        u;
      let outcome = ref Progress in
      (try
         List.iter
           (fun a ->
             let lits = Array.of_list (Completion.lit_false a :: !eb) in
             match Nogood.add_dynamic d.k ~learnt:true lits with
             | Nogood.Conflict c ->
                 (* resolve this conflict first; the SCC stays dirty so
                    the remaining atoms are re-checked afterwards *)
                 d.scc_dirty.(si) <- true;
                 d.any_dirty <- true;
                 outcome := Confl c;
                 raise Exit
             | Nogood.Empty ->
                 outcome := Bottom;
                 raise Exit
             | Nogood.Unit | Nogood.Sat -> ())
           u
       with Exit -> ());
      !outcome

let check_unfounded d =
  if d.comp.Completion.tight || not d.any_dirty then Quiet
  else begin
    d.any_dirty <- false;
    let n = Array.length d.comp.Completion.sccs in
    let outcome = ref Quiet in
    let si = ref 0 in
    while (!outcome == Quiet || !outcome == Progress) && !si < n do
      let i = !si in
      incr si;
      if d.scc_dirty.(i) then begin
        d.scc_dirty.(i) <- false;
        match check_scc d i with
        | Quiet -> ()
        | Progress -> outcome := Progress
        | other -> outcome := other
      end
    done;
    !outcome
  end

let run_checks d =
  match check_aggregates d with
  | Quiet -> (
      match check_bounds d with
      | Quiet -> check_unfounded d
      | other -> other)
  | other -> other

(* ------------------------------------------------------------------ *)
(* Branch-and-bound lower bound under mixed-sign weights                *)
(* ------------------------------------------------------------------ *)

(* Per priority level: [sum] = weights of tuples certainly satisfied plus
   weights of still-undecided {e negative} tuples (the worst case), which
   is a sound lower bound even with mixed signs; [exact] when no
   undecided weak can still change the level. Tuples deduplicate by
   (priority, weight, terms) exactly as in [Interned.cost_of]. *)
let lower_bound d =
  let sat = Hashtbl.create 16 in
  let pending = Hashtbl.create 16 in
  let inexact = Hashtbl.create 4 in
  Array.iteri
    (fun wi (w : Interned.weak) ->
      let key = (w.Interned.priority, w.Interned.weight, w.Interned.terms) in
      if d.weak_left.(wi) = 0 then begin
        let all_true ids = Array.for_all (fun a -> Bitset.get d.abits a) ids in
        let none_true ids =
          not (Array.exists (fun a -> Bitset.get d.abits a) ids)
        in
        if
          all_true w.Interned.wpos
          && none_true w.Interned.wneg
          && Interned.counts_sat d.p d.abits w.Interned.wcounts
        then Hashtbl.replace sat key ()
      end
      else Hashtbl.replace pending key ())
    d.p.Interned.weaks;
  (* a pending tuple already satisfied elsewhere cannot change anything *)
  Hashtbl.iter
    (fun ((prio, weight, _) as key) () ->
      if not (Hashtbl.mem sat key) then begin
        Hashtbl.replace inexact prio ();
        ignore weight
      end)
    pending;
  let per_level = Hashtbl.create 4 in
  let bump prio w =
    let cur = Option.value ~default:0 (Hashtbl.find_opt per_level prio) in
    Hashtbl.replace per_level prio (cur + w)
  in
  Hashtbl.iter (fun (prio, w, _) () -> bump prio w) sat;
  Hashtbl.iter
    (fun ((prio, w, _) as key) () ->
      if w < 0 && not (Hashtbl.mem sat key) then bump prio w)
    pending;
  (* cover every priority that occurs at all, so the walk against the
     incumbent never misses a level *)
  Array.iter
    (fun (w : Interned.weak) ->
      if not (Hashtbl.mem per_level w.Interned.priority) then
        Hashtbl.replace per_level w.Interned.priority 0)
    d.p.Interned.weaks;
  Hashtbl.fold
    (fun prio sum acc -> (prio, sum, not (Hashtbl.mem inexact prio)) :: acc)
    per_level []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare b a)

(* true when every completion of the current assignment costs strictly
   more than the incumbent: walk priorities from the most significant;
   a strictly larger lower bound prunes, a strictly smaller one cannot,
   and equality only lets the walk continue when the level is exact *)
let rec bound_exceeds lb (best : Model.cost) =
  match (lb, best) with
  | [], [] -> false
  | (_, s, ex) :: lt, [] ->
      if s > 0 then true else if s < 0 then false else ex && bound_exceeds lt []
  | [], (_, v) :: bt ->
      if 0 > v then true else if 0 < v then false else bound_exceeds [] bt
  | (pl, s, ex) :: lt, (pb, v) :: bt ->
      if pl = pb then
        if s > v then true
        else if s < v then false
        else ex && bound_exceeds lt bt
      else if pl > pb then
        if s > 0 then true else if s < 0 then false else ex && bound_exceeds lt best
      else if 0 > v then true
      else if 0 < v then false
      else bound_exceeds lb bt

(* ------------------------------------------------------------------ *)
(* Top-level driver                                                     *)
(* ------------------------------------------------------------------ *)

exception Finished

(* the full tier: completion, kernel, preprocessing, then one CDNL search
   from the level-0 assignment, counting into [stats]; [p] is already
   compiled so the cheap-tier dispatcher below shares the work *)
let solve_full ?limit ~config ~optimal ~stats (p : Interned.t) =
  let comp = Completion.compile p in
  let d = make_driver p comp stats in
  let k = d.k in
  let models = ref [] in
  let seen : (Bitset.t, unit) Hashtbl.t = Hashtbl.create 64 in
  let n_found = ref 0 in
  let best = ref None in
  let record_model () =
    stats.Stats.leaves <- stats.Stats.leaves + 1;
    let key = Bitset.copy d.abits in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      stats.Stats.models <- stats.Stats.models + 1;
      let cost = Interned.cost_of p key in
      if optimal then begin
        let keep =
          match !best with
          | Some b -> Model.compare_cost cost b <= 0
          | None -> true
        in
        (match !best with
        | Some b when Model.compare_cost cost b >= 0 -> ()
        | _ -> best := Some cost);
        if keep then
          models := Model.make ~cost (Interned.atoms_of_bitset p key) :: !models
      end
      else begin
        models := Model.make ~cost (Interned.atoms_of_bitset p key) :: !models;
        incr n_found;
        match limit with Some l when !n_found >= l -> raise Finished | _ -> ()
      end
    end
  in
  (try
     if comp.Completion.unsat then raise Finished;
     (if config.Config.preprocess then begin
        let body_base = comp.Completion.n_atoms + comp.Completion.n_counts in
        let pre =
          Preprocess.run ~elim_bodies:comp.Completion.tight
            ~nvars:comp.Completion.n_vars ~body_base ~stats
            comp.Completion.clauses
        in
        if pre.Preprocess.unsat then raise Finished;
        List.iter (fun l -> Nogood.add_initial k [| l |]) pre.Preprocess.forced;
        List.iter (fun c -> Nogood.add_clean k c) pre.Preprocess.clauses
      end
      else List.iter (fun c -> Nogood.add_initial k c) comp.Completion.clauses);
     if Nogood.unsat k then raise Finished;
     let max_learnts = ref (max 1000 (List.length comp.Completion.clauses)) in
     let restarts = ref 0 in
     let conflicts_pending = ref 0 in
     let handle_conflict confl =
       if Nogood.level k = 0 then raise Finished;
       Nogood.learn k (Nogood.analyze k confl);
       incr conflicts_pending
     in
     let n_vars = comp.Completion.n_vars in
     while true do
       match Nogood.propagate k with
       | Some confl -> handle_conflict confl
       | None -> (
           scan d;
           match run_checks d with
           | Progress -> ()
           | Confl c -> handle_conflict c
           | Bottom -> raise Finished
           | Quiet ->
               if Nogood.trail_size k = n_vars then begin
                 record_model ();
                 if Nogood.level k = 0 then raise Finished;
                 (* block exactly this assignment: atoms fixed at level 0
                    are common to every model and stay out *)
                 let lits = ref [] in
                 for a = 0 to comp.Completion.n_atoms - 1 do
                   if Nogood.var_level k a > 0 then
                     lits :=
                       (if Bitset.get d.abits a then Completion.lit_false a
                        else Completion.lit_true a)
                       :: !lits
                 done;
                 if !lits = [] then raise Finished;
                 let arr = Array.of_list !lits in
                 (* chronological retreat instead of learn-and-restart:
                    pop levels until the blocking nogood frees a literal,
                    then resume — the next model is usually adjacent, so
                    the assignment prefix is worth keeping (no thrash) *)
                 match Nogood.add_dynamic k ~learnt:false arr with
                 | Nogood.Empty -> raise Finished
                 | Nogood.Sat | Nogood.Unit ->
                     (* unreachable: every literal is false at the model *)
                     ()
                 | Nogood.Conflict c ->
                     stats.Stats.model_blocks <-
                       stats.Stats.model_blocks + 1;
                     let rec retreat () =
                       if Nogood.level k = 0 then raise Finished;
                       Nogood.cancel_until k (Nogood.level k - 1);
                       let unassigned = ref 0 in
                       let ulit = ref (-1) in
                       Array.iter
                         (fun l ->
                           if Nogood.value_lit k l = 0 then begin
                             incr unassigned;
                             ulit := l
                           end)
                         arr;
                       if !unassigned = 0 then retreat ()
                       else if !unassigned = 1 then
                         (* the clause regained exactly one free literal:
                            a unit no watch event will ever deliver *)
                         Nogood.force k !ulit c
                     in
                     retreat ()
               end
               else begin
                 (* bound pruning: the decisions taken so far form the
                    nogood, so analysis learns from the violation *)
                 let pruned_here = ref false in
                 (if optimal then
                    match !best with
                    | Some b when bound_exceeds (lower_bound d) b ->
                        stats.Stats.pruned <- stats.Stats.pruned + 1;
                        if Nogood.level k = 0 then raise Finished;
                        let lits =
                          Array.init (Nogood.level k) (fun i ->
                              Nogood.decision_lit k (i + 1) lxor 1)
                        in
                        pruned_here := true;
                        (match Nogood.add_dynamic k ~learnt:true lits with
                        | Nogood.Conflict c -> handle_conflict c
                        | Nogood.Empty -> raise Finished
                        | Nogood.Unit | Nogood.Sat -> ())
                    | _ -> ());
                 if not !pruned_here then begin
                   if
                     !conflicts_pending >= restart_base * luby (!restarts + 1)
                   then begin
                     incr restarts;
                     stats.Stats.restarts <- stats.Stats.restarts + 1;
                     conflicts_pending := 0;
                     Nogood.cancel_until k 0
                   end;
                   if Nogood.n_learnts k > !max_learnts then begin
                     Nogood.reduce_db k;
                     max_learnts := !max_learnts + (!max_learnts / 5)
                   end;
                   match Nogood.pick_branch k with
                   | Some lit -> Nogood.decide k lit
                   | None ->
                       (* every atom is assigned: bodies and aggregates
                          must follow by propagation or lazy checks; an
                          unassigned one can only be an aggregate over an
                          empty scope or a body var of a degenerate rule —
                          decide them in id order *)
                       let v = ref comp.Completion.n_atoms in
                       while
                         !v < n_vars && Nogood.value_var k !v <> 0
                       do
                         incr v
                       done;
                       if !v < n_vars then
                         Nogood.decide k (Completion.lit_false !v)
                       else raise Finished
                 end
               end)
     done
   with Finished -> ());
  let result = List.sort Model.compare !models in
  if optimal then
    match !best with
    | None -> []
    | Some b ->
        List.filter (fun m -> Model.compare_cost (Model.cost m) b = 0) result
  else result

(* tier dispatch: the cheap propagation-only tier answers whole-program
   enumeration (and optimization without weak constraints — a zero-cost
   optimum is just the enumeration); everything else runs the full CDNL
   tier *)
let solve_core ?limit ?(config = Config.default) ~optimal (g : Ground.t) =
  let t0 = Unix.gettimeofday () in
  let stats = Stats.create () in
  let p = Interned.compile g in
  let cheap =
    if
      config.Config.cheap_tier
      && ((not optimal) || Array.length p.Interned.weaks = 0)
    then Cheap.solve ?limit ~stats p
    else None
  in
  let result =
    match cheap with
    | Some models -> models
    | None -> solve_full ?limit ~config ~optimal ~stats p
  in
  stats.Stats.wall_s <- Unix.gettimeofday () -. t0;
  (result, stats)

let solve_with_stats ?limit ?config g =
  solve_core ?limit ?config ~optimal:false g

let solve ?limit ?config g = fst (solve_with_stats ?limit ?config g)

let solve_optimal_with_stats ?config g = solve_core ?config ~optimal:true g

let solve_optimal ?config g = fst (solve_optimal_with_stats ?config g)

let satisfiable ?config g = solve ?config ~limit:1 g <> []

let cheap_eligible g = Cheap.eligible (Interned.compile g)
