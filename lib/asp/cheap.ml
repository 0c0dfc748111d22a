(* Propagation-only tier for programs whose negation the well-founded
   bounds decide: the chain / pinned / dense-choice shapes of the
   reference encodings and the stratified what-if simulations of the
   sweeps, where full CDNL machinery (completion clauses, preprocessing,
   VSIDS, watches) costs more than the enumeration itself.

   The fragment: no aggregates, no choice bounds, and every negated
   literal in a live rule body or choice guard decided by the
   well-founded bounds. Classification computes two closures as an
   alternating fixpoint:
   - [cf] (facts + forced choices; a rule fires only if none of its
     negated atoms is in [cm]) — a lower bound on every stable model;
   - [cm] (additionally seeding every non-banned choice candidate; a rule
     fires only if none of its negated atoms is in [cf]) — an upper bound.
   Each closure is recomputed against the other until both are stable.
   By induction over the alternation, [cf ⊆ M ⊆ cm] for every stable
   model [M]: a rule firing in [cf] has its negated atoms outside
   [cm ⊇ M], so it belongs to the reduct of [M]; a rule of the reduct of
   [M] has its negated atoms outside [M ⊇ cf], so it fires in [cm].

   A rule is then dropped when it is blocked (a negated atom in [cf]),
   dead (a positive premise outside [cm]) or redundant (its head in
   [cf]); every remaining negated literal must be outside [cm] — true in
   every model — and is read as true, else the program goes to CDNL. What
   is left is definite, so a candidate is stable iff it is the least
   fixpoint of the kept rules over [cf] plus a subset of licensed choice
   atoms: foundedness holds by construction, on non-tight programs too
   (a positive loop without external support never enters the closure).
   Every choice-element guard must be decided (true in every model, or
   false in every model); every constraint must be dead, or have exactly
   one undecided literal that is a free choice atom, which the fixpoint
   forces in or out. Anything else — an undecided negated literal or
   guard, a multi-literal pending constraint, a constraint pending on a
   derived atom, a banned atom still derivable — rejects to the full CDNL
   tier, which is always safe. A constraint with no pending literal left
   is violated in every model: unsat, proven without search.

   Solving is then direct choice expansion: DFS over the free atoms with
   an incremental closure (per-rule missing-premise counters, trail-based
   undo), deduplicating closures that coincide. *)

module Stats = Solver_stats

exception Full_tier
exception Done

let gate (p : Interned.t) =
  (not p.Interned.has_counts)
  && Array.for_all
       (fun (c : Interned.choice) ->
         c.Interned.lower = None && c.Interned.upper = None)
       p.Interned.choices

type plan = {
  cf : Bitset.t;  (* forced closure: a subset of every model *)
  free : int array;  (* free choice atoms, ascending *)
  occ : int array array;  (* atom -> kept rules, once per premise occurrence *)
  base_missing : int array;  (* kept rule -> total positive premises *)
  heads : int array;  (* kept rule -> head *)
}

(* atom -> indices of the rules with it as a positive premise, repeated
   once per occurrence, so a missing-premise counter that starts at the
   body length reaches 0 exactly when every premise holds *)
let occurrences n1 (rules : Interned.rule array) =
  let deg = Array.make n1 0 in
  Array.iter
    (fun (r : Interned.rule) ->
      Array.iter (fun a -> deg.(a) <- deg.(a) + 1) r.Interned.pos)
    rules;
  let occ = Array.map (fun d -> if d = 0 then [||] else Array.make d 0) deg in
  Array.iteri
    (fun ri (r : Interned.rule) ->
      Array.iter
        (fun a ->
          deg.(a) <- deg.(a) - 1;
          occ.(a).(deg.(a)) <- ri)
        r.Interned.pos)
    rules;
  occ

let body_length (r : Interned.rule) = Array.length r.Interned.pos

let classify (p : Interned.t) =
  if not (gate p) then `Full
  else begin
    let n1 = max p.Interned.n_atoms 1 in
    let rules = p.Interned.rules in
    let occ = occurrences n1 rules in
    let base_missing = Array.map body_length rules in
    let work = Array.make n1 0 in
    (* least fixpoint over [seeds], firing a rule only if none of its
       negated atoms is in [against]; [settled] is false when [against]
       blocked some rule whose premises all held *)
    let closure ~against seeds =
      let cur = Bitset.create n1 in
      let missing = Array.copy base_missing in
      let settled = ref true in
      let sp = ref 0 in
      let add a =
        if not (Bitset.get cur a) then begin
          Bitset.set cur a;
          work.(!sp) <- a;
          incr sp
        end
      in
      let fire ri =
        let r = rules.(ri) in
        if Array.exists (Bitset.get against) r.Interned.neg then
          settled := false
        else add r.Interned.head
      in
      Array.iter add p.Interned.facts;
      List.iter add seeds;
      Array.iteri (fun ri m -> if m = 0 then fire ri) missing;
      while !sp > 0 do
        decr sp;
        Array.iter
          (fun ri ->
            missing.(ri) <- missing.(ri) - 1;
            if missing.(ri) = 0 then fire ri)
          occ.(work.(!sp))
      done;
      (cur, !settled)
    in
    (* the alternating fixpoint, starting from the trivial upper bound *)
    let bounds ~lower_seeds ~upper_seeds =
      let rec go cm =
        let cf, settled = closure ~against:cm lower_seeds in
        let cm', _ = closure ~against:cf upper_seeds in
        if settled || Bitset.equal cm' cm then (cf, cm') else go cm'
      in
      let all = Bitset.create n1 in
      for a = 0 to n1 - 1 do
        Bitset.set all a
      done;
      go all
    in
    let candidates = Bitset.create n1 in
    Array.iter
      (fun (c : Interned.choice) ->
        Array.iter
          (fun (e : Interned.elem) -> Bitset.set candidates e.Interned.eatom)
          c.Interned.elems)
      p.Interned.choices;
    let chosen = ref [] in
    let chosen_b = Bitset.create n1 in
    let banned_b = Bitset.create n1 in
    try
      let unsat = ref false in
      let final_cf = ref (Bitset.create n1) in
      let final_cm = ref (Bitset.create n1) in
      let final_free = ref (Bitset.create n1) in
      let continue = ref true in
      while !continue && not !unsat do
        continue := false;
        let cand_seed = ref !chosen in
        Bitset.iter_true
          (fun a -> if not (Bitset.get banned_b a) then cand_seed := a :: !cand_seed)
          candidates;
        let cf, cm = bounds ~lower_seeds:!chosen ~upper_seeds:!cand_seed in
        (* a banned atom still derivable cannot be kept out by not
           choosing it: give up (the ban came from a constraint, so the
           full tier will handle it) *)
        Bitset.iter_true
          (fun b -> if Bitset.get cm b then raise Full_tier)
          banned_b;
        (* every guard must be decided at the fixpoint *)
        let holds_in_every pos neg =
          Array.for_all (Bitset.get cf) pos
          && not (Array.exists (Bitset.get cm) neg)
        in
        let fails_in_every pos neg =
          Array.exists (fun a -> not (Bitset.get cm a)) pos
          || Array.exists (Bitset.get cf) neg
        in
        let free_b = Bitset.create n1 in
        Array.iter
          (fun (c : Interned.choice) ->
            Array.iter
              (fun (e : Interned.elem) ->
                if
                  holds_in_every c.Interned.cpos c.Interned.cneg
                  && holds_in_every e.Interned.egpos e.Interned.egneg
                then begin
                  let a = e.Interned.eatom in
                  if (not (Bitset.get cf a)) && not (Bitset.get banned_b a)
                  then Bitset.set free_b a
                end
                else if
                  not
                    (fails_in_every c.Interned.cpos c.Interned.cneg
                    || fails_in_every e.Interned.egpos e.Interned.egneg)
                then raise Full_tier
                (* else: dead element, never licensed *))
              c.Interned.elems)
          p.Interned.choices;
        (* every constraint must be dead or force a single free atom *)
        Array.iter
          (fun (k : Interned.constr) ->
            if not !unsat then begin
              let dead = ref false in
              let pending = ref [] in
              Array.iter
                (fun a ->
                  if not (Bitset.get cm a) then dead := true
                  else if not (Bitset.get cf a) then
                    pending := (a, false) :: !pending)
                k.Interned.kpos;
              Array.iter
                (fun b ->
                  if Bitset.get cf b then dead := true
                  else if Bitset.get cm b then
                    pending := (b, true) :: !pending)
                k.Interned.kneg;
              if not !dead then
                match !pending with
                | [] -> unsat := true
                | [ (u, need_true) ] ->
                    if not (Bitset.get free_b u) then raise Full_tier;
                    if need_true then begin
                      if not (Bitset.get chosen_b u) then begin
                        Bitset.set chosen_b u;
                        chosen := u :: !chosen;
                        continue := true
                      end
                    end
                    else if not (Bitset.get banned_b u) then begin
                      Bitset.set banned_b u;
                      continue := true
                    end
                | _ :: _ :: _ -> raise Full_tier
            end)
          p.Interned.constraints;
        final_cf := cf;
        final_cm := cm;
        final_free := free_b
      done;
      if !unsat then `Unsat
      else begin
        let cf = !final_cf and cm = !final_cm in
        (* keep the rules that can still matter inside the bounds; their
           negated literals must all be true in every model. The bounds
           have converged, so [cf] is closed under the kept rules: each
           has a premise outside [cf], which expansion relies on *)
        let kept =
          Array.to_list rules
          |> List.filter (fun (r : Interned.rule) ->
                 let live =
                   (not (Bitset.get cf r.Interned.head))
                   && Array.for_all (Bitset.get cm) r.Interned.pos
                   && not (Array.exists (Bitset.get cf) r.Interned.neg)
                 in
                 if live && Array.exists (Bitset.get cm) r.Interned.neg then
                   raise Full_tier;
                 live)
          |> Array.of_list
        in
        let free = ref [] in
        Bitset.iter_true (fun a -> free := a :: !free) !final_free;
        `Plan
          {
            cf;
            free = Array.of_list (List.rev !free);
            occ = occurrences n1 kept;
            base_missing = Array.map body_length kept;
            heads = Array.map (fun (r : Interned.rule) -> r.Interned.head) kept;
          }
      end
    with Full_tier -> `Full
  end

let eligible p = match classify p with `Full -> false | `Plan _ | `Unsat -> true

let expand ?limit ~stats (p : Interned.t) plan =
  let n1 = max p.Interned.n_atoms 1 in
  let missing = Array.copy plan.base_missing in
  Bitset.iter_true
    (fun a -> Array.iter (fun ri -> missing.(ri) <- missing.(ri) - 1) plan.occ.(a))
    plan.cf;
  let cur = Bitset.copy plan.cf in
  let trail = Array.make n1 0 in
  let sp = ref 0 in
  (* add one free atom and run the closure forward, using the trail
     segment itself as the work queue *)
  let add a =
    let qh = !sp in
    if not (Bitset.get cur a) then begin
      Bitset.set cur a;
      trail.(!sp) <- a;
      incr sp;
      stats.Stats.firings <- stats.Stats.firings + 1
    end;
    let i = ref qh in
    while !i < !sp do
      let x = trail.(!i) in
      incr i;
      Array.iter
        (fun ri ->
          missing.(ri) <- missing.(ri) - 1;
          if missing.(ri) = 0 then begin
            let h = plan.heads.(ri) in
            if not (Bitset.get cur h) then begin
              Bitset.set cur h;
              trail.(!sp) <- h;
              incr sp;
              stats.Stats.firings <- stats.Stats.firings + 1
            end
          end)
        plan.occ.(x)
    done
  in
  let undo mark =
    while !sp > mark do
      decr sp;
      let x = trail.(!sp) in
      Bitset.clear cur x;
      Array.iter (fun ri -> missing.(ri) <- missing.(ri) + 1) plan.occ.(x)
    done
  in
  let models = ref [] in
  let seen : (Bitset.t, unit) Hashtbl.t = Hashtbl.create 64 in
  let n_found = ref 0 in
  let record () =
    stats.Stats.leaves <- stats.Stats.leaves + 1;
    let key = Bitset.copy cur in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      stats.Stats.models <- stats.Stats.models + 1;
      models :=
        Model.make
          ~cost:(Interned.cost_of p key)
          (Interned.atoms_of_bitset p key)
        :: !models;
      incr n_found;
      match limit with Some l when !n_found >= l -> raise Done | _ -> ()
    end
  in
  let f = Array.length plan.free in
  let rec go i =
    if i = f then record ()
    else begin
      stats.Stats.guesses <- stats.Stats.guesses + 1;
      (* exclude first: small models first, like the kernel's false bias *)
      go (i + 1);
      let mark = !sp in
      add plan.free.(i);
      go (i + 1);
      undo mark
    end
  in
  (try go 0 with Done -> ());
  List.sort Model.compare !models

(* [None]: not in the fragment, fall through to full CDNL *)
let solve ?limit ~stats p =
  match classify p with
  | `Full -> None
  | `Unsat ->
      stats.Stats.cheap <- true;
      Some []
  | `Plan plan ->
      stats.Stats.cheap <- true;
      Some (expand ?limit ~stats p plan)
