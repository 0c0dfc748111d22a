type value = Engine.Job.answer

type t = {
  f_actions : Action.t list;
  f_prepared : Engine.Job.prepared;
  f_delta : active:string list -> Engine.Delta.t;
  f_measure : Asp.Model.t list -> int;
  f_cache : value Engine.Cache.t;
  f_monotone : bool;
}

let make ?cache ?(monotone = true) ~actions ~delta ~measure prepared =
  {
    f_actions = actions;
    f_prepared = prepared;
    f_delta = delta;
    f_measure = measure;
    f_cache =
      (match cache with Some c -> c | None -> Engine.Cache.create ());
    f_monotone = monotone;
  }

let actions t = t.f_actions
let cache t = t.f_cache

type report = {
  r_evals : int;
  r_hits : int;
  r_disk_hits : int;
  r_fresh : int;
  r_pruned : int;
  r_sum_s : float;
  r_critical_s : float;
  r_wall_s : float;
}

let evaluate t ids =
  let selected = List.sort_uniq String.compare ids in
  let r =
    Engine.Job.run t.f_cache t.f_prepared ~index:0 (t.f_delta ~active:selected)
  in
  ( {
      Optimizer.selected;
      cost = Action.total_cost t.f_actions selected;
      residual = t.f_measure r.Engine.Job.models;
    },
    r.Engine.Job.source )

let problem t =
  {
    Optimizer.actions = t.f_actions;
    residual = (fun ~active -> (fst (evaluate t active)).Optimizer.residual);
  }

let scratch_problem t =
  let spec = Engine.Job.prepared_spec t.f_prepared in
  {
    Optimizer.actions = t.f_actions;
    residual =
      (fun ~active ->
        let p =
          Asp.Program.append spec.Engine.Job.base
            (spec.Engine.Job.compile (t.f_delta ~active))
        in
        let g = Asp.Grounder.ground ?max_atoms:spec.Engine.Job.max_atoms p in
        let models =
          match spec.Engine.Job.mode with
          | Engine.Job.Enumerate limit -> Asp.Solver.solve ?limit g
          | Engine.Job.Optimal -> Asp.Solver.solve_optimal g
        in
        t.f_measure models);
  }

(* one evaluation, counted into the search's own report *)
let eval t c ids =
  let e0 = Unix.gettimeofday () in
  let s, (src : Engine.Cache.source) = evaluate t ids in
  let w = Unix.gettimeofday () -. e0 in
  let r = !c in
  let r =
    {
      r with
      r_evals = r.r_evals + 1;
      r_sum_s = r.r_sum_s +. w;
      r_critical_s = Float.max r.r_critical_s w;
    }
  in
  (c :=
     match src with
     | Memory -> { r with r_hits = r.r_hits + 1 }
     | Disk -> { r with r_disk_hits = r.r_disk_hits + 1 }
     | Fresh -> { r with r_fresh = r.r_fresh + 1 });
  s

(* A search's report counts only its own evaluations. The cache may be
   shared with other searches and with a daemon's sweeps, so its
   lifetime counters move under a running search and are never read. *)
let with_report body =
  let t0 = Unix.gettimeofday () in
  let c =
    ref
      {
        r_evals = 0;
        r_hits = 0;
        r_disk_hits = 0;
        r_fresh = 0;
        r_pruned = 0;
        r_sum_s = 0.0;
        r_critical_s = 0.0;
        r_wall_s = 0.0;
      }
  in
  let result = body c in
  (result, { !c with r_wall_s = Unix.gettimeofday () -. t0 })

(* The one walk of every search: branch-and-bound over the same
   inclusion-order DFS as {!Optimizer.fold_subsets_within_budget}, with
   every subset costing more than [limit] left out. A node's bound set
   is its own full-inclusion leaf (selected ∪ remaining): under a
   monotone residual its value lower-bounds every leaf of the subtree,
   and costs are non-negative, so [cost] of the node lower-bounds their
   costs. [cut ~cost bound] sees both, and a search cuts only where no
   leaf of the subtree can change its answer. [leaf] takes every
   evaluated leaf. Without [monotone] nothing is cut.

   Every action set is evaluated at most once. The bound is lazy, and
   the include child shares its parent's, since it is the same set. A
   node where no remaining action fits [limit] has its selection as its
   only leaf: that set is evaluated alone (it is the node's own bound
   when nothing remains), and the bound is consulted there only if it
   is already forced. Each remaining action carries the least cost of
   it and those after it, which makes that test O(1). *)
let walk t c limit ~cut ~leaf =
  let suffix =
    List.fold_right
      (fun (a : Action.t) acc ->
        match acc with
        | [] -> [ (a, a.Action.cost, []) ]
        | ((b : Action.t), least, ids) :: _ ->
            (a, min a.Action.cost least, b.Action.id :: ids) :: acc)
      t.f_actions []
  in
  let pruned ~cost bound =
    t.f_monotone && cut ~cost bound
    && (c := { !c with r_pruned = !c.r_pruned + 1 };
        true)
  in
  let rec go remaining cost selected bound =
    match remaining with
    | ((a : Action.t), least, rest_ids) :: rest when cost + least <= limit ->
        if not (pruned ~cost bound) then begin
          go rest cost selected
            (lazy (eval t c (List.rev_append selected rest_ids)));
          let cost' = cost + a.Action.cost in
          if cost' <= limit then go rest cost' (a.Action.id :: selected) bound
        end
    | _ ->
        if not (Lazy.is_val bound && pruned ~cost bound) then
          leaf (if remaining = [] then Lazy.force bound else eval t c selected)
  in
  go suffix 0 []
    (lazy (eval t c (List.map (fun (a : Action.t) -> a.Action.id) t.f_actions)))

(* The best selection for each budget ([max_int]: none), in one walk up
   to the largest. A budget cuts a node once it has an incumbent and
   either the node costs more than the budget or every leaf of the
   subtree loses to the incumbent under {!Optimizer.better}'s strict
   total order; a node is cut only when every budget cuts it, so each
   result is exactly the exhaustive one. A leaf competes for each budget
   it fits, and the empty selection for every budget, which is the
   answer when a budget is negative. *)
let optima t c budgets =
  let best = List.map (fun b -> (b, ref None)) budgets in
  if budgets <> [] then
    walk t c (List.fold_left max min_int budgets)
      ~cut:(fun ~cost bound ->
        List.for_all
          (fun (b, best) ->
            match !best with
            | Some (i : Optimizer.solution) ->
                cost > b
                ||
                let r = (Lazy.force bound).Optimizer.residual in
                r > i.Optimizer.residual
                || (r = i.Optimizer.residual && cost > i.Optimizer.cost)
            | None -> false)
          best)
      ~leaf:(fun (s : Optimizer.solution) ->
        List.iter
          (fun (b, best) ->
            if s.Optimizer.cost <= b || s.Optimizer.selected = [] then
              match !best with
              | Some i when not (Optimizer.better s i) -> ()
              | _ -> best := Some s)
          best);
  (* the empty selection is the first leaf walked, and nothing is cut
     before there is an incumbent *)
  List.map (fun (b, best) -> (b, Option.get !best)) best

let optimal ?(budget = max_int) t =
  with_report (fun c -> snd (List.hd (optima t c [ budget ])))

let budget_sweep t ~budgets = with_report (fun c -> optima t c budgets)

(* A subtree is cut iff a front member strictly dominates (cost S,
   residual (S ∪ R)): it then dominates every leaf of the subtree, which
   can be neither a front point nor a point's representative. A merely
   equal point is not enough — a leaf on it may be the lexicographically
   smaller representative. *)
let pareto t =
  with_report (fun c ->
      let front = ref [] in
      walk t c max_int
        ~cut:(fun ~cost bound ->
          !front <> []
          &&
          let b = { (Lazy.force bound) with Optimizer.cost } in
          List.exists (fun f -> Optimizer.dominates f b) !front)
        ~leaf:(fun s -> front := Optimizer.insert_front !front s);
      Optimizer.sort_front !front)
