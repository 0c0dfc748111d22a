type value = Asp.Model.t list * Asp.Solver.Stats.t * Asp.Grounder.Stats.t

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
   inclusion-order DFS as {!Optimizer.fold_subsets_within_budget}. A
   node's bound set is its own full-inclusion leaf (selected ∪
   remaining): under a monotone residual its value lower-bounds every
   leaf of the subtree, and costs are non-negative, so [cost] of the
   node lower-bounds their costs. [cut ~cost bound] sees both ([bound]
   evaluates on demand, through the cache, which makes within-budget
   bound evaluations free at their own leaves); a search cuts only where
   no leaf of the subtree can change its answer. [leaf] takes every
   evaluated leaf. Without [monotone] nothing is cut. *)
let walk t c budget ~cut ~leaf =
  let rec go remaining cost selected =
    let bound () =
      eval t c
        (List.rev_append selected
           (List.map (fun (a : Action.t) -> a.Action.id) remaining))
    in
    if t.f_monotone && cut ~cost bound then
      c := { !c with r_pruned = !c.r_pruned + 1 }
    else
      match remaining with
      | [] -> leaf (eval t c (List.rev selected))
      | (a : Action.t) :: rest ->
          go rest cost selected;
          let cost' = cost + a.Action.cost in
          if match budget with Some b -> cost' <= b | None -> true then
            go rest cost' (a.Action.id :: selected)
  in
  go t.f_actions 0 []

(* A subtree is cut iff every leaf loses to the incumbent under
   {!Optimizer.better}'s strict total order, so the result is exactly
   the exhaustive one. *)
let optimal_in t c budget =
  let best = ref None in
  walk t c budget
    ~cut:(fun ~cost bound ->
      match !best with
      | Some (b : Optimizer.solution) ->
          let r = (bound ()).Optimizer.residual in
          r > b.Optimizer.residual
          || (r = b.Optimizer.residual && cost > b.Optimizer.cost)
      | None -> false)
    ~leaf:(fun s ->
      match !best with
      | Some b when not (Optimizer.better s b) -> ()
      | _ -> best := Some s);
  (* the empty selection is the first leaf walked, and nothing is cut
     before there is an incumbent *)
  Option.get !best

let optimal ?budget t = with_report (fun c -> optimal_in t c budget)

let budget_sweep t ~budgets =
  with_report (fun c -> List.map (fun b -> (b, optimal_in t c (Some b))) budgets)

(* A subtree is cut iff a front member strictly dominates (cost S,
   residual (S ∪ R)): it then dominates every leaf of the subtree, which
   can be neither a front point nor a point's representative. A merely
   equal point is not enough — a leaf on it may be the lexicographically
   smaller representative. *)
let pareto t =
  with_report (fun c ->
      let front = ref [] in
      walk t c None
        ~cut:(fun ~cost bound ->
          !front <> []
          &&
          let b = { (bound ()) with Optimizer.cost } in
          List.exists (fun f -> Optimizer.dominates f b) !front)
        ~leaf:(fun s -> front := Optimizer.insert_front !front s);
      Optimizer.sort_front !front)
