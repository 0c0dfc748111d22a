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

(* A search's counters, fed only by its own evaluations. The cache may
   be shared with other searches and with a daemon's sweeps, so its
   lifetime counters move under a running search and are never read. *)
type tally = {
  mutable evals : int;
  mutable hits : int;
  mutable disk_hits : int;
  mutable fresh : int;
  mutable pruned : int;
  mutable sum_s : float;
  mutable critical_s : float;
}

let timed_eval t ids =
  let e0 = Unix.gettimeofday () in
  let s, src = evaluate t ids in
  (s, src, Unix.gettimeofday () -. e0)

(* fold one evaluation into the tally; called in the searching domain *)
let count c (s, (src : Engine.Cache.source), w) =
  c.evals <- c.evals + 1;
  (match src with
  | Memory -> c.hits <- c.hits + 1
  | Disk -> c.disk_hits <- c.disk_hits + 1
  | Fresh -> c.fresh <- c.fresh + 1);
  c.sum_s <- c.sum_s +. w;
  if w > c.critical_s then c.critical_s <- w;
  s

let with_report body =
  let t0 = Unix.gettimeofday () in
  let c =
    {
      evals = 0;
      hits = 0;
      disk_hits = 0;
      fresh = 0;
      pruned = 0;
      sum_s = 0.0;
      critical_s = 0.0;
    }
  in
  let result = body c in
  ( result,
    {
      r_evals = c.evals;
      r_hits = c.hits;
      r_disk_hits = c.disk_hits;
      r_fresh = c.fresh;
      r_pruned = c.pruned;
      r_sum_s = c.sum_s;
      r_critical_s = c.critical_s;
      r_wall_s = Unix.gettimeofday () -. t0;
    } )

(* Branch-and-bound over the same inclusion-order DFS as
   {!Optimizer.fold_subsets_within_budget}. The bound set of a node is
   its own full-inclusion leaf (selected ∪ remaining) — under a monotone
   residual its value lower-bounds every leaf of the subtree, and the
   cache makes within-budget bound evaluations free at their own leaves.
   Pruning fires only when every leaf loses to the incumbent under
   {!Optimizer.better}'s strict total order, so the result is exactly the
   exhaustive one. *)
let optimal ?budget t =
  with_report (fun c ->
      let eval ids = count c (timed_eval t ids) in
      let best = ref None in
      let rec go remaining cost selected =
        let cut =
          match !best with
          | Some (b : Optimizer.solution) when t.f_monotone ->
              let bound_ids =
                List.rev_append selected
                  (List.map (fun (a : Action.t) -> a.Action.id) remaining)
              in
              let r = (eval bound_ids).Optimizer.residual in
              r > b.Optimizer.residual
              || (r = b.Optimizer.residual && cost > b.Optimizer.cost)
          | _ -> false
        in
        if cut then c.pruned <- c.pruned + 1
        else
          match remaining with
          | [] -> (
              let s = eval (List.rev selected) in
              match !best with
              | Some b when not (Optimizer.better s b) -> ()
              | _ -> best := Some s)
          | (a : Action.t) :: rest ->
              go rest cost selected;
              let cost' = cost + a.Action.cost in
              if match budget with Some b -> cost' <= b | None -> true then
                go rest cost' (a.Action.id :: selected)
      in
      go t.f_actions 0 [];
      match !best with Some s -> s | None -> eval [])

(* Evaluate every within-budget subset over the pool, through the cache;
   returns the lookup table the retained Optimizer searches reduce over. *)
let sweep ?jobs ?oversubscribe t budget c =
  let subsets =
    Array.of_list
      (List.rev
         (Optimizer.fold_subsets_within_budget t.f_actions budget ~init:[]
            ~f:(fun acc ids _ -> ids :: acc)))
  in
  let results =
    Engine.Pool.map ?jobs ?oversubscribe
      (fun i -> timed_eval t subsets.(i))
      (Array.length subsets)
  in
  let table = Hashtbl.create (Array.length subsets) in
  Array.iter
    (fun r ->
      let s = count c r in
      Hashtbl.replace table s.Optimizer.selected s.Optimizer.residual)
    results;
  table

let lookup_problem t table =
  {
    Optimizer.actions = t.f_actions;
    residual =
      (fun ~active -> Hashtbl.find table (List.sort_uniq String.compare active));
  }

let pareto ?jobs ?oversubscribe t =
  with_report (fun c ->
      Optimizer.pareto
        (lookup_problem t (sweep ?jobs ?oversubscribe t None c)))

let budget_sweep ?jobs ?oversubscribe t ~budgets =
  with_report (fun c ->
      List.map
        (fun b ->
          let table = sweep ?jobs ?oversubscribe t (Some b) c in
          (b, Optimizer.optimal ~budget:b (lookup_problem t table)))
        budgets)
