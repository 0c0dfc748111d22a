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
  let d = t.f_delta ~active:selected in
  let fp = Engine.Job.fingerprint t.f_prepared d in
  let (models, _, _), src =
    Engine.Cache.find_or_compute_src t.f_cache fp (fun () ->
        Engine.Job.solve t.f_prepared d)
  in
  ( {
      Optimizer.selected;
      cost = Action.total_cost t.f_actions selected;
      residual = t.f_measure models;
    },
    src )

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

(* counter snapshot -> report, shared by all the searches *)
let with_report t body =
  let t0 = Unix.gettimeofday () in
  let h0 = Engine.Cache.hits t.f_cache in
  let d0 = Engine.Cache.disk_hits t.f_cache in
  let m0 = Engine.Cache.misses t.f_cache in
  let evals = ref 0 and pruned = ref 0 in
  let sum = ref 0.0 and critical = ref 0.0 in
  let timed_eval ids =
    incr evals;
    let e0 = Unix.gettimeofday () in
    let s, _ = evaluate t ids in
    let w = Unix.gettimeofday () -. e0 in
    (s, w)
  in
  let result = body ~timed_eval ~evals ~pruned ~sum ~critical in
  ( result,
    {
      r_evals = !evals;
      r_hits = Engine.Cache.hits t.f_cache - h0;
      r_disk_hits = Engine.Cache.disk_hits t.f_cache - d0;
      r_fresh = Engine.Cache.misses t.f_cache - m0;
      r_pruned = !pruned;
      r_sum_s = !sum;
      r_critical_s = !critical;
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
  with_report t (fun ~timed_eval ~evals:_ ~pruned ~sum ~critical ->
      let eval ids =
        let s, w = timed_eval ids in
        sum := !sum +. w;
        if w > !critical then critical := w;
        s
      in
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
        if cut then incr pruned
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
      match !best with Some s -> s | None -> fst (evaluate t []))

(* Evaluate every within-budget subset over the pool, through the cache;
   returns the lookup table the retained Optimizer searches reduce over. *)
let sweep ?jobs ?oversubscribe t budget ~sum ~critical =
  let subsets =
    Array.of_list
      (List.rev
         (Optimizer.fold_subsets_within_budget t.f_actions budget ~init:[]
            ~f:(fun acc ids _ -> ids :: acc)))
  in
  let results =
    Engine.Pool.map ?jobs ?oversubscribe
      (fun i ->
        let e0 = Unix.gettimeofday () in
        let s, _ = evaluate t subsets.(i) in
        (s, Unix.gettimeofday () -. e0))
      (Array.length subsets)
  in
  let table = Hashtbl.create (Array.length subsets) in
  Array.iter
    (fun ((s : Optimizer.solution), w) ->
      sum := !sum +. w;
      if w > !critical then critical := w;
      Hashtbl.replace table s.Optimizer.selected s.Optimizer.residual)
    results;
  (Array.length subsets, table)

let lookup_problem t table =
  {
    Optimizer.actions = t.f_actions;
    residual =
      (fun ~active -> Hashtbl.find table (List.sort_uniq String.compare active));
  }

let pareto ?jobs ?oversubscribe t =
  with_report t (fun ~timed_eval:_ ~evals ~pruned:_ ~sum ~critical ->
      let n, table = sweep ?jobs ?oversubscribe t None ~sum ~critical in
      evals := !evals + n;
      Optimizer.pareto (lookup_problem t table))

let budget_sweep ?jobs ?oversubscribe t ~budgets =
  with_report t (fun ~timed_eval:_ ~evals ~pruned:_ ~sum ~critical ->
      List.map
        (fun b ->
          let n, table = sweep ?jobs ?oversubscribe t (Some b) ~sum ~critical in
          evals := !evals + n;
          (b, Optimizer.optimal ~budget:b (lookup_problem t table)))
        budgets)
