type report = {
  models : Asp.Model.t list;
  stats : Asp.Solver.Stats.t;
  paths : int;
  path_walls : float array;
}

let ceil_log2 n =
  let rec go b = if 1 lsl b >= n then b else go (b + 1) in
  if n <= 1 then 0 else go 1

(* Sign vector for path [i]: bit [k] of [i] decides the assumed value of
   the [k]-th guiding atom. Every model satisfies exactly one sign
   vector, so the 2^bits branches partition the model space and the
   merged enumeration is exhaustive and duplicate-free. *)
let assumptions_of_path atoms i =
  List.mapi (fun k a -> (a, (i lsr k) land 1 = 1)) atoms

let popcount i =
  let rec go n i = if i = 0 then n else go (n + (i land 1)) (i lsr 1) in
  go 0 i

(* The one fan-out of both searches. [solve assumptions config] is the
   per-path solve and [merge] turns the concatenated path answers into
   the global one. [split ()] says whether the program may be split at
   all; it is only asked when there is more than one worker.

   Over-decompose: [2 + ceil_log2 jobs] guiding bits give four times as
   many paths as workers. Sign-splitting on choice atoms is uneven — the
   all-false branch keeps most of the space — so finer paths are what
   lets the pool balance the load, at a per-path recompile cost that is
   negligible next to any search worth parallelising. *)
let fan_out ?oversubscribe ?jobs ?(share = true) ~split ~solve ~merge g =
  let jobs =
    match jobs with Some j -> max 1 j | None -> Pool.default_jobs ()
  in
  let atoms =
    if jobs > 1 && split () then
      Asp.Solver.guiding_atoms g (2 + ceil_log2 jobs)
    else []
  in
  match atoms with
  | [] ->
      let models, stats = solve [] Asp.Solver.Config.default in
      {
        models;
        stats;
        paths = 1;
        path_walls = [| stats.Asp.Solver.Stats.wall_s |];
      }
  | atoms ->
      let t0 = Unix.gettimeofday () in
      let paths = 1 lsl List.length atoms in
      let hub = if share then Some (Asp.Exchange.create ~paths ()) else None in
      (* schedule the most-constrained paths (most true-assumption bits)
         first: they are the quick ones, and the clauses they publish to
         the exchange then prune the wide all-false branches that follow *)
      let order = Array.init paths (fun i -> i) in
      Array.sort
        (fun a b ->
          match compare (popcount b) (popcount a) with
          | 0 -> compare a b
          | c -> c)
        order;
      let scheduled =
        Pool.map ?oversubscribe ~jobs
          (fun j ->
            let i = order.(j) in
            let config =
              match hub with
              | Some h ->
                  { Asp.Solver.Config.default with exchange = Some (h, i) }
              | None -> Asp.Solver.Config.default
            in
            solve (assumptions_of_path atoms i) config)
          paths
      in
      let per_path = Array.make paths scheduled.(0) in
      Array.iteri (fun j r -> per_path.(order.(j)) <- r) scheduled;
      let stats = Asp.Solver.Stats.create () in
      Array.iter (fun (_, s) -> Asp.Solver.Stats.accumulate stats s) per_path;
      let path_walls =
        Array.map
          (fun ((_, s) : _ * Asp.Solver.Stats.t) -> s.Asp.Solver.Stats.wall_s)
          per_path
      in
      (* the accumulated wall is the summed per-path solver time; report
         the measured elapsed time for the whole fan-out instead *)
      stats.Asp.Solver.Stats.wall_s <- Unix.gettimeofday () -. t0;
      {
        models = merge (List.concat_map fst (Array.to_list per_path));
        stats;
        paths;
        path_walls;
      }

(* A global model cap cannot be split soundly across branches without
   over-enumerating. The cheap tier, which answers an eligible program by
   propagation alone, is off under assumptions, so splitting such a
   program would trade one cheap solve for a CDNL search per path. The
   branches are disjoint: concatenation + sort reproduces the sequential
   enumeration bit for bit. *)
let enumerate ?oversubscribe ?jobs ?limit ?share g =
  fan_out ?oversubscribe ?jobs ?share g
    ~split:(fun () -> limit = None && not (Asp.Solver.cheap_eligible g))
    ~solve:(fun assumptions config ->
      Asp.Solver.solve_with_stats ?limit ~assumptions ~config g)
    ~merge:(List.sort Asp.Model.compare)

(* each branch returns its local optimum front; the global front is the
   minimum-cost slice of their union *)
let min_cost_slice fronts =
  match fronts with
  | [] -> []
  | m :: rest ->
      let best =
        List.fold_left
          (fun b m ->
            let c = Asp.Model.cost m in
            if Asp.Model.compare_cost c b < 0 then c else b)
          (Asp.Model.cost m) rest
      in
      fronts
      |> List.filter (fun m ->
             Asp.Model.compare_cost (Asp.Model.cost m) best = 0)
      |> List.sort Asp.Model.compare

(* Without weak constraints the optimum is the enumeration, which the
   cheap tier answers whole for an eligible program: such a program
   stays on one path, as in {!enumerate}. *)
let optimal ?oversubscribe ?jobs ?share g =
  fan_out ?oversubscribe ?jobs ?share g
    ~split:(fun () ->
      List.exists
        (function Asp.Ground.Gweak _ -> true | _ -> false)
        g.Asp.Ground.rules
      || not (Asp.Solver.cheap_eligible g))
    ~solve:(fun assumptions config ->
      Asp.Solver.solve_optimal_with_stats ~assumptions ~config g)
    ~merge:min_cost_slice
