type report = {
  results : Job.result array;
  wall_s : float;
  prepared : Job.prepared;
  hits : int;
  disk_hits : int;
  misses : int;
  fresh : Asp.Solver.Stats.t;
  ground : Asp.Grounder.Stats.t;
}

(* a program solved once but hit by several jobs counts its stats once:
   aggregate over distinct fresh fingerprints *)
let tally results =
  let hits = ref 0 and disk_hits = ref 0 in
  let fresh = Asp.Solver.Stats.create () in
  let ground = Asp.Grounder.Stats.create () in
  let counted = Hashtbl.create 64 in
  Array.iter
    (fun (r : Job.result) ->
      match r.Job.source with
      | Cache.Memory -> incr hits
      | Cache.Disk -> incr disk_hits
      | Cache.Fresh ->
          let key = Fingerprint.to_hex r.Job.fingerprint in
          if not (Hashtbl.mem counted key) then begin
            Hashtbl.replace counted key ();
            Asp.Solver.Stats.accumulate fresh r.Job.stats;
            Asp.Grounder.Stats.add ~into:ground r.Job.gstats
          end)
    results;
  (!hits, !disk_hits, Array.length results - !hits - !disk_hits, fresh, ground)

let run_prepared ?cache prepared deltas =
  let t0 = Unix.gettimeofday () in
  let cache = match cache with Some c -> c | None -> Cache.create () in
  let deltas = Array.of_list deltas in
  (* in index order: a job may hit what an earlier job stored *)
  let results =
    Array.init (Array.length deltas) (fun index ->
        Job.run cache prepared ~index deltas.(index))
  in
  let hits, disk_hits, misses, fresh, ground = tally results in
  {
    results;
    wall_s = Unix.gettimeofday () -. t0;
    prepared;
    hits;
    disk_hits;
    misses;
    fresh;
    ground;
  }

let run ?cache spec =
  let t0 = Unix.gettimeofday () in
  let prepared = Job.prepare spec in
  let report = run_prepared ?cache prepared spec.Job.deltas in
  (* fold the preparation time into the report: run = prepare + sweep *)
  { report with wall_s = Unix.gettimeofday () -. t0 }

let base_atoms r = Job.base_atoms r.prepared

let hit_rate r =
  let n = Array.length r.results in
  if n = 0 then 0.0
  else float_of_int (r.hits + r.disk_hits) /. float_of_int n

let render ?(verbose = false) ?base r =
  let buf = Buffer.create 256 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let base =
    match base with
    | Some b -> b
    | None -> Printf.sprintf "%d atoms" (base_atoms r)
  in
  p "sweep: %d jobs in %.3fs (base universe %s)\n" (Array.length r.results)
    r.wall_s base;
  p "cache: %d memory hits / %d disk hits / %d fresh solves (%.1f%% hit rate)\n"
    r.hits r.disk_hits r.misses
    (100.0 *. hit_rate r);
  (* a job the grounder decided never reached the solver: its zeroed
     solver stats would read as solver work *)
  if
    Array.exists
      (fun (res : Job.result) ->
        res.Job.source = Cache.Fresh
        && res.Job.gstats.Asp.Grounder.Stats.decided = 0)
      r.results
  then p "fresh solver work: %s\n" (Asp.Solver.Stats.to_string r.fresh)
  else
    p "fresh solver work: none (the grounder decided %d fresh job%s)\n"
      r.ground.Asp.Grounder.Stats.decided
      (if r.ground.Asp.Grounder.Stats.decided = 1 then "" else "s");
  p "fresh grounder work: %s\n" (Asp.Grounder.Stats.to_string r.ground);
  if verbose then
    Array.iter
      (fun (res : Job.result) ->
        p "  [%3d]%s %-28s %d model%s  %s\n" res.Job.index
          (match res.Job.source with
          | Cache.Memory -> "*"
          | Cache.Disk -> "+"
          | Cache.Fresh -> " ")
          (Delta.label res.Job.delta)
          (List.length res.Job.models)
          (if List.length res.Job.models = 1 then "" else "s")
          (Fingerprint.to_hex res.Job.fingerprint))
      r.results;
  Buffer.contents buf
