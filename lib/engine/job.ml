type mode = Enumerate of int option | Optimal

type spec = {
  base : Asp.Program.t;
  compile : Delta.t -> Asp.Program.t;
  deltas : Delta.t list;
  mode : mode;
  max_atoms : int option;
}

let spec ?(mode = Enumerate None) ?max_atoms ~compile ~deltas base =
  { base; compile; deltas; mode; max_atoms }

type result = {
  index : int;
  delta : Delta.t;
  fingerprint : Fingerprint.t;
  models : Asp.Model.t list;
  stats : Asp.Solver.Stats.t;
  gstats : Asp.Grounder.Stats.t;
  cached : bool;
  source : Cache.source;
}

type prepared = {
  p_spec : spec;
  p_base_fp : Fingerprint.t;
  p_mode_fp : Fingerprint.t;
  p_ground : Asp.Grounder.prepared;
}

let mode_fingerprint s =
  Fingerprint.ints
    [
      (match s.mode with
      | Enumerate None -> 0
      | Enumerate (Some l) -> 1 + l
      | Optimal -> -1);
      Option.value ~default:(-1) s.max_atoms;
    ]

let prepare s =
  {
    p_spec = s;
    p_base_fp = Fingerprint.program s.base;
    p_mode_fp = mode_fingerprint s;
    p_ground = Asp.Grounder.prepare ?max_atoms:s.max_atoms s.base;
  }

let prepared_spec p = p.p_spec

let base_atoms p =
  Asp.Model.AtomSet.cardinal (Asp.Grounder.base_universe p.p_ground)

let fingerprint p delta =
  Fingerprint.combine
    (Fingerprint.extend p.p_base_fp (p.p_spec.compile delta))
    p.p_mode_fp

(* A stratified job has its one candidate model decided by the grounder;
   with no weak constraint in it, that is also its optimum. *)
let solve p delta =
  let s = p.p_spec in
  let gstats = Asp.Grounder.Stats.create () in
  let increment = s.compile delta in
  match Asp.Grounder.decide ~stats:gstats p.p_ground increment with
  | Some models ->
      let stats = Asp.Solver.Stats.create () in
      stats.Asp.Solver.Stats.models <- List.length models;
      (models, stats, gstats)
  | None ->
      let ground = Asp.Grounder.extend ~stats:gstats p.p_ground increment in
      let models, stats =
        match s.mode with
        | Enumerate limit -> Asp.Solver.solve_with_stats ?limit ground
        | Optimal -> Asp.Solver.solve_optimal_with_stats ground
      in
      (models, stats, gstats)

let run cache p ~index delta =
  let fingerprint = fingerprint p delta in
  let (models, stats, gstats), source =
    Cache.find_or_compute_src cache fingerprint (fun () -> solve p delta)
  in
  {
    index;
    delta;
    fingerprint;
    models;
    stats;
    gstats;
    cached = source <> Cache.Fresh;
    source;
  }
