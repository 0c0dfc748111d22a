type mode = Enumerate of int option | Optimal
type answer = Asp.Model.t list * Asp.Solver.Stats.t * Asp.Grounder.Stats.t

type spec = {
  base : Asp.Program.t;
  compile : Delta.t -> Asp.Program.t;
  deltas : Delta.t list;
  mode : mode;
  max_atoms : int option;
  shortcut : (full:(Delta.t -> answer) -> Delta.t -> answer) option;
}

let spec ?(mode = Enumerate None) ?max_atoms ?shortcut ~compile ~deltas base =
  { base; compile; deltas; mode; max_atoms; shortcut }

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
  p_ground : Asp.Grounder.prepared option Atomic.t;
  p_lock : Mutex.t;  (** serialises the one grounding of the base *)
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

let ground p =
  match Atomic.get p.p_ground with
  | Some g -> g
  | None ->
      Mutex.protect p.p_lock (fun () ->
          match Atomic.get p.p_ground with
          | Some g -> g
          | None ->
              let s = p.p_spec in
              let g = Asp.Grounder.prepare ?max_atoms:s.max_atoms s.base in
              Atomic.set p.p_ground (Some g);
              g)

let prepare s =
  let p =
    {
      p_spec = s;
      p_base_fp = Fingerprint.program s.base;
      p_mode_fp = mode_fingerprint s;
      p_ground = Atomic.make None;
      p_lock = Mutex.create ();
    }
  in
  (* a shortcut may answer every job without the base's own grounding *)
  if Option.is_none s.shortcut then ignore (ground p);
  p

let prepared_spec p = p.p_spec

let base_atoms p =
  Asp.Model.AtomSet.cardinal (Asp.Grounder.base_universe (ground p))

let fingerprint p delta =
  Fingerprint.combine
    (Fingerprint.extend p.p_base_fp (p.p_spec.compile delta))
    p.p_mode_fp

(* A stratified job has its one candidate model decided by the grounder;
   with no weak constraint in it, that is also its optimum. *)
let full p delta =
  let s = p.p_spec in
  let gstats = Asp.Grounder.Stats.create () in
  let increment = s.compile delta in
  let g = ground p in
  match Asp.Grounder.decide ~stats:gstats g increment with
  | Some models ->
      let stats = Asp.Solver.Stats.create () in
      stats.Asp.Solver.Stats.models <- List.length models;
      (models, stats, gstats)
  | None ->
      let program = Asp.Grounder.extend ~stats:gstats g increment in
      let models, stats =
        match s.mode with
        | Enumerate limit -> Asp.Solver.solve_with_stats ?limit program
        | Optimal -> Asp.Solver.solve_optimal_with_stats program
      in
      (models, stats, gstats)

let solve p delta =
  match p.p_spec.shortcut with
  | None -> full p delta
  | Some answer -> answer ~full:(full p) delta

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
