module Fp = Engine.Fingerprint

type level = { l_label : string; l_structure : Asp.Program.t }

type mode =
  | Assume of (Engine.Delta.t -> (Asp.Atom.t * bool) list)
  | Increment of (Engine.Delta.t -> Asp.Program.t)

type spec = {
  base : Asp.Program.t;
  levels : level list;
  candidates : Engine.Delta.t list;
  mode : mode;
  keep : Asp.Model.t list -> bool;
  limit : int option;
  max_atoms : int;
}

type round = {
  r_level : int;
  r_label : string;
  r_survivors : Engine.Delta.t list;
  r_eliminated : Engine.Delta.t list;
}

type stats = {
  s_rounds : int;
  s_solves : int;
  s_hits : int;
  s_disk_hits : int;
  s_fresh : int;
  s_carried : int;
  s_published : int;
  s_flushes : int;
  s_ground : Asp.Grounder.Stats.t;
  s_wall_s : float;
}

type outcome = {
  rounds : round list;
  confirmed : Engine.Delta.t list;
  stats : stats;
}

type value = Asp.Model.t list * Asp.Solver.Stats.t * Asp.Grounder.Stats.t

(* Assumption sets address the cache through a content hash of the
   (atom, value) pairs — [Hashtbl.hash] on strings is deterministic
   across processes, so persisted entries stay addressable. *)
let assumption_fp assumptions =
  Fp.ints
    (List.concat_map
       (fun (a, v) -> [ Hashtbl.hash (Asp.Atom.to_string a); Bool.to_int v ])
       assumptions)

(* The cache key of candidate [c] over the level fingerprint [fp]: its
   assumptions or increment, then the model limit, which decides how many
   models the cached answer holds (None -> 0, Some l -> 1 + l, as in
   {!Engine.Job}'s mode key). *)
let candidate_fp spec fp c =
  let fp =
    match spec.mode with
    | Assume f -> Fp.combine fp (assumption_fp (f c))
    | Increment f -> Fp.extend fp (f c)
  in
  Fp.combine fp
    (Fp.ints [ (match spec.limit with None -> 0 | Some l -> 1 + l) ])

let run ?jobs ?oversubscribe ?(share = true) ?cache spec =
  if spec.candidates = [] then invalid_arg "Cegar.Inc.run: no candidates";
  let t0 = Unix.gettimeofday () in
  let cache = match cache with Some c -> c | None -> Engine.Cache.create () in
  let gstats = Asp.Grounder.Stats.create () in
  let n0 = List.length spec.candidates in
  let prep =
    ref (Asp.Grounder.prepare ~max_atoms:spec.max_atoms ~stats:gstats spec.base)
  in
  let fp = ref (Fp.program spec.base) in
  let hub = ref (Asp.Exchange.create ~paths:n0 ()) in
  let flushes = ref 0 in
  let hits = ref 0 and disk = ref 0 and fresh = ref 0 in
  let carried = ref 0 and published = ref 0 and solves = ref 0 in
  (* Assess the surviving candidates of one round in parallel. Workers
     only read shared state and report through the (domain-safe) cache;
     counters are tallied from the result array in this domain. *)
  let assess survivors =
    let cur_fp = !fp and cur_prep = !prep and cur_hub = !hub in
    let ground_now =
      match spec.mode with
      | Assume _ -> Some (Asp.Grounder.base cur_prep)
      | Increment _ -> None
    in
    Engine.Pool.map ?oversubscribe ?jobs
      (fun i ->
        let orig, c = survivors.(i) in
        let cfp = candidate_fp spec cur_fp c in
        let value, src =
          Engine.Cache.find_or_compute_src cache cfp (fun () ->
              match spec.mode with
              | Assume f ->
                  let config =
                    if share then
                      { Asp.Solver.Config.default with
                        exchange = Some (cur_hub, orig)
                      }
                    else Asp.Solver.Config.default
                  in
                  let models, ss =
                    Asp.Solver.solve_with_stats ?limit:spec.limit ~config
                      ~assumptions:(f c)
                      (Option.get ground_now)
                  in
                  (models, ss, Asp.Grounder.Stats.create ())
              | Increment f ->
                  let gs = Asp.Grounder.Stats.create () in
                  let g = Asp.Grounder.extend ~stats:gs cur_prep (f c) in
                  let models, ss =
                    Asp.Solver.solve_with_stats ?limit:spec.limit g
                  in
                  (models, ss, gs))
        in
        (c, value, src))
      (Array.length survivors)
  in
  let tally results =
    Array.iter
      (fun (_, ((_, ss, gs) : value), src) ->
        match src with
        | Engine.Cache.Fresh ->
            incr fresh;
            incr solves;
            carried := !carried + ss.Asp.Solver.Stats.shared_in;
            published := !published + ss.Asp.Solver.Stats.shared_out;
            Asp.Grounder.Stats.add ~into:gstats gs
        | Engine.Cache.Memory -> incr hits
        | Engine.Cache.Disk -> incr disk)
      results
  in
  let rounds = ref [] in
  let survivors =
    ref (Array.of_list (List.mapi (fun i c -> (i, c)) spec.candidates))
  in
  let do_round lvl label =
    let res = assess !survivors in
    tally res;
    let surv = ref [] and elim = ref [] in
    Array.iteri
      (fun i (c, ((models, _, _) : value), _) ->
        let orig = fst !survivors.(i) in
        if spec.keep models then surv := (orig, c) :: !surv
        else elim := c :: !elim)
      res;
    let surv = Array.of_list (List.rev !surv) in
    rounds :=
      {
        r_level = lvl;
        r_label = label;
        r_survivors = Array.to_list (Array.map snd surv);
        r_eliminated = List.rev !elim;
      }
      :: !rounds;
    survivors := surv
  in
  do_round 0 "base";
  List.iteri
    (fun k l ->
      if Asp.Program.rules l.l_structure <> [] then begin
        prep := Asp.Grounder.extend_prepare ~stats:gstats !prep l.l_structure;
        fp := Fp.extend !fp l.l_structure;
        match spec.mode with
        | Assume _ when share ->
            (* the ground program changed: the old program's learned
               clauses are no longer justified — start a fresh hub *)
            hub := Asp.Exchange.create ~paths:n0 ();
            incr flushes
        | _ -> ()
      end;
      do_round (k + 1) l.l_label)
    spec.levels;
  let rounds = List.rev !rounds in
  {
    rounds;
    confirmed = Array.to_list (Array.map snd !survivors);
    stats =
      {
        s_rounds = List.length rounds;
        s_solves = !solves;
        s_hits = !hits;
        s_disk_hits = !disk;
        s_fresh = !fresh;
        s_carried = !carried;
        s_published = !published;
        s_flushes = !flushes;
        s_ground = gstats;
        s_wall_s = Unix.gettimeofday () -. t0;
      };
  }

let run_scratch spec =
  if spec.candidates = [] then
    invalid_arg "Cegar.Inc.run_scratch: no candidates";
  let t0 = Unix.gettimeofday () in
  let gstats = Asp.Grounder.Stats.create () in
  let solves = ref 0 in
  let rounds = ref [] in
  let survivors = ref spec.candidates in
  let program = ref spec.base in
  let do_round lvl label =
    (* cold every round: one scratch ground shared by the round's
       assumption solves, or one per candidate increment *)
    let ground_shared =
      match spec.mode with
      | Assume _ when !survivors <> [] ->
          Some
            (Asp.Grounder.ground ~max_atoms:spec.max_atoms ~stats:gstats
               !program)
      | _ -> None
    in
    let surv = ref [] and elim = ref [] in
    List.iter
      (fun c ->
        incr solves;
        let models =
          match spec.mode with
          | Assume f ->
              Asp.Solver.solve ?limit:spec.limit ~assumptions:(f c)
                (Option.get ground_shared)
          | Increment f ->
              Asp.Solver.solve ?limit:spec.limit
                (Asp.Grounder.ground ~max_atoms:spec.max_atoms ~stats:gstats
                   (Asp.Program.append !program (f c)))
        in
        if spec.keep models then surv := c :: !surv else elim := c :: !elim)
      !survivors;
    rounds :=
      {
        r_level = lvl;
        r_label = label;
        r_survivors = List.rev !surv;
        r_eliminated = List.rev !elim;
      }
      :: !rounds;
    survivors := List.rev !surv
  in
  do_round 0 "base";
  List.iteri
    (fun k l ->
      if Asp.Program.rules l.l_structure <> [] then
        program := Asp.Program.append !program l.l_structure;
      do_round (k + 1) l.l_label)
    spec.levels;
  {
    rounds = List.rev !rounds;
    confirmed = !survivors;
    stats =
      {
        s_rounds = List.length !rounds;
        s_solves = !solves;
        s_hits = 0;
        s_disk_hits = 0;
        s_fresh = !solves;
        s_carried = 0;
        s_published = 0;
        s_flushes = 0;
        s_ground = gstats;
        s_wall_s = Unix.gettimeofday () -. t0;
      };
  }
