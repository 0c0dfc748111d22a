let scenario_delta ?label (s : Epa.Scenario.t) =
  Engine.Delta.make ?label ~mitigations:s.Epa.Scenario.mitigations
    s.Epa.Scenario.faults

let delta_scenario (d : Engine.Delta.t) =
  Epa.Scenario.make ~mitigations:d.Engine.Delta.mitigations
    d.Engine.Delta.faults

let all_fault_deltas ?(mitigations = []) catalog =
  List.map
    (fun s -> scenario_delta s)
    (Epa.Scenario.all_combinations ~mitigations catalog)

let random_subset rng pool =
  List.filter (fun _ -> Random.State.bool rng) pool

let random_deltas ?(fault_pool = [ "F1"; "F2"; "F3"; "F4" ])
    ?(mitigation_pool = [ "M1"; "M2"; "M3" ]) ~seed n =
  let rng = Random.State.make [| 0x53EE9; seed |] in
  List.init n (fun _ ->
      Engine.Delta.make
        ~mitigations:(random_subset rng mitigation_pool)
        (random_subset rng fault_pool))

(* ------------------------------------------------------------------ *)
(* Water-tank temporal backend                                         *)
(* ------------------------------------------------------------------ *)

let extra_program (d : Engine.Delta.t) =
  List.fold_left
    (fun acc src -> Asp.Program.append acc (Asp.Parser.parse_program src))
    Asp.Program.empty d.Engine.Delta.extra

let water_tank_compile d =
  Asp.Program.append
    (Water_tank.asp_activation_facts (delta_scenario d))
    (extra_program d)

(* The one predicate a water-tank reading looks at ({!verdicts} and the
   frontier residual): the spec shows it, so cached models hold nothing
   else. *)
let violated_sig = ("violated", 1)

let violated_atom (req : Epa.Requirement.t) =
  Asp.Atom.make (fst violated_sig)
    [ Asp.Term.const (String.lowercase_ascii req.Epa.Requirement.id) ]

(* ---- horizon reduction ------------------------------------------- *)

(* The dynamics ([holds/3], [alert/1]) are a deterministic,
   time-homogeneous function of the previous step's state, and the
   requirements read only them: a trace that revisits a state is a lasso
   from there on, and {!Telingo.Compile.reduce_horizon} folds horizon H
   onto one period of it. *)
let state_sigs = [ ("holds", 3); ("alert", 1) ]

let depth =
  List.fold_left
    (fun d (r : Epa.Requirement.t) ->
      max d (Telingo.Compile.temporal_depth r.Epa.Requirement.formula))
    0 Water_tank.requirements

(* Every lasso of the catalog has a period dividing 12 and reaches
   prefix + depth * period by step 12, so a probe congruent to H modulo
   12 settles every job. *)
let probe_step = 12

let probe_horizon h =
  if h < 0 then invalid_arg "Sweeps.probe_horizon: negative horizon";
  if h < probe_step then h else probe_step + (h mod probe_step)

type horizon = {
  h : int;
  h0 : int;
  mode : Engine.Job.mode option;
  lock : Mutex.t;
  bases : (int, Engine.Job.prepared) Hashtbl.t;
  at_probe : int Atomic.t;
  redecided : int Atomic.t;
  unrolled : int Atomic.t;
}

type horizon_counts = {
  horizon : int;
  probe : int;
  answered_at_probe : int;
  redecided_at_reduced : int;
  unrolled_at_horizon : int;
}

let horizon_counts t =
  {
    horizon = t.h;
    probe = t.h0;
    answered_at_probe = Atomic.get t.at_probe;
    redecided_at_reduced = Atomic.get t.redecided;
    unrolled_at_horizon = Atomic.get t.unrolled;
  }

let render_horizon t =
  let c = horizon_counts t in
  Printf.sprintf
    "horizon: H=%d from probe h0=%d: %d answered at the probe, %d \
     re-decided at reduce(H), %d unrolled at H\n"
    c.horizon c.probe c.answered_at_probe c.redecided_at_reduced
    c.unrolled_at_horizon

(* The base at horizon [h] with the dynamics shown, prepared once per
   horizon and shared by every job that needs it. *)
let base_at t h =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.bases h with
      | Some p -> p
      | None ->
          let base =
            List.fold_left
              (fun p s -> Asp.Program.add_show s p)
              (Water_tank.asp_base ~horizon:h ())
              (violated_sig :: state_sigs)
          in
          let p =
            Engine.Job.prepare
              (Engine.Job.spec ?mode:t.mode ~compile:water_tank_compile
                 ~deltas:[] base)
          in
          Hashtbl.add t.bases h p;
          p)

(* [(prefix, period)] of the first step j whose state equals an earlier
   step i's, reading the states 0..horizon off a probe model. The model
   lists its atoms in {!Asp.Atom.compare} order, time argument last, so
   each step's atoms come out in one canonical order. *)
let lasso m ~horizon =
  let states = Array.make (horizon + 1) [] in
  List.iter
    (fun (a : Asp.Atom.t) ->
      match List.rev a.Asp.Atom.args with
      | { Asp.Term.node = Asp.Term.Int t; _ } :: rest
        when t >= 0 && t <= horizon
             && List.mem (a.Asp.Atom.pred, List.length a.Asp.Atom.args)
                  state_sigs ->
          states.(t) <- (a.Asp.Atom.pred, rest) :: states.(t)
      | _ -> ())
    (Asp.Model.to_list m);
  let seen = Hashtbl.create 16 in
  let rec find j =
    if j > horizon then None
    else
      match Hashtbl.find_opt seen states.(j) with
      | Some i -> Some (i, j - i)
      | None ->
          Hashtbl.add seen states.(j) j;
          find (j + 1)
  in
  find 0

let probe_lasso t delta =
  match Engine.Job.solve (base_at t t.h0) delta with
  | [ m ], _, _ -> lasso m ~horizon:t.h0
  | _ -> None

let project (models, stats, gstats) =
  (List.map (Asp.Model.project [ violated_sig ]) models, stats, gstats)

(* work the probe did for a job it did not settle, charged to that job;
   [decided] still counts the job once *)
let charge ~probe (models, stats, gstats) =
  let decided = gstats.Asp.Grounder.Stats.decided in
  Asp.Grounder.Stats.add ~into:gstats probe;
  gstats.Asp.Grounder.Stats.decided <- decided;
  (models, stats, gstats)

let answer t ~full delta =
  let unroll ?probe () =
    Atomic.incr t.unrolled;
    let a = full delta in
    match probe with Some probe -> charge ~probe a | None -> a
  in
  if delta.Engine.Delta.extra <> [] then unroll ()
  else if t.h0 = t.h then begin
    (* the full unrolling is the probe: no lasso to find *)
    Atomic.incr t.at_probe;
    full delta
  end
  else
    let ((models, _, probe) as at_probe) =
      Engine.Job.solve (base_at t t.h0) delta
    in
    let settle () =
      Atomic.incr t.at_probe;
      project at_probe
    in
    match models with
    | [ m ] -> (
        match lasso m ~horizon:t.h0 with
        | None -> unroll ~probe ()
        | Some (prefix, period) ->
            let reduce =
              Telingo.Compile.reduce_horizon ~depth ~prefix ~period
            in
            let r = reduce t.h in
            if reduce t.h0 = r then settle ()
            else begin
              Atomic.incr t.redecided;
              charge ~probe (project (Engine.Job.solve (base_at t r) delta))
            end)
    | _ -> unroll ~probe ()

let water_tank ?(horizon = Water_tank.default_horizon) ?probe ?mode deltas =
  if horizon < 0 then invalid_arg "Sweeps.water_tank: negative horizon";
  let t =
    {
      h = horizon;
      h0 =
        (match probe with
        | Some p when p < 0 -> invalid_arg "Sweeps.water_tank: negative probe"
        | Some p -> p
        | None -> probe_horizon horizon);
      mode;
      lock = Mutex.create ();
      bases = Hashtbl.create 4;
      at_probe = Atomic.make 0;
      redecided = Atomic.make 0;
      unrolled = Atomic.make 0;
    }
  in
  ( Engine.Job.spec ?mode ~shortcut:(answer t) ~compile:water_tank_compile
      ~deltas
      (Asp.Program.add_show violated_sig (Water_tank.asp_base ~horizon ())),
    t )

let water_tank_spec ?horizon ?mode deltas =
  fst (water_tank ?horizon ?mode deltas)

let verdicts (r : Engine.Job.result) =
  match r.Engine.Job.models with
  | [ m ] ->
      List.map
        (fun (req : Epa.Requirement.t) ->
          (req.Epa.Requirement.id, Asp.Model.holds m (violated_atom req)))
        Water_tank.requirements
  | models ->
      invalid_arg
        (Printf.sprintf
           "Sweeps.verdicts: job %s expected a unique stable model, got %d"
           (Engine.Delta.label r.Engine.Job.delta)
           (List.length models))

(* ------------------------------------------------------------------ *)
(* Generic topology backend                                            *)
(* ------------------------------------------------------------------ *)

(* Static error propagation (§VI focus 1) over the model's ASP facts:
   injected components err unless shielded; errors follow flow edges;
   mitigation elements shield the components they are associated with. *)
let topology_rules =
  {|
shields(M, C) :- property(M, mitigation, V), rel(association, M, C).
shielded(C) :- active_mitigation(M), shields(M, C).
error(C) :- injected(C), not shielded(C).
error(T) :- error(S), flow(S, T), not shielded(T).
affected(C) :- error(C).
|}

let topology_compile (d : Engine.Delta.t) =
  let buf = Buffer.create 128 in
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "injected(%s).\n" (Archimate.To_asp.sanitize c)))
    d.Engine.Delta.faults;
  List.iter
    (fun m ->
      Buffer.add_string buf
        (Printf.sprintf "active_mitigation(%s).\n" (Archimate.To_asp.sanitize m)))
    d.Engine.Delta.mitigations;
  Asp.Program.append
    (Asp.Parser.parse_program (Buffer.contents buf))
    (extra_program d)

(* Same for the topology reading ({!affected}). *)
let affected_sig = ("affected", 1)

let topology_spec model deltas =
  Engine.Job.spec ~compile:topology_compile ~deltas
    (Asp.Program.add_show affected_sig
       (Asp.Program.append
          (Archimate.To_asp.facts model)
          (Asp.Parser.parse_program topology_rules)))

let model_element_deltas model =
  List.filter_map
    (fun (e : Archimate.Element.t) ->
      if
        Archimate.Element.property "component_type" e <> None
        || Archimate.Element.property "fault_modes" e <> None
      then
        Some
          (Engine.Delta.make ~label:e.Archimate.Element.id
             [ e.Archimate.Element.id ])
      else None)
    (Archimate.Model.elements model)

let affected (r : Engine.Job.result) =
  match r.Engine.Job.models with
  | [ m ] ->
      Asp.Model.by_predicate m (fst affected_sig)
      |> List.filter_map (fun (a : Asp.Atom.t) ->
             match a.Asp.Atom.args with
             | [ { Asp.Term.node = Asp.Term.Const c; _ } ] -> Some c
             | _ -> None)
      |> List.sort_uniq String.compare
  | models ->
      invalid_arg
        (Printf.sprintf
           "Sweeps.affected: job %s expected a unique stable model, got %d"
           (Engine.Delta.label r.Engine.Job.delta)
           (List.length models))
