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
   requirements read only them, so every trace is a lasso and
   {!Telingo.Compile.reduce_horizon} folds horizon H onto one period of
   it. A facts-only delta has the trace of a subset of the catalog's
   faults and mitigations (other ids join no catalog fact), and every
   such lasso has a period dividing 12 and reaches prefix + depth *
   period by step 12 (both pinned in the engine tests), so a probe
   congruent to H modulo 12 has H's verdicts. *)
let probe_step = 12

let probe_horizon h =
  if h < 0 then invalid_arg "Sweeps.probe_horizon: negative horizon";
  if h < probe_step then h else probe_step + (h mod probe_step)

type horizon = {
  h : int;
  h0 : int;
  at_probe : int Atomic.t;
  unrolled : int Atomic.t;
}

let render_horizon t =
  Printf.sprintf
    "horizon: H=%d from probe h0=%d: %d decided at h0, %d unrolled at H\n"
    t.h t.h0 (Atomic.get t.at_probe) (Atomic.get t.unrolled)

let water_tank ?(horizon = Water_tank.default_horizon) ?mode deltas =
  let h0 = probe_horizon horizon in
  let t =
    { h = horizon; h0; at_probe = Atomic.make 0; unrolled = Atomic.make 0 }
  in
  let spec ~shortcut h =
    Engine.Job.spec ?mode ~shortcut ~compile:water_tank_compile ~deltas
      (Asp.Program.add_show violated_sig (Water_tank.asp_base ~horizon:h ()))
  in
  let probe =
    if h0 = horizon then fun ~full -> full
    else
      (* any shortcut defers the grounding of the probe base to its first
         job, so a target whose answers all come from the cache never
         grounds it *)
      let p = Engine.Job.prepare (spec ~shortcut:(fun ~full -> full) h0) in
      fun ~full:_ delta -> Engine.Job.solve p delta
  in
  (* [extra] rules may break determinism or time-homogeneity *)
  let answer ~full delta =
    if delta.Engine.Delta.extra <> [] then begin
      Atomic.incr t.unrolled;
      full delta
    end
    else begin
      Atomic.incr t.at_probe;
      probe ~full delta
    end
  in
  (spec ~shortcut:answer horizon, t)

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
