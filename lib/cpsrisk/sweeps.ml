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

let water_tank_spec ?horizon ?mode deltas =
  Engine.Job.spec ?mode ~compile:water_tank_compile ~deltas
    (Asp.Program.add_show violated_sig (Water_tank.asp_base ?horizon ()))

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
