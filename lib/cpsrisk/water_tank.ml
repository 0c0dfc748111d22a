(* ------------------------------------------------------------------ *)
(* ArchiMate models (Fig. 4)                                            *)
(* ------------------------------------------------------------------ *)

let el ?(props = []) id name kind =
  Archimate.Element.make ~id ~name ~kind ~properties:props ()

let rel id source target kind =
  Archimate.Relationship.make ~id ~source ~target ~kind ()

let model =
  let open Archimate in
  let typed ty = [ ("component_type", ty) ] in
  Model.empty ~name:"Water Tank System"
  |> Model.add_element
       (el "tank" "Water Tank" Element.Equipment ~props:(typed "tank"))
  |> Model.add_element
       (el "wls" "Water Level Sensor" Element.Device ~props:(typed "sensor"))
  |> Model.add_element
       (el "ctrl" "Water Tank Controller" Element.Application_component
          ~props:(typed "controller"))
  |> Model.add_element
       (el "in_valve" "Input Valve" Element.Equipment ~props:(typed "valve"))
  |> Model.add_element
       (el "out_valve" "Output Valve" Element.Equipment ~props:(typed "valve"))
  |> Model.add_element
       (el "in_valve_ctrl" "Input Valve Controller" Element.Application_component
          ~props:(typed "controller"))
  |> Model.add_element
       (el "out_valve_ctrl" "Output Valve Controller" Element.Application_component
          ~props:(typed "controller"))
  |> Model.add_element (el "hmi" "HMI" Element.Device ~props:(typed "hmi"))
  |> Model.add_element
       (el "ews" "Engineering Workstation" Element.Node
          ~props:(typed "workstation"))
  |> Model.add_element (el "operator" "Operator" Element.Business_actor)
  (* signal flow: sensor -> controller -> valve controllers -> valves -> tank *)
  |> Model.add_relationship (rel "f1" "wls" "ctrl" Relationship.Flow)
  |> Model.add_relationship (rel "f2" "ctrl" "in_valve_ctrl" Relationship.Flow)
  |> Model.add_relationship (rel "f3" "ctrl" "out_valve_ctrl" Relationship.Flow)
  |> Model.add_relationship (rel "f4" "in_valve_ctrl" "in_valve" Relationship.Flow)
  |> Model.add_relationship (rel "f5" "out_valve_ctrl" "out_valve" Relationship.Flow)
  |> Model.add_relationship (rel "f6" "in_valve" "tank" Relationship.Flow)
  |> Model.add_relationship (rel "f7" "out_valve" "tank" Relationship.Flow)
  |> Model.add_relationship (rel "f8" "tank" "wls" Relationship.Association)
  |> Model.add_relationship (rel "f9" "ctrl" "hmi" Relationship.Flow)
  |> Model.add_relationship (rel "f10" "hmi" "operator" Relationship.Serving)
  (* the IT extension: engineering workstation can reconfigure the valves *)
  |> Model.add_relationship (rel "f11" "ews" "in_valve_ctrl" Relationship.Flow)
  |> Model.add_relationship (rel "f12" "ews" "out_valve_ctrl" Relationship.Flow)
  |> Model.add_relationship (rel "f13" "ews" "hmi" Relationship.Flow)

let refined_model =
  let refinement =
    {
      Cegar.Refine.target = "ews";
      parts =
        [
          el "email" "E-mail Client" Archimate.Element.Application_component
            ~props:[ ("component_type", "email_client") ];
          el "browser" "Browser" Archimate.Element.Application_component
            ~props:[ ("component_type", "browser") ];
          el "infected" "Infected Computer" Archimate.Element.Node
            ~props:[ ("component_type", "workstation") ];
        ];
      internal_flows = [ ("email", "browser"); ("browser", "infected") ];
    }
  in
  let m = Cegar.Refine.apply model refinement in
  (* attach the mitigations to the refined aspects (Fig. 4 bottom) *)
  let open Archimate in
  m
  |> Model.add_element
       (el "m1" "User Training" Element.Business_process
          ~props:[ ("mitigation", "M1"); ("cost", "2") ])
  |> Model.add_element
       (el "m2" "Endpoint Security" Element.System_software
          ~props:[ ("mitigation", "M2"); ("cost", "5") ])
  |> Model.add_relationship (rel "mr1" "m1" "email" Relationship.Association)
  |> Model.add_relationship (rel "mr2" "m2" "browser" Relationship.Association)

let topology =
  Epa.Propagation.make_network
    ~components:
      [
        "wls"; "ctrl"; "in_valve_ctrl"; "out_valve_ctrl"; "in_valve";
        "out_valve"; "tank"; "hmi"; "ews";
      ]
    ~edges:
      [
        ("wls", "ctrl"); ("ctrl", "in_valve_ctrl"); ("ctrl", "out_valve_ctrl");
        ("in_valve_ctrl", "in_valve"); ("out_valve_ctrl", "out_valve");
        ("in_valve", "tank"); ("out_valve", "tank"); ("ctrl", "hmi");
        ("ews", "in_valve_ctrl"); ("ews", "out_valve_ctrl"); ("ews", "hmi");
      ]
    ()

(* ------------------------------------------------------------------ *)
(* Faults, mitigations, requirements (§VII)                             *)
(* ------------------------------------------------------------------ *)

let faults =
  [
    Epa.Fault.make ~id:"F1" ~component:"in_valve"
      ~mode:(Epa.Fault.Stuck_at "open")
      ~description:"Input valve stuck-at-open" ();
    Epa.Fault.make ~id:"F2" ~component:"out_valve"
      ~mode:(Epa.Fault.Stuck_at "closed")
      ~description:"Output valve stuck-at-closed" ();
    Epa.Fault.make ~id:"F3" ~component:"hmi" ~mode:Epa.Fault.Omission
      ~description:"HMI delivers no signal" ();
    Epa.Fault.make ~id:"F4" ~component:"ews" ~mode:Epa.Fault.Compromise
      ~description:"Infected engineering workstation reconfigures actuators"
      ~induces:[ "F1"; "F2"; "F3" ] ();
  ]

(* M1/M2 are the paper's; M3–M5 extend the catalog so the cost-benefit
   optimization of §IV.D has a non-trivial trade-off space. *)
let mitigations =
  [
    Mitigation.Action.make ~id:"M1" ~name:"User Training" ~cost:2
      ~blocks:[ "F4" ];
    Mitigation.Action.make ~id:"M2" ~name:"Endpoint Security" ~cost:5
      ~blocks:[ "F4" ];
    Mitigation.Action.make ~id:"M3" ~name:"Out-of-Band Alarm Channel" ~cost:4
      ~blocks:[ "F3" ];
    Mitigation.Action.make ~id:"M4" ~name:"Redundant Output Valve" ~cost:7
      ~blocks:[ "F2" ];
    Mitigation.Action.make ~id:"M5" ~name:"Input Valve Interlock" ~cost:6
      ~blocks:[ "F1" ];
  ]

let blocks = Mitigation.Action.blocks_relation mitigations

let requirement_weights = [ ("R1", 3); ("R2", 1) ]

let requirements =
  [
    Epa.Requirement.make ~id:"R1"
      ~description:"the water tank should not overflow"
      ~formula:"G !level=overflow";
    Epa.Requirement.make ~id:"R2"
      ~description:"an alert is sent to the operator in case of overflow"
      ~formula:"G (level=overflow -> F alert)";
  ]

(* ------------------------------------------------------------------ *)
(* Dynamics backend                                                     *)
(* ------------------------------------------------------------------ *)

let levels = [| "low"; "normal"; "high"; "overflow" |]

let level_index l =
  let rec go i = if levels.(i) = l then i else go (i + 1) in
  go 0

let build_dynamics ~faults:active =
  let f1 = List.mem "F1" active
  and f2 = List.mem "F2" active
  and f3 = List.mem "F3" active
  and f4 = List.mem "F4" active in
  let init =
    Qual.Qstate.of_list
      [
        ("level", "low"); ("in_valve", "open"); ("out_valve", "closed");
        ("cmd_in", "open"); ("cmd_out", "closed"); ("alert", "false");
        ("ews", if f4 then "compromised" else "ok");
      ]
  in
  let step s =
    let level = Qual.Qstate.get "level" s in
    let li = level_index level in
    let flow b = if b then 1 else 0 in
    let d =
      flow (Qual.Qstate.holds "in_valve" "open" s)
      - flow (Qual.Qstate.holds "out_valve" "open" s)
    in
    (* overflow is absorbing; otherwise qualitative integration, clamped *)
    let li' = if li = 3 then 3 else max 0 (min 3 (li + d)) in
    let level' = levels.(li') in
    (* valve positions realize the previous command, unless stuck *)
    let in_valve' = if f1 then "open" else Qual.Qstate.get "cmd_in" s in
    let out_valve' = if f2 then "closed" else Qual.Qstate.get "cmd_out" s in
    (* controller issues commands from the freshly sensed level; they take
       effect one step later (sensing/actuation delay) *)
    let cmd_in' = if li' >= 2 then "closed" else "open" in
    let cmd_out' = if li' >= 1 then "open" else "closed" in
    (* HMI alert latches, unless the HMI delivers no signal (F3) *)
    let alert' =
      if level' = "overflow" && not f3 then "true" else Qual.Qstate.get "alert" s
    in
    Qual.Qstate.of_list
      [
        ("level", level'); ("in_valve", in_valve'); ("out_valve", out_valve');
        ("cmd_in", cmd_in'); ("cmd_out", cmd_out'); ("alert", alert');
        ("ews", Qual.Qstate.get "ews" s);
      ]
  in
  Epa.Dynamics.to_ts (Epa.Dynamics.make ~init ~step)

let system =
  {
    Epa.Analysis.catalog = faults;
    blocks;
    build = build_dynamics;
    requirements;
  }

let build_dynamics_uncertain ~faults:active =
  let f1 = List.mem "F1" active
  and f2 = List.mem "F2" active
  and f3 = List.mem "F3" active
  and f4 = List.mem "F4" active in
  let init =
    Qual.Qstate.of_list
      [
        ("level", "low"); ("in_valve", "open"); ("out_valve", "closed");
        ("cmd_in", "open"); ("cmd_out", "closed"); ("alert", "false");
        ("ews", if f4 then "compromised" else "ok");
      ]
  in
  let step s =
    let level = Qual.Qstate.get "level" s in
    let li = level_index level in
    let flow b = if b then 1 else 0 in
    let d =
      flow (Qual.Qstate.holds "in_valve" "open" s)
      - flow (Qual.Qstate.holds "out_valve" "open" s)
    in
    (* balanced flows: qualitatively ambiguous — the level may drift *)
    let deltas = if d = 0 then [ -1; 0; 1 ] else [ d ] in
    let successor_levels =
      if li = 3 then [ 3 ]
      else List.sort_uniq compare (List.map (fun d -> max 0 (min 3 (li + d))) deltas)
    in
    List.map
      (fun li' ->
        let level' = levels.(li') in
        let in_valve' = if f1 then "open" else Qual.Qstate.get "cmd_in" s in
        let out_valve' = if f2 then "closed" else Qual.Qstate.get "cmd_out" s in
        let cmd_in' = if li' >= 2 then "closed" else "open" in
        let cmd_out' = if li' >= 1 then "open" else "closed" in
        let alert' =
          if level' = "overflow" && not f3 then "true"
          else Qual.Qstate.get "alert" s
        in
        Qual.Qstate.of_list
          [
            ("level", level'); ("in_valve", in_valve');
            ("out_valve", out_valve'); ("cmd_in", cmd_in');
            ("cmd_out", cmd_out'); ("alert", alert');
            ("ews", Qual.Qstate.get "ews" s);
          ])
      successor_levels
  in
  Epa.Dynamics.to_ts (Epa.Dynamics.make_nondet ~init:[ init ] ~step)

let uncertain_system = { system with Epa.Analysis.build = build_dynamics_uncertain }

(* ------------------------------------------------------------------ *)
(* Table II scenarios                                                   *)
(* ------------------------------------------------------------------ *)

let both = [ "M1"; "M2" ]

let paper_scenarios =
  [
    ("S1", Epa.Scenario.make ~mitigations:both []);
    ("S2", Epa.Scenario.make [ "F4" ]);
    ("S3", Epa.Scenario.make ~mitigations:both [ "F1" ]);
    ("S4", Epa.Scenario.make ~mitigations:both [ "F2" ]);
    ("S5", Epa.Scenario.make ~mitigations:both [ "F2"; "F3" ]);
    ("S6", Epa.Scenario.make ~mitigations:both [ "F1"; "F3" ]);
    ("S7", Epa.Scenario.make ~mitigations:both [ "F1"; "F2"; "F3" ]);
  ]

let scope_or_own = function
  | Some scope -> scope
  | None -> Epa.Analysis.scope system

let table_ii_rows ?scope () =
  let scope = scope_or_own scope in
  List.map
    (fun (label, scenario) -> (label, Epa.Analysis.evaluate scope scenario))
    paper_scenarios

let full_sweep ?scope ?mitigations () =
  Epa.Analysis.sweep ?mitigations (scope_or_own scope)

(* ------------------------------------------------------------------ *)
(* ASP backend                                                          *)
(* ------------------------------------------------------------------ *)

let static_rules =
  {|
% --- fault activation (Listing 1 semantics) -------------------------
blocked(F) :- mitigation(F, M), active_mitigation(C, M), fault_on(F, C).
potential_fault(C, F) :- component(C), fault_on(F, C), not blocked(F).
active_fault(C, F) :- potential_fault(C, F), activated(F).
active_fault(C2, F2) :- active_fault(C, F), induces(F, F2), fault_on(F2, C2),
                        not blocked(F2).
active(F) :- active_fault(C, F).

% --- quantity space of the tank level --------------------------------
level_val(low, 0). level_val(normal, 1). level_val(high, 2).
level_val(overflow, 3).

% --- initial state ----------------------------------------------------
holds(level, low, 0).
holds(in_valve, open, 0).
holds(out_valve, closed, 0).
holds(cmd_in, open, 0).
holds(cmd_out, closed, 0).

% --- conservation-law flow balance ------------------------------------
flow_in(T, 1) :- step(T), holds(in_valve, open, T).
flow_in(T, 0) :- step(T), holds(in_valve, closed, T).
flow_out(T, 1) :- step(T), holds(out_valve, open, T).
flow_out(T, 0) :- step(T), holds(out_valve, closed, T).

% --- level update: overflow absorbs (a Listing-2 style stuck rule) ----
holds(level, overflow, S) :- step(T), S = T + 1, holds(level, overflow, T).
holds(level, L2, S) :- step(T), S = T + 1, holds(level, L, T),
                       level_val(L, V), V < 3,
                       flow_in(T, I), flow_out(T, O),
                       N = max(0, min(V + I - O, 3)), level_val(L2, N).

% --- valves realize last command unless a stuck-at fault is active ----
holds(in_valve, open, S) :- step(T), S = T + 1, active(f1).
holds(in_valve, P, S) :- step(T), S = T + 1, holds(cmd_in, P, T), not active(f1).
holds(out_valve, closed, S) :- step(T), S = T + 1, active(f2).
holds(out_valve, P, S) :- step(T), S = T + 1, holds(cmd_out, P, T), not active(f2).

% --- controller: one-step sensing/actuation delay ----------------------
holds(cmd_in, closed, T) :- time(T), T > 0, holds(level, L, T),
                            level_val(L, V), V >= 2.
holds(cmd_in, open, T) :- time(T), T > 0, holds(level, L, T),
                          level_val(L, V), V < 2.
holds(cmd_out, open, T) :- time(T), T > 0, holds(level, L, T),
                           level_val(L, V), V >= 1.
holds(cmd_out, closed, T) :- time(T), T > 0, holds(level, L, T),
                             level_val(L, V), V < 1.

% --- HMI alert: latched, suppressed by the no-signal fault -------------
alert(T) :- time(T), holds(level, overflow, T), not active(f3).
alert(S) :- step(T), S = T + 1, alert(T).
|}

(* The requirement checks are not hand-written: each LTLf requirement
   formula is compiled into ASP rules by the Telingo layer, over the same
   trace vocabulary the dynamics rules produce ([holds/3] plus the
   [alert/1] latch). *)
let requirement_rules ~horizon =
  let encode atom time_term =
    if atom = "alert" then Asp.Lit.Pos (Asp.Atom.make "alert" [ time_term ])
    else Telingo.Compile.default_encoding atom time_term
  in
  List.fold_left
    (fun acc (r : Epa.Requirement.t) ->
      let prefix = String.lowercase_ascii r.Epa.Requirement.id ^ "_" in
      let rules, root =
        Telingo.Compile.formula ~prefix ~encode ~horizon r.Epa.Requirement.formula
      in
      let rules =
        Asp.Program.add
          (Telingo.Compile.violated_rule ~requirement:r.Epa.Requirement.id ~root)
          rules
      in
      Asp.Program.append acc rules)
    Asp.Program.empty requirements

(* Scenario-independent catalog facts, part of the shared sweep base. *)
let catalog_facts =
  "component(in_valve). component(out_valve). component(hmi). component(ews).\n\
   fault(f1). fault(f2). fault(f3). fault(f4).\n\
   fault_on(f1, in_valve). fault_on(f2, out_valve). fault_on(f3, hmi). \
   fault_on(f4, ews).\n\
   induces(f4, f1). induces(f4, f2). induces(f4, f3).\n\
   mitigation(f4, m1). mitigation(f4, m2).\n\
   mitigation(f3, m3). mitigation(f2, m4). mitigation(f1, m5).\n"

let default_horizon = 12

let asp_base ?(horizon = default_horizon) () =
  let src =
    Printf.sprintf "time(0..%d).\nstep(0..%d).\n%s\n%s" horizon (horizon - 1)
      catalog_facts static_rules
  in
  Asp.Program.append (Asp.Parser.parse_program src) (requirement_rules ~horizon)

(* ids may come from a user's mutations file: sanitized like the topology
   backend's, any id compiles to a constant (an unknown one activates
   nothing); the facts are built as terms, not printed and parsed *)
let asp_activation_facts (scenario : Epa.Scenario.t) =
  let open Archimate.To_asp in
  let mitigation_site = function
    | "m1" | "m2" -> "ews"
    | "m3" -> "hmi"
    | "m4" -> "out_valve"
    | "m5" -> "in_valve"
    | other -> other
  in
  let active_mitigation m =
    let m = sanitize m in
    fact "active_mitigation"
      [ Asp.Term.const (mitigation_site m); Asp.Term.const m ]
  in
  Asp.Program.of_rules
    (List.map
       (fun f -> fact "activated" [ const f ])
       scenario.Epa.Scenario.faults
    @ List.map active_mitigation scenario.Epa.Scenario.mitigations)

let asp_program ?horizon ~scenario () =
  Asp.Program.append (asp_base ?horizon ()) (asp_activation_facts scenario)

let asp_verdicts ?horizon ~scenario () =
  let program = asp_program ?horizon ~scenario () in
  match Asp.Solver.solve (Asp.Grounder.ground program) with
  | [ m ] ->
      List.map
        (fun (r : Epa.Requirement.t) ->
          let atom =
            Asp.Atom.make "violated"
              [ Asp.Term.const (String.lowercase_ascii r.Epa.Requirement.id) ]
          in
          (r.Epa.Requirement.id, Asp.Model.holds m atom))
        requirements
  | models ->
      invalid_arg
        (Printf.sprintf
           "Water_tank.asp_verdicts: expected a unique stable model, got %d"
           (List.length models))

(* ------------------------------------------------------------------ *)
(* Most-critical-consequence search (§II.C cost metrics)                *)
(* ------------------------------------------------------------------ *)

let asp_critical_scenario ?(horizon = 12) ?(mitigations = []) () =
  (* start from the single-scenario program with no activations, then let
     the solver choose them under the severity cost metrics *)
  let scenario = Epa.Scenario.make ~mitigations [] in
  let base = asp_program ~horizon ~scenario () in
  let search =
    Asp.Parser.parse_program
      "{ activated(F) : fault(F) }.\n\
       % combinations of many simultaneous faults are implausible (§VII)\n\
       :- #count { F : activated(F) } > 3.\n\
       penalty(r1, 3). penalty(r2, 1).\n\
       :~ activated(F). [1@1, F]\n\
       :~ violated(R), penalty(R, W). [-W@2, R]"
  in
  match
    Asp.Solver.solve_optimal (Asp.Grounder.ground (Asp.Program.append base search))
  with
  | [] -> invalid_arg "Water_tank.asp_critical_scenario: unsatisfiable"
  | m :: _ ->
      let consts pred =
        Asp.Model.by_predicate m pred
        |> List.filter_map (fun (a : Asp.Atom.t) ->
               match a.Asp.Atom.args with
               | [ { Asp.Term.node = Asp.Term.Const c; _ } ] -> Some (String.uppercase_ascii c)
               | _ -> None)
        |> List.sort String.compare
      in
      (consts "activated", consts "violated")

(* ------------------------------------------------------------------ *)
(* Joint mitigation-optimization program (§IV.C–D)                      *)
(* ------------------------------------------------------------------ *)

(* The same dynamics as [static_rules], parametrized by a scenario S so
   that all fault combinations live in one program; fault activation is
   driven by the chosen/1 mitigation choice through Listing-1 blocking. *)
let joint_rules =
  {|
% --- mitigation selection (the solution space of §IV.C) --------------
{ chosen(M) : mitigation_action(M) }.
blocked(F) :- chosen(M), mblocks(M, F).

% --- per-scenario fault activation (Listing 1) ------------------------
active(S, F) :- scenario(S), scenario_activates(S, F), not blocked(F).
active(S, F2) :- active(S, F), induces(F, F2), not blocked(F2).

level_val(low, 0). level_val(normal, 1). level_val(high, 2).
level_val(overflow, 3).

holds(S, level, low, 0) :- scenario(S).
holds(S, in_valve, open, 0) :- scenario(S).
holds(S, out_valve, closed, 0) :- scenario(S).
holds(S, cmd_in, open, 0) :- scenario(S).
holds(S, cmd_out, closed, 0) :- scenario(S).

flow_in(S, T, 1) :- step(T), holds(S, in_valve, open, T).
flow_in(S, T, 0) :- step(T), holds(S, in_valve, closed, T).
flow_out(S, T, 1) :- step(T), holds(S, out_valve, open, T).
flow_out(S, T, 0) :- step(T), holds(S, out_valve, closed, T).

holds(S, level, overflow, U) :- step(T), U = T + 1, holds(S, level, overflow, T).
holds(S, level, L2, U) :- step(T), U = T + 1, holds(S, level, L, T),
                          level_val(L, V), V < 3,
                          flow_in(S, T, I), flow_out(S, T, O),
                          N = max(0, min(V + I - O, 3)), level_val(L2, N).

holds(S, in_valve, open, U) :- step(T), U = T + 1, active(S, f1).
holds(S, in_valve, P, U) :- step(T), U = T + 1, holds(S, cmd_in, P, T),
                            not active(S, f1).
holds(S, out_valve, closed, U) :- step(T), U = T + 1, active(S, f2).
holds(S, out_valve, P, U) :- step(T), U = T + 1, holds(S, cmd_out, P, T),
                             not active(S, f2).

holds(S, cmd_in, closed, T) :- time(T), T > 0, holds(S, level, L, T),
                               level_val(L, V), V >= 2.
holds(S, cmd_in, open, T) :- time(T), T > 0, holds(S, level, L, T),
                             level_val(L, V), V < 2.
holds(S, cmd_out, open, T) :- time(T), T > 0, holds(S, level, L, T),
                              level_val(L, V), V >= 1.
holds(S, cmd_out, closed, T) :- time(T), T > 0, holds(S, level, L, T),
                                level_val(L, V), V < 1.

alert(S, T) :- time(T), holds(S, level, overflow, T), not active(S, f3).
alert(S, U) :- step(T), U = T + 1, alert(S, T).

% --- cost model (§IV.D) ------------------------------------------------
penalty(r1, 3). penalty(r2, 1).
:~ violated(S, R), penalty(R, W). [W@2, S, R]
:~ chosen(M), mcost(M, C). [C@1, M]
|}

let scenario_id faults_subset =
  if faults_subset = [] then "s_none"
  else "s_" ^ String.concat "_" (List.map String.lowercase_ascii faults_subset)

let joint_facts () =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "induces(f4, f1). induces(f4, f2). induces(f4, f3).\n";
  List.iter
    (fun (a : Mitigation.Action.t) ->
      let id = String.lowercase_ascii a.Mitigation.Action.id in
      Buffer.add_string buf (Printf.sprintf "mitigation_action(%s).\n" id);
      Buffer.add_string buf
        (Printf.sprintf "mcost(%s, %d).\n" id a.Mitigation.Action.cost);
      List.iter
        (fun f ->
          Buffer.add_string buf
            (Printf.sprintf "mblocks(%s, %s).\n" id (String.lowercase_ascii f)))
        a.Mitigation.Action.blocks)
    mitigations;
  List.iter
    (fun scenario ->
      let sid = scenario_id scenario.Epa.Scenario.faults in
      Buffer.add_string buf (Printf.sprintf "scenario(%s).\n" sid);
      List.iter
        (fun f ->
          Buffer.add_string buf
            (Printf.sprintf "scenario_activates(%s, %s).\n" sid
               (String.lowercase_ascii f)))
        scenario.Epa.Scenario.faults)
    (Epa.Scenario.all_combinations faults);
  Buffer.contents buf

let joint_requirement_rules ~horizon =
  let svar = Asp.Term.var "S" in
  let context =
    {
      Telingo.Compile.params = [ svar ];
      guards = [ Asp.Lit.Pos (Asp.Atom.make "scenario" [ svar ]) ];
    }
  in
  let encode atom time_term =
    if atom = "alert" then
      Asp.Lit.Pos (Asp.Atom.make "alert" [ svar; time_term ])
    else
      match Telingo.Compile.default_encoding atom time_term with
      | Asp.Lit.Pos a -> Asp.Lit.Pos { a with Asp.Atom.args = svar :: a.Asp.Atom.args }
      | other -> other
  in
  List.fold_left
    (fun acc (r : Epa.Requirement.t) ->
      let rid = String.lowercase_ascii r.Epa.Requirement.id in
      let prefix = "j" ^ rid ^ "_" in
      let rules, root =
        Telingo.Compile.formula ~prefix ~encode ~context ~horizon
          r.Epa.Requirement.formula
      in
      let violated =
        Asp.Rule.rule
          (Asp.Atom.make "violated" [ svar; Asp.Term.const rid ])
          [ Asp.Lit.Pos (Asp.Atom.make "scenario" [ svar ]); Asp.Lit.Neg root ]
      in
      Asp.Program.append acc (Asp.Program.add violated rules))
    Asp.Program.empty requirements

let asp_mitigation_program ?(horizon = 10) ?budget () =
  let budget_rule =
    match budget with
    | None -> ""
    | Some b ->
        Printf.sprintf ":- #sum { C, M : chosen(M), mcost(M, C) } > %d.\n" b
  in
  let src =
    Printf.sprintf "time(0..%d).\nstep(0..%d).\n%s\n%s\n%s" horizon
      (horizon - 1) (joint_facts ()) budget_rule joint_rules
  in
  Asp.Program.append (Asp.Parser.parse_program src)
    (joint_requirement_rules ~horizon)

let asp_optimal_mitigations ?horizon ?budget () =
  let ground = Asp.Grounder.ground (asp_mitigation_program ?horizon ?budget ()) in
  match Asp.Solver.solve_optimal ground with
  | [] -> invalid_arg "Water_tank.asp_optimal_mitigations: unsatisfiable"
  | m :: _ ->
      let selected =
        Asp.Model.by_predicate m "chosen"
        |> List.filter_map (fun (a : Asp.Atom.t) ->
               match a.Asp.Atom.args with
               | [ { Asp.Term.node = Asp.Term.Const mid; _ } ] -> Some (String.uppercase_ascii mid)
               | _ -> None)
        |> List.sort String.compare
      in
      let residual =
        match List.assoc_opt 2 (Asp.Model.cost m) with
        | Some w -> w
        | None -> 0
      in
      (selected, residual)

(* ------------------------------------------------------------------ *)
(* Optimization objective (§IV.D)                                       *)
(* ------------------------------------------------------------------ *)

let residual_loss ~active =
  Epa.Analysis.loss ~weights:requirement_weights (Epa.Analysis.scope system)
    ~active

let optimization_problem () =
  {
    Mitigation.Optimizer.actions = mitigations;
    residual =
      Epa.Analysis.loss ~weights:requirement_weights (Epa.Analysis.scope system);
  }
