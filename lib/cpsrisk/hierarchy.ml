let default_levels = 6
let default_entries = 9

(* ------------------------------------------------------------------ *)
(* Refinement side: attacker routing through a layered zone chain      *)
(* ------------------------------------------------------------------ *)

let entry_fault i = Printf.sprintf "E%d" i
let entry_const i = Printf.sprintf "e%d" i

let spurious_entries ~levels = List.init levels (fun k -> entry_fault (k + 1))

(* Topology facts: per-entry gateways into the zone chain, dead-end
   decoys off every zone, and skip edges off the odd zones so surviving
   hypotheses admit several routes. *)
let refine_topology ~levels ~entries =
  let b = Buffer.create 1024 in
  let edge s t = Buffer.add_string b (Printf.sprintf "flow(%s, %s).\n" s t) in
  for i = 1 to entries do
    edge (entry_const i) (Printf.sprintf "gw%d" i);
    edge (Printf.sprintf "gw%d" i) "z1"
  done;
  for k = 1 to levels - 1 do
    edge (Printf.sprintf "z%d" k) (Printf.sprintf "z%d" (k + 1))
  done;
  edge (Printf.sprintf "z%d" levels) "core";
  edge "core" "plant";
  for k = 1 to levels do
    edge (Printf.sprintf "z%d" k) (Printf.sprintf "d%d" k)
  done;
  let k = ref 1 in
  while !k + 2 <= levels do
    edge (Printf.sprintf "z%d" !k) (Printf.sprintf "z%d" (!k + 2));
    k := !k + 2
  done;
  Buffer.add_string b "critical(plant).\n";
  Buffer.contents b

let routing_rules =
  {|
reach(E) :- entry(E).
reach(T) :- reach(S), flow(S, T), not blocked(S, T).
hazard :- reach(N), critical(N).
:- not hazard.
|}

(* Level k reveals zone k's discovered structure: the firewall on
   gateway k (killing entry hypothesis k) and the closed decoy. *)
let level_structure k =
  Asp.Parser.parse_program
    (Printf.sprintf "blocked(gw%d, z1).\nblocked(z%d, d%d).\n" k k k)

let candidate_entry (d : Engine.Delta.t) =
  match d.Engine.Delta.faults with
  | [ f ] -> String.lowercase_ascii f
  | _ ->
      invalid_arg "Hierarchy.refine_spec: candidates carry one entry fault"

(* [mode] is accepted and ignored: both values build this one spec (see
   hierarchy.mli) *)
let refine_spec ?(levels = default_levels) ?(entries = default_entries)
    ?mode:(_ : [ `Assume | `Increment ] option) () =
  if levels < 1 || levels >= entries then
    invalid_arg "Hierarchy.refine_spec: need 1 <= levels < entries";
  {
    Cegar.Inc.base =
      Asp.Parser.parse_program
        (refine_topology ~levels ~entries ^ routing_rules);
    levels =
      List.init levels (fun k ->
          {
            Cegar.Inc.l_label = Printf.sprintf "zone-%d" (k + 1);
            l_structure = level_structure (k + 1);
          });
    candidates =
      List.init entries (fun i ->
          Engine.Delta.make ~label:(entry_fault (i + 1))
            [ entry_fault (i + 1) ]);
    increment =
      (fun c ->
        Asp.Program.of_rules
          [
            Asp.Rule.fact
              (Asp.Atom.make "entry" [ Asp.Term.const (candidate_entry c) ]);
          ]);
    keep = (fun models -> models <> []);
    (* survival is satisfiability: the hazard model, if there is one *)
    limit = Some 1;
    max_atoms = 16384;
  }

(* ------------------------------------------------------------------ *)
(* Frontier side: deterministic propagation through a layered plant    *)
(* ------------------------------------------------------------------ *)

let plant_layers = 4
let plant_width = 3

let node k j = Printf.sprintf "a%d_%d" k j
let sink j = Printf.sprintf "t%d" j
let action_id i = Printf.sprintf "MS%d" i
let action_const i = Printf.sprintf "ms%d" i

(* weight of each asset in the residual measure; inner nodes count 1,
   the sinks and the plant carry the severity mass *)
let weights =
  List.concat
    [
      List.concat
        (List.init plant_layers (fun k ->
             List.init plant_width (fun j -> (node (k + 1) (j + 1), 1))));
      [ (sink 1, 4); (sink 2, 3); (sink 3, 2); ("plant", 8) ];
    ]

let frontier_actions =
  List.init (plant_layers * plant_width) (fun idx ->
      let i = idx + 1 in
      let k = (idx / plant_width) + 1 and j = (idx mod plant_width) + 1 in
      let shields =
        if k = plant_layers then [ node k j; sink j ] else [ node k j ]
      in
      Mitigation.Action.make ~id:(action_id i)
        ~name:(Printf.sprintf "Shield %s" (String.concat "+" shields))
        ~cost:(2 + (i * 3 mod 5))
        ~blocks:shields)

let frontier_base =
  let b = Buffer.create 1024 in
  let edge s t = Buffer.add_string b (Printf.sprintf "flow(%s, %s).\n" s t) in
  for j = 1 to plant_width do
    Buffer.add_string b (Printf.sprintf "injected(s%d).\n" j);
    edge (Printf.sprintf "s%d" j) (node 1 j)
  done;
  edge "s1" (node 1 2);
  for k = 1 to plant_layers - 1 do
    for j = 1 to plant_width do
      edge (node k j) (node (k + 1) j);
      edge (node k j) (node (k + 1) ((j mod plant_width) + 1))
    done
  done;
  for j = 1 to plant_width do
    edge (node plant_layers j) (sink j);
    edge (sink j) "plant"
  done;
  List.iteri
    (fun idx (a : Mitigation.Action.t) ->
      List.iter
        (fun c ->
          Buffer.add_string b
            (Printf.sprintf "protects(%s, %s).\n" (action_const (idx + 1)) c))
        a.Mitigation.Action.blocks)
    frontier_actions;
  Buffer.add_string b
    {|
shielded(C) :- active(M), protects(M, C).
error(C) :- injected(C), not shielded(C).
error(T) :- error(S), flow(S, T), not shielded(T).
|};
  Asp.Parser.parse_program (Buffer.contents b)

let frontier_compile (d : Engine.Delta.t) =
  let b = Buffer.create 64 in
  List.iter
    (fun m ->
      Buffer.add_string b
        (Printf.sprintf "active(%s).\n" (String.lowercase_ascii m)))
    d.Engine.Delta.mitigations;
  Asp.Parser.parse_program (Buffer.contents b)

let frontier_delta ~active = Engine.Delta.make ~mitigations:active []

(* The one predicate the residual reads: the spec shows it, so cached
   models hold nothing else. *)
let error_sig = ("error", 1)

let frontier_measure = function
  | [ m ] ->
      List.fold_left
        (fun acc (c, w) ->
          let erred = Asp.Atom.make (fst error_sig) [ Asp.Term.const c ] in
          if Asp.Model.holds m erred then acc + w else acc)
        0 weights
  | models ->
      invalid_arg
        (Printf.sprintf
           "Hierarchy.frontier_measure: expected a unique stable model, got %d"
           (List.length models))

let frontier_spec () =
  Engine.Job.spec ~compile:frontier_compile ~deltas:[]
    (Asp.Program.add_show error_sig frontier_base)

let frontier_of ?cache prepared =
  Mitigation.Frontier.make ?cache ~actions:frontier_actions
    ~delta:frontier_delta ~measure:frontier_measure prepared

let frontier ?cache () = frontier_of ?cache (Engine.Job.prepare (frontier_spec ()))
