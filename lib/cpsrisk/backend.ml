type t = Water_tank | Topology | Hierarchy

let name = function
  | Water_tank -> "water-tank"
  | Topology -> "topology"
  | Hierarchy -> "hierarchy"

let of_name s = List.find_opt (fun b -> name b = s) [ Water_tank; Topology; Hierarchy ]
let needs_model b = b = Topology

type target = {
  backend : t;
  spec : Engine.Job.spec;
  what_if : Engine.Delta.t list;
  frontier :
    (?cache:Mitigation.Frontier.value Engine.Cache.t ->
    Engine.Job.prepared ->
    Mitigation.Frontier.t)
    option;
  horizon : Sweeps.horizon option;
}

let target ?horizon ?model backend =
  match (backend, model) with
  | Water_tank, _ ->
      let spec, h = Sweeps.water_tank ?horizon [] in
      {
        backend;
        spec;
        what_if = Sweeps.all_fault_deltas Water_tank.faults;
        frontier = Some Pipeline.water_tank_frontier_of;
        horizon = Some h;
      }
  | Topology, Some m ->
      {
        backend;
        spec = Sweeps.topology_spec m [];
        what_if = Sweeps.model_element_deltas m;
        frontier = None;
        horizon = None;
      }
  | Topology, None -> invalid_arg "Backend.target: topology needs a system model"
  | Hierarchy, _ ->
      {
        backend;
        spec = Hierarchy.frontier_spec ();
        what_if = [];
        frontier = Some Hierarchy.frontier_of;
        horizon = None;
      }

type reading =
  | Verdicts of (string * bool) list
  | Affected of string list
  | Residual of int

let read backend (r : Engine.Job.result) =
  try
    Some
      (match backend with
      | Water_tank -> Verdicts (Sweeps.verdicts r)
      | Topology -> Affected (Sweeps.affected r)
      | Hierarchy -> Residual (Hierarchy.frontier_measure r.Engine.Job.models))
  with Invalid_argument _ -> None

let render_result ~label ~cached reading =
  Printf.sprintf "%-28s%s%s" label
    (match reading with
    | Some (Verdicts vs) ->
        " "
        ^ String.concat "  "
            (List.map
               (fun (req, v) ->
                 Printf.sprintf "%s=%s" req (if v then "Violated" else "-"))
               vs)
    | Some (Affected []) -> " -> (contained)"
    | Some (Affected cs) -> " -> " ^ String.concat ", " cs
    | Some (Residual _) | None -> "")
    (if cached then "  [cached]" else "")
