type system = {
  catalog : Fault.t list;
  blocks : string -> string list;
  build : faults:string list -> Ltl.Ts.t;
  requirements : Requirement.t list;
}

type row = {
  scenario : Scenario.t;
  effective : string list;
  verdicts : (string * Requirement.verdict) list;
}

(* [build] sees only the effective faults, so the verdicts are a function
   of that (sorted, duplicate-free) list: one model check per distinct
   list, however many scenarios close onto it *)
type scope = {
  system : system;
  horizon : int option;
  memo : (string list, (string * Requirement.verdict) list) Hashtbl.t;
}

let scope ?horizon system = { system; horizon; memo = Hashtbl.create 16 }

let evaluate sc scenario =
  let sys = sc.system in
  let effective =
    Scenario.effective_faults ~catalog:sys.catalog ~blocks:sys.blocks scenario
  in
  let verdicts =
    match Hashtbl.find_opt sc.memo effective with
    | Some verdicts -> verdicts
    | None ->
        let ts = sys.build ~faults:effective in
        let verdicts =
          List.map
            (fun (r : Requirement.t) ->
              (r.Requirement.id, Requirement.check ?horizon:sc.horizon ts r))
            sys.requirements
        in
        Hashtbl.replace sc.memo effective verdicts;
        verdicts
  in
  { scenario; effective; verdicts }

let sweep ?max_faults ?mitigations sc =
  Scenario.all_combinations ?max_faults ?mitigations sc.system.catalog
  |> List.map (evaluate sc)

let run_scenario ?horizon sys scenario = evaluate (scope ?horizon sys) scenario

let run ?horizon ?max_faults ?mitigations sys =
  sweep ?max_faults ?mitigations (scope ?horizon sys)

let violations row =
  List.filter_map
    (fun (id, v) -> if Requirement.violated v then Some id else None)
    row.verdicts

let loss ~weights sc ~active =
  List.fold_left
    (fun acc row ->
      List.fold_left
        (fun acc id ->
          acc + Option.value ~default:0 (List.assoc_opt id weights))
        acc (violations row))
    0
    (sweep ~mitigations:active sc)

let hazardous rows = List.filter (fun r -> violations r <> []) rows

let most_severe rows =
  hazardous rows
  |> List.stable_sort (fun a b ->
         let c =
           Stdlib.compare (List.length (violations b)) (List.length (violations a))
         in
         if c <> 0 then c
         else
           (* rank by the number of simultaneously activated root faults:
              fewer simultaneous activations = higher occurrence
              probability = more severe (the paper's S5 vs S7 argument) *)
           Stdlib.compare
             (List.length a.scenario.Scenario.faults)
             (List.length b.scenario.Scenario.faults))

let pp_row ppf row =
  let verdicts =
    row.verdicts
    |> List.map (fun (id, v) ->
           Printf.sprintf "%s=%s" id
             (if Requirement.violated v then "violated" else "-"))
    |> String.concat " "
  in
  Format.fprintf ppf "%s effective={%s} %s" (Scenario.label row.scenario)
    (String.concat "," row.effective)
    verdicts
