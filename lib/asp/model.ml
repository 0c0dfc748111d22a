module AtomSet = Set.Make (Atom)

type cost = (int * int) list
type t = { atoms : AtomSet.t; cost : cost }

let make ?(cost = []) atoms = { atoms; cost }
let atoms m = m.atoms
let to_list m = AtomSet.elements m.atoms
let holds m a = AtomSet.mem a m.atoms
let holds_pred m pred = AtomSet.exists (fun a -> a.Atom.pred = pred) m.atoms

let by_predicate m pred =
  AtomSet.elements (AtomSet.filter (fun a -> a.Atom.pred = pred) m.atoms)

let project sigs m =
  { m with atoms = AtomSet.filter (fun a -> List.mem (Atom.signature a) sigs) m.atoms }

let cost m = m.cost

let compare_cost a b =
  (* collect all priority levels, highest first *)
  let levels =
    List.sort_uniq (fun x y -> Stdlib.compare y x) (List.map fst a @ List.map fst b)
  in
  let weight c lvl = Option.value ~default:0 (List.assoc_opt lvl c) in
  let rec go = function
    | [] -> 0
    | lvl :: rest ->
        let c = Stdlib.compare (weight a lvl) (weight b lvl) in
        if c <> 0 then c else go rest
  in
  go levels

let rehydrate m =
  {
    m with
    atoms =
      AtomSet.fold (fun a acc -> AtomSet.add (Atom.rehydrate a) acc) m.atoms
        AtomSet.empty;
  }

let equal a b = AtomSet.equal a.atoms b.atoms

let compare a b =
  match AtomSet.compare a.atoms b.atoms with
  | 0 -> compare_cost a.cost b.cost
  | c -> c

let to_string m =
  let atoms = List.map Atom.to_string (to_list m) in
  let base = "{" ^ String.concat ", " atoms ^ "}" in
  match m.cost with
  | [] -> base
  | cost ->
      let cs =
        List.map (fun (p, w) -> Printf.sprintf "%d@%d" w p) cost
        |> String.concat ", "
      in
      Printf.sprintf "%s cost[%s]" base cs

let pp ppf m = Format.pp_print_string ppf (to_string m)
