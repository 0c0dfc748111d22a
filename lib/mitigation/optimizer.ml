type problem = {
  actions : Action.t list;
  residual : active:string list -> int;
}

type solution = {
  selected : string list;
  cost : int;
  residual : int;
}

let evaluate p ids =
  let selected = List.sort_uniq String.compare ids in
  {
    selected;
    cost = Action.total_cost p.actions selected;
    residual = p.residual ~active:selected;
  }

(* Fold [f] over every subset within budget, inclusion-order DFS with
   cost pruning along the way (costs are non-negative). The fold
   evaluates and prunes in place: live memory is the O(actions) DFS
   spine, where the previous enumerator materialized every subset into a
   list before scoring — 2^20 cons cells at the 20-action catalog scale
   this search is documented for. *)
let fold_subsets_within_budget actions budget ~init ~f =
  let rec go remaining cost selected acc =
    match remaining with
    | [] -> f acc (List.rev selected) cost
    | (a : Action.t) :: rest ->
        let acc = go rest cost selected acc in
        let cost' = cost + a.Action.cost in
        if match budget with Some b -> cost' <= b | None -> true then
          go rest cost' (a.Action.id :: selected) acc
        else acc
  in
  go actions 0 [] init

let better a b =
  (* smaller residual, then cheaper, then lexicographically smaller *)
  let c = Stdlib.compare a.residual b.residual in
  if c <> 0 then c < 0
  else
    let c = Stdlib.compare a.cost b.cost in
    if c <> 0 then c < 0 else Stdlib.compare a.selected b.selected < 0

let optimal ?budget p =
  (* [better] is a strict total order (residual, cost, lex selection), so
     the running best is independent of enumeration order *)
  let best =
    fold_subsets_within_budget p.actions budget ~init:None
      ~f:(fun best ids _cost ->
        let s = evaluate p ids in
        match best with Some b when not (better s b) -> best | _ -> Some s)
  in
  match best with
  | None -> evaluate p [] (* budget < 0: only the empty selection *)
  | Some s -> s

let dominates a b =
  a.cost <= b.cost && a.residual <= b.residual
  && (a.cost < b.cost || a.residual < b.residual)

(* The running front, maintained in place while the subsets stream by:
   at most one representative per (cost, residual) point — the
   lexicographically smallest selection — and no dominated member.
   Order-independent, so it equals the collect-all-then-filter result
   without ever holding all 2^n solutions. *)
let insert_front front s =
  if List.exists (fun s' -> dominates s' s) front then front
  else
    let front = List.filter (fun s' -> not (dominates s s')) front in
    let equal_pt s' = s'.cost = s.cost && s'.residual = s.residual in
    match List.find_opt equal_pt front with
    | Some s' when Stdlib.compare s'.selected s.selected <= 0 -> front
    | Some _ -> s :: List.filter (fun s' -> not (equal_pt s')) front
    | None -> s :: front

let sort_front front =
  List.sort
    (fun a b ->
      let c = Stdlib.compare (a.cost, a.residual) (b.cost, b.residual) in
      if c <> 0 then c else Stdlib.compare a.selected b.selected)
    front

let pareto p =
  sort_front
    (fold_subsets_within_budget p.actions None ~init:[]
       ~f:(fun front ids _cost -> insert_front front (evaluate p ids)))

let budget_sweep p ~budgets =
  List.map (fun b -> (b, optimal ~budget:b p)) budgets

let multi_phase p ~phase_budgets =
  let rec go selected acc = function
    | [] -> List.rev acc
    | budget :: rest ->
        let remaining_actions =
          List.filter
            (fun (a : Action.t) -> not (List.mem a.Action.id selected))
            p.actions
        in
        let sub_problem =
          {
            actions = remaining_actions;
            residual =
              (fun ~active -> p.residual ~active:(active @ selected));
          }
        in
        let increment = optimal ~budget sub_problem in
        let selected =
          List.sort_uniq String.compare (increment.selected @ selected)
        in
        go selected (evaluate p selected :: acc) rest
  in
  go [] [] phase_budgets

let benefit (p : problem) s =
  let baseline = p.residual ~active:[] in
  baseline - s.residual

let pp_solution ppf s =
  Format.fprintf ppf "{%s} cost=%d residual=%d"
    (String.concat "," s.selected)
    s.cost s.residual
