let atoms ?(k = 3) (g : Ground.t) =
  let choice =
    List.concat_map
      (function
        | Ground.Gchoice { elems; _ } ->
            List.map (fun (e : Ground.gelem) -> e.Ground.gatom) elems
        | _ -> [])
      g.Ground.rules
  in
  let rec take n seen = function
    | a :: rest when n > 0 ->
        if Model.AtomSet.mem a seen then take n seen rest
        else a :: take (n - 1) (Model.AtomSet.add a seen) rest
    | _ -> []
  in
  take k Model.AtomSet.empty (choice @ Model.AtomSet.elements g.Ground.universe)

let sign_vectors atoms =
  List.init
    (1 lsl List.length atoms)
    (fun i -> List.mapi (fun b a -> (a, (i lsr b) land 1 = 1)) atoms)

let branches ?k g solve =
  List.concat_map (fun assumptions -> solve assumptions) (sign_vectors (atoms ?k g))

let enumerate ?k g =
  List.sort Model.compare
    (branches ?k g (fun assumptions -> Solver.solve ~assumptions g))

let optimal ?k g =
  let fronts =
    branches ?k g (fun assumptions -> Solver.solve_optimal ~assumptions g)
  in
  match fronts with
  | [] -> []
  | m :: rest ->
      let best =
        List.fold_left
          (fun b m ->
            let c = Model.cost m in
            if Model.compare_cost c b < 0 then c else b)
          (Model.cost m) rest
      in
      List.sort Model.compare
        (List.filter (fun m -> Model.compare_cost (Model.cost m) best = 0) fronts)
