(* Every input the program under test receives, generated from the seed.
   Each stream has its own salt, so sizing one does not reshuffle the
   others. *)

let rng seed salt = Random.State.make [| seed; salt |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let rec subsets = function
  | [] -> [ [] ]
  | x :: rest ->
      let s = subsets rest in
      s @ List.map (fun l -> x :: l) s

(* cli-sweep: every fault subset of F1-F4 under every mitigation subset
   of [mitigations], in seeded order; all distinct, so nothing is cached. *)
let sweep_scenarios ~seed ~mitigations =
  let a =
    Array.of_list
      (List.concat_map
         (fun faults ->
           List.map
             (fun ms -> Epa.Scenario.make ~mitigations:ms faults)
             (subsets mitigations))
         (subsets [ "F1"; "F2"; "F3"; "F4" ]))
  in
  shuffle (rng seed 0x5eed) a;
  Array.to_list a

let mutation_line (s : Epa.Scenario.t) =
  let ids = function [] -> "-" | l -> String.concat "," l in
  Printf.sprintf "%s / %s" (ids s.Epa.Scenario.faults)
    (ids s.Epa.Scenario.mitigations)

(* A synthetic plant for the serve workloads: [components] elements in
   layers of 20 (sensors feeding controllers feeding actuators, say), each
   element flowing into 2 of the next layer, the remaining edges random
   forward jumps; [edges] distinct flow edges in all. Layering keeps the
   reachable sets (the cost of one what-if) about the same from seed to
   seed; a uniform random graph's giant component does not. *)
type topology = { names : string array; succ : int list array; model_src : string }

let layer_width = 20

let topology ~seed ~components ~edges =
  let st = rng seed 0x70b0 in
  let names = Array.init components (Printf.sprintf "c%03d") in
  let succ = Array.make components [] in
  let buf = Buffer.create (64 * (components + edges)) in
  Buffer.add_string buf "model \"synthetic plant\"\n";
  Array.iteri
    (fun i id ->
      Printf.bprintf buf
        "element %s \"Component %d\" node { component_type = \"plc\" }\n" id i)
    names;
  let count = ref 0 in
  let add a b =
    if not (List.mem b succ.(a)) then begin
      succ.(a) <- b :: succ.(a);
      Printf.bprintf buf "relation f%d flow %s -> %s\n" !count names.(a) names.(b);
      incr count
    end
  in
  let layer c = c / layer_width in
  let next_layer_start c = (layer c + 1) * layer_width in
  for a = 0 to components - 1 do
    if next_layer_start a < components then
      while List.length succ.(a) < 2 do
        add a (next_layer_start a + Random.State.int st layer_width)
      done
  done;
  while !count < edges do
    let a = Random.State.int st components in
    if next_layer_start a < components then
      add a
        (next_layer_start a + Random.State.int st (components - next_layer_start a))
  done;
  { names; succ; model_src = Buffer.contents buf }

(* [size] what-ifs, each injecting 1-3 distinct components. *)
let universe ~seed ~size topo =
  let st = rng seed 0x0d1f in
  let n = Array.length topo.names in
  Array.init size (fun _ ->
      let k = 1 + Random.State.int st 3 in
      let rec pick acc =
        if List.length acc = k then List.sort compare acc
        else
          let c = Random.State.int st n in
          pick (if List.mem c acc then acc else c :: acc)
      in
      pick [])

let sweep_mutation topo comps =
  String.concat "," (List.map (fun c -> topo.names.(c)) comps)

(* The reference answer for a topology what-if: every component reachable
   from an injected one along flow edges (nothing is shielded). *)
let affected topo comps =
  let seen = Array.make (Array.length topo.names) false in
  let rec visit c =
    if not seen.(c) then begin
      seen.(c) <- true;
      List.iter visit topo.succ.(c)
    end
  in
  List.iter visit comps;
  List.filter_map
    (fun c -> if seen.(c) then Some topo.names.(c) else None)
    (List.init (Array.length topo.names) Fun.id)
