let sanitize s =
  let s = String.lowercase_ascii s in
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_' then
        Buffer.add_char buf c
      else Buffer.add_char buf '_')
    s;
  let out = Buffer.contents buf in
  (* a leading digit or '_' would read as a number or a variable *)
  if out = "" then "x"
  else if out.[0] >= 'a' && out.[0] <= 'z' then out
  else "x" ^ out

let const s = Asp.Term.const (sanitize s)
let str s = Asp.Term.str s
let fact pred args = Asp.Rule.fact (Asp.Atom.make pred args)

let split_fault_modes s =
  String.split_on_char ',' s
  |> List.map String.trim
  |> List.filter (fun m -> m <> "")

let facts m =
  let element_facts (e : Element.t) =
    let id = const e.Element.id in
    [
      fact "component" [ id ];
      fact "element_kind" [ id; const (Element.kind_to_string e.Element.kind) ];
      fact "layer" [ id; const (Element.layer_to_string (Element.layer e)) ];
      fact "named" [ id; str e.Element.name ];
    ]
    @ List.concat_map
        (fun (k, v) ->
          let base = fact "property" [ id; const k; str v ] in
          if k = "fault_modes" then
            base
            :: List.map (fun mode -> fact "fault_mode" [ id; const mode ])
                 (split_fault_modes v)
          else [ base ])
        e.Element.properties
  in
  let relationship_facts (r : Relationship.t) =
    let src = const r.Relationship.source
    and tgt = const r.Relationship.target in
    let kind = const (Relationship.kind_to_string r.Relationship.kind) in
    let base = fact "rel" [ kind; src; tgt ] in
    match r.Relationship.kind with
    | Relationship.Flow -> [ base; fact "flow" [ src; tgt ] ]
    | Relationship.Composition | Relationship.Aggregation ->
        [ base; fact "part_of" [ tgt; src ] ]
    | Relationship.Assignment | Relationship.Realization | Relationship.Serving
    | Relationship.Access _ | Relationship.Triggering
    | Relationship.Association | Relationship.Specialization ->
        [ base ]
  in
  Asp.Program.of_rules
    (List.concat_map element_facts (Model.elements m)
    @ List.concat_map relationship_facts (Model.relationships m))
