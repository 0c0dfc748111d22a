type gelem = { gatom : Atom.t; gpos : Atom.t list; gneg : Atom.t list }

type gcount_elem = { etuple : Term.t list; epos : Atom.t list; eneg : Atom.t list }

type gcount = {
  ckind : Lit.agg_kind;
  celems : gcount_elem list;
  cop : Lit.cmp;
  cbound : int;
}

type grule =
  | Gfact of Atom.t
  | Grule of {
      head : Atom.t;
      pos : Atom.t list;
      neg : Atom.t list;
      counts : gcount list;
    }
  | Gchoice of {
      lower : int option;
      upper : int option;
      elems : gelem list;
      pos : Atom.t list;
      neg : Atom.t list;
      counts : gcount list;
    }
  | Gconstraint of { pos : Atom.t list; neg : Atom.t list; counts : gcount list }
  | Gweak of {
      pos : Atom.t list;
      neg : Atom.t list;
      counts : gcount list;
      weight : int;
      priority : int;
      terms : Term.t list;
    }

type t = {
  rules : grule list;
  universe : Model.AtomSet.t;
  shows : (string * int) list;
}

let project g models =
  match g.shows with
  | [] -> models
  | shows -> List.map (Model.project shows) models

let rule_count g = List.length g.rules
let atom_count g = Model.AtomSet.cardinal g.universe

let equal a b =
  Model.AtomSet.equal a.universe b.universe
  && a.shows = b.shows
  && a.rules = b.rules

(* Structural hash/equality over ground rules built on the terms'
   precomputed hkeys and interned spines. The grounder's dedup tables
   probe these once per emitted instance; the polymorphic versions
   re-walk (and re-hash) whole rule structures on every probe. *)

let hash_fold h = List.fold_left (fun acc x -> (acc * 0x100000001b3) lxor h x)

let equal_atoms = List.equal Atom.equal
let hash_atoms seed l = hash_fold Atom.hash seed l
let equal_terms = List.equal Term.equal
let hash_terms seed l = hash_fold Term.hash seed l

let equal_elem a b =
  Atom.equal a.gatom b.gatom
  && equal_atoms a.gpos b.gpos
  && equal_atoms a.gneg b.gneg

let hash_elem e = hash_atoms (hash_atoms (Atom.hash e.gatom) e.gpos) e.gneg

let equal_celem a b =
  equal_terms a.etuple b.etuple
  && equal_atoms a.epos b.epos
  && equal_atoms a.eneg b.eneg

let hash_celem e = hash_atoms (hash_atoms (hash_terms 41 e.etuple) e.epos) e.eneg

let equal_count a b =
  a.ckind = b.ckind && a.cop = b.cop && a.cbound = b.cbound
  && List.equal equal_celem a.celems b.celems

let hash_count c =
  hash_fold hash_celem
    (Hashtbl.hash c.ckind lxor Hashtbl.hash c.cop lxor (c.cbound * 0x9e3779b9))
    c.celems

let equal_counts = List.equal equal_count
let hash_counts seed l = hash_fold hash_count seed l

let equal_rule a b =
  a == b
  ||
  match a, b with
  | Gfact x, Gfact y -> Atom.equal x y
  | Grule a, Grule b ->
      Atom.equal a.head b.head
      && equal_atoms a.pos b.pos
      && equal_atoms a.neg b.neg
      && equal_counts a.counts b.counts
  | Gchoice a, Gchoice b ->
      a.lower = b.lower && a.upper = b.upper
      && List.equal equal_elem a.elems b.elems
      && equal_atoms a.pos b.pos
      && equal_atoms a.neg b.neg
      && equal_counts a.counts b.counts
  | Gconstraint a, Gconstraint b ->
      equal_atoms a.pos b.pos
      && equal_atoms a.neg b.neg
      && equal_counts a.counts b.counts
  | Gweak a, Gweak b ->
      a.weight = b.weight && a.priority = b.priority
      && equal_terms a.terms b.terms
      && equal_atoms a.pos b.pos
      && equal_atoms a.neg b.neg
      && equal_counts a.counts b.counts
  | (Gfact _ | Grule _ | Gchoice _ | Gconstraint _ | Gweak _), _ -> false

let hash_rule = function
  | Gfact a -> Atom.hash a lxor 0x3
  | Grule { head; pos; neg; counts } ->
      hash_counts (hash_atoms (hash_atoms (Atom.hash head lxor 0x5) pos) neg) counts
  | Gchoice { lower; upper; elems; pos; neg; counts } ->
      hash_counts
        (hash_atoms
           (hash_atoms
              (hash_fold hash_elem
                 (Hashtbl.hash lower lxor Hashtbl.hash upper lxor 0x7)
                 elems)
              pos)
           neg)
        counts
  | Gconstraint { pos; neg; counts } ->
      hash_counts (hash_atoms (hash_atoms 0xB pos) neg) counts
  | Gweak { pos; neg; counts; weight; priority; terms } ->
      hash_counts
        (hash_atoms
           (hash_atoms
              (hash_terms ((weight * 0x9e3779b9) lxor priority lxor 0xD) terms)
              pos)
           neg)
        counts

let count_to_string c =
  let elem e =
    let tuple = String.concat "," (List.map Term.to_string e.etuple) in
    let body =
      List.map Atom.to_string e.epos
      @ List.map (fun a -> "not " ^ Atom.to_string a) e.eneg
    in
    match body with
    | [] -> tuple
    | body -> tuple ^ " : " ^ String.concat ", " body
  in
  let name =
    match c.ckind with Lit.Cardinality -> "#count" | Lit.Summation -> "#sum"
  in
  Printf.sprintf "%s { %s } %s %d" name
    (String.concat " ; " (List.map elem c.celems))
    (Lit.cmp_to_string c.cop) c.cbound

let body_to_string pos neg counts =
  String.concat ", "
    (List.map Atom.to_string pos
    @ List.map (fun a -> "not " ^ Atom.to_string a) neg
    @ List.map count_to_string counts)

let rule_to_string = function
  | Gfact a -> Atom.to_string a ^ "."
  | Grule { head; pos = []; neg = []; counts = [] } -> Atom.to_string head ^ "."
  | Grule { head; pos; neg; counts } ->
      Printf.sprintf "%s :- %s." (Atom.to_string head)
        (body_to_string pos neg counts)
  | Gconstraint { pos; neg; counts } ->
      Printf.sprintf ":- %s." (body_to_string pos neg counts)
  | Gchoice { lower; upper; elems; pos; neg; counts } ->
      let elem e =
        match e.gpos, e.gneg with
        | [], [] -> Atom.to_string e.gatom
        | gpos, gneg ->
            Printf.sprintf "%s : %s" (Atom.to_string e.gatom)
              (body_to_string gpos gneg [])
      in
      let inner = String.concat " ; " (List.map elem elems) in
      let lo = match lower with Some n -> string_of_int n ^ " " | None -> "" in
      let hi = match upper with Some n -> " " ^ string_of_int n | None -> "" in
      let head = Printf.sprintf "%s{ %s }%s" lo inner hi in
      if pos = [] && neg = [] && counts = [] then head ^ "."
      else Printf.sprintf "%s :- %s." head (body_to_string pos neg counts)
  | Gweak { pos; neg; counts; weight; priority; terms } ->
      let terms_str =
        match terms with
        | [] -> ""
        | ts -> ", " ^ String.concat "," (List.map Term.to_string ts)
      in
      Printf.sprintf ":~ %s. [%d@%d%s]"
        (body_to_string pos neg counts)
        weight priority terms_str

let pp_rule ppf r = Format.pp_print_string ppf (rule_to_string r)

let pp ppf g =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_newline ppf ())
    pp_rule ppf g.rules
