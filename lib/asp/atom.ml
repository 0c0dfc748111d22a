type t = { pred : string; args : Term.t list }

let make pred args = { pred = Term.intern_string pred; args }
let prop pred = { pred = Term.intern_string pred; args = [] }
let arity a = List.length a.args
let signature a = (a.pred, arity a)

let equal a b =
  a == b
  || String.equal a.pred b.pred
     && List.length a.args = List.length b.args
     && List.for_all2 Term.equal a.args b.args

let compare a b =
  if a == b then 0
  else
    let c = String.compare a.pred b.pred in
    if c <> 0 then c else List.compare Term.compare a.args b.args

(* folds the terms' precomputed hkeys: O(arity), deterministic *)
let hash a =
  List.fold_left
    (fun h t -> (h * 0x100000001b3) lxor Term.hash t)
    (Hashtbl.hash a.pred) a.args

let is_ground a = List.for_all Term.is_ground a.args

let vars a =
  let add acc v = if List.mem v acc then acc else v :: acc in
  List.rev
    (List.fold_left (fun acc t -> List.fold_left add acc (Term.vars t)) [] a.args)

let substitute s a =
  match a.args with
  | [] -> a
  | args -> { a with args = List.map (Term.substitute s) args }

let eval a =
  if List.for_all (fun (t : Term.t) -> t.Term.normal) a.args then a
  else { a with args = List.map Term.eval a.args }

let rehydrate a =
  { pred = Term.intern_string a.pred; args = List.map Term.rehydrate a.args }

let to_string a =
  match a.args with
  | [] -> a.pred
  | args ->
      Printf.sprintf "%s(%s)" a.pred
        (String.concat "," (List.map Term.to_string args))

let pp ppf a = Format.pp_print_string ppf (to_string a)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
