(* Structural FNV-1a hashing of programs. Two independent 64-bit streams:
   [rules] folds the rule list in order, [shows] XORs per-directive hashes
   (order-insensitive, so [extend] distributes over Program.append, which
   concatenates both lists). *)

type t = { rules : int64; shows : int64 }

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

let fold_int h n =
  (* 8 bytes, little-endian, so nearby ints do not collide *)
  let rec go h i v =
    if i = 8 then h else go (byte h (v land 0xff)) (i + 1) (v asr 8)
  in
  go h 0 n

let fold_string h s =
  let h = fold_int h (String.length s) in
  String.fold_left (fun h c -> byte h (Char.code c)) h s

let fold_opt_int h = function
  | None -> byte h 0
  | Some n -> fold_int (byte h 1) n

(* Terms are hash-consed with a structural, process-independent key
   ({!Asp.Term.hash}): folding the precomputed key is O(1) per term and
   hashes the same content as the former deep traversal did (the key is
   itself an FNV fold of the node structure). *)
let fold_term h t = fold_int h (Asp.Term.hash t)

let fold_terms h ts = List.fold_left fold_term (fold_int h (List.length ts)) ts

let fold_atom h (a : Asp.Atom.t) =
  fold_terms (fold_string h a.Asp.Atom.pred) a.Asp.Atom.args

let cmp_tag = function
  | Asp.Lit.Eq -> 1
  | Asp.Lit.Ne -> 2
  | Asp.Lit.Lt -> 3
  | Asp.Lit.Le -> 4
  | Asp.Lit.Gt -> 5
  | Asp.Lit.Ge -> 6

let rec fold_lit h = function
  | Asp.Lit.Pos a -> fold_atom (byte h 1) a
  | Asp.Lit.Neg a -> fold_atom (byte h 2) a
  | Asp.Lit.Cmp (l, op, r) ->
      fold_term (fold_term (byte (byte h 3) (cmp_tag op)) l) r
  | Asp.Lit.Count c ->
      let h = byte h 4 in
      let h =
        byte h (match c.Asp.Lit.kind with Cardinality -> 1 | Summation -> 2)
      in
      let h = fold_terms h c.Asp.Lit.terms in
      let h = fold_lits h c.Asp.Lit.cond in
      fold_term (byte h (cmp_tag c.Asp.Lit.op)) c.Asp.Lit.bound

and fold_lits h ls = List.fold_left fold_lit (fold_int h (List.length ls)) ls

let fold_head h = function
  | Asp.Rule.Head a -> fold_atom (byte h 1) a
  | Asp.Rule.Choice { lower; upper; elems } ->
      let h = fold_opt_int (fold_opt_int (byte h 2) lower) upper in
      List.fold_left
        (fun h (e : Asp.Rule.choice_elem) ->
          fold_lits (fold_atom h e.Asp.Rule.atom) e.Asp.Rule.cond)
        (fold_int h (List.length elems))
        elems
  | Asp.Rule.Falsity -> byte h 3

(* source positions are deliberately not hashed: the fingerprint is
   structural, a parsed statement and its programmatic twin must collide *)
let fold_rule h = function
  | Asp.Rule.Rule { head; body; pos = _ } ->
      fold_lits (fold_head (byte h 1) head) body
  | Asp.Rule.Weak { body; weight; priority; terms; pos = _ } ->
      let h = fold_lits (byte h 2) body in
      fold_terms (fold_int (fold_term h weight) priority) terms

let fold_show h (p, n) = fold_int (fold_string h p) n

let empty = { rules = fnv_offset; shows = 0L }

let extend fp p =
  {
    rules = List.fold_left fold_rule fp.rules (Asp.Program.rules p);
    shows =
      List.fold_left
        (fun acc s -> Int64.logxor acc (fold_show fnv_offset s))
        fp.shows (Asp.Program.shows p);
  }

let program p = extend empty p
let rule r = { empty with rules = fold_rule empty.rules r }

let ints ns = { empty with rules = List.fold_left fold_int empty.rules ns }

let combine a b =
  {
    rules = fold_int (fold_int a.rules (Int64.to_int b.rules)) (Int64.to_int b.shows);
    shows = Int64.logxor a.shows (Int64.mul b.shows fnv_prime);
  }

let equal a b = Int64.equal a.rules b.rules && Int64.equal a.shows b.shows

let compare a b =
  match Int64.compare a.rules b.rules with
  | 0 -> Int64.compare a.shows b.shows
  | c -> c

let hash a = Int64.to_int a.rules lxor Int64.to_int a.shows
let to_hex a = Printf.sprintf "%016Lx%016Lx" a.rules a.shows
let pp ppf a = Format.pp_print_string ppf (to_hex a)
