exception Unsafe of string
exception Overflow of string

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

module Stats = struct
  type t = {
    mutable passes : int;
    mutable firings : int;
    mutable probes : int;
    mutable fresh_rules : int;
    mutable reused_rules : int;
    mutable decided : int;
    mutable wall_s : float;
  }

  let create () =
    {
      passes = 0;
      firings = 0;
      probes = 0;
      fresh_rules = 0;
      reused_rules = 0;
      decided = 0;
      wall_s = 0.0;
    }

  let add ~into s =
    into.passes <- into.passes + s.passes;
    into.firings <- into.firings + s.firings;
    into.probes <- into.probes + s.probes;
    into.fresh_rules <- into.fresh_rules + s.fresh_rules;
    into.reused_rules <- into.reused_rules + s.reused_rules;
    into.decided <- into.decided + s.decided;
    into.wall_s <- into.wall_s +. s.wall_s

  let to_string s =
    Printf.sprintf
      "passes=%d firings=%d probes=%d fresh=%d reused=%d decided=%d \
       wall=%.3fs"
      s.passes s.firings s.probes s.fresh_rules s.reused_rules s.decided
      s.wall_s

  let pp ppf s = Format.pp_print_string ppf (to_string s)
end

(* ------------------------------------------------------------------ *)
(* Safety                                                              *)
(* ------------------------------------------------------------------ *)

let located r =
  match Rule.pos r with
  | Some p -> Rule.pos_to_string p ^ ": "
  | None -> ""

let check_rule r =
  match Safety.violations r with
  | [] -> ()
  | vs -> raise (Unsafe (located r ^ Safety.describe r vs))

let unbound_err r =
  located r ^ "builtin comparison with unbound variables in: " ^ Rule.to_string r

(* Arithmetic that fails to evaluate (on a non-integer, by zero) is a
   grounding error of the rule that reached it. *)
let eval_prefix = "Term.eval: "

let eval_errors r f =
  try f ()
  with Invalid_argument msg when String.starts_with ~prefix:eval_prefix msg ->
    let n = String.length eval_prefix in
    raise
      (Unsafe
         (located r ^ String.sub msg n (String.length msg - n) ^ " in rule: "
        ^ Rule.to_string r))

let positives lits =
  List.filter_map
    (function Lit.Pos a -> Some a | Lit.Neg _ | Lit.Cmp _ | Lit.Count _ -> None)
    lits

let negatives lits =
  List.filter_map
    (function Lit.Neg a -> Some a | Lit.Pos _ | Lit.Cmp _ | Lit.Count _ -> None)
    lits

let builtins_of lits =
  List.filter_map
    (function
      | Lit.Cmp (l, op, r) -> Some (l, op, r)
      | Lit.Pos _ | Lit.Neg _ | Lit.Count _ -> None)
    lits

let count_lits lits =
  List.filter_map
    (function
      | Lit.Count c -> Some c | Lit.Pos _ | Lit.Neg _ | Lit.Cmp _ -> None)
    lits

(* ------------------------------------------------------------------ *)
(* Compiled join plans                                                 *)
(* ------------------------------------------------------------------ *)

(* A conjunction of positive literals and builtins is compiled, once per
   join order, into a plan over a slot environment: every variable of
   the rule is numbered into a slot of a [Term.t array], and which slots
   are bound at each point of the join is known statically. So are the
   per-argument match operations, the probe keys, the level at which
   each builtin is decided and the range bounds a probe may narrow on.
   The executor only reads and writes slots; no substitution is built,
   searched or re-applied. Boundness is static because an argument that
   is arithmetic over a still-unbound variable never matches a universe
   atom (universe terms are evaluated, so they hold no arithmetic
   functor): a literal that matches binds all of its variables. *)

module Vars = Set.Make (String)

type arith = Add | Sub | Neg | Mul | Div | Mod | Abs | Min | Max | Bad

(* A term evaluated under the environment, all its variables bound. *)
type cterm =
  | C_const of Term.t (* ground and normal *)
  | C_slot of int
  | C_arith of arith * string * cterm list (* operator, its symbol, args *)
  | C_func of string * cterm list (* compound, not arithmetic *)

let is_arith f = List.mem f Term.arith_ops

let arith_of f n =
  match f, n with
  | "+", 2 -> Add
  | "-", 2 -> Sub
  | "-", 1 -> Neg
  | "*", 2 -> Mul
  | "/", 2 -> Div
  | "mod", 2 -> Mod
  | "abs", 1 -> Abs
  | "min", 2 -> Min
  | "max", 2 -> Max
  | _ -> Bad

let eval_opt t =
  match Term.eval t with v -> Some v | exception Invalid_argument _ -> None

(* [slot] numbers the rule's variables. Ground subterms that evaluate are
   folded; those that do not stay arithmetic and raise where reached. *)
let rec cterm slot (t : Term.t) =
  if t.Term.normal then C_const t
  else
    match (if t.Term.ground then eval_opt t else None), t.Term.node with
    | Some v, _ -> C_const v
    | None, Term.Var v -> C_slot (slot v)
    | None, Term.Func (f, args) when is_arith f ->
        C_arith (arith_of f (List.length args), f, List.map (cterm slot) args)
    | None, Term.Func (f, args) -> C_func (f, List.map (cterm slot) args)
    | None, (Term.Const _ | Term.Int _ | Term.Str _) -> C_const t

exception Not_int

(* Integer arithmetic straight from the slots, interning nothing. Raises
   [Not_int] wherever {!Term.eval} would not yield an integer (an operand
   that is not one, division by zero, a bad arity), so that the caller
   takes the exact path for the value or the error. *)
let rec int_of env = function
  | C_const { Term.node = Term.Int n; _ } -> n
  | C_slot i -> (
      match env.(i).Term.node with
      | Term.Int n -> n
      | Term.Const _ | Term.Str _ | Term.Var _ | Term.Func _ ->
          raise_notrace Not_int)
  | C_arith (op, _, args) -> (
      match op, args with
      | Add, [ a; b ] -> int_of env a + int_of env b
      | Sub, [ a; b ] -> int_of env a - int_of env b
      | Neg, [ a ] -> -int_of env a
      | Mul, [ a; b ] -> int_of env a * int_of env b
      | Div, [ a; b ] ->
          let d = int_of env b in
          if d = 0 then raise_notrace Not_int else int_of env a / d
      | Mod, [ a; b ] ->
          let d = int_of env b in
          if d = 0 then raise_notrace Not_int else int_of env a mod d
      | Abs, [ a ] -> abs (int_of env a)
      | Min, [ a; b ] ->
          let a = int_of env a and b = int_of env b in
          if a <= b then a else b
      | Max, [ a; b ] ->
          let a = int_of env a and b = int_of env b in
          if a >= b then a else b
      | _ -> raise_notrace Not_int)
  | C_const _ | C_func _ -> raise_notrace Not_int

(* the substituted, unevaluated term: {!Term.eval} of it gives the exact
   value or error *)
let rec raw env = function
  | C_const t -> t
  | C_slot i -> env.(i)
  | C_arith (_, f, args) | C_func (f, args) ->
      Term.func f (List.map (raw env) args)

let rec value env c =
  match c with
  | C_const t -> t
  | C_slot i -> env.(i)
  | C_arith _ -> (
      match int_of env c with
      | n -> Term.int n
      | exception Not_int -> Term.eval (raw env c))
  | C_func (f, args) -> Term.func f (List.map (value env) args)

(* an integer the term must evaluate to ([None]: it evaluates to another
   term; errors raise) *)
let int_value env c =
  match int_of env c with
  | n -> Some n
  | exception Not_int -> Term.eval_int (raw env c)

type catom = { c_pred : string; c_args : cterm list }

let catom slot (a : Atom.t) =
  { c_pred = a.Atom.pred; c_args = List.map (cterm slot) a.Atom.args }

let build env c =
  { Atom.pred = c.c_pred; args = List.map (value env) c.c_args }

(* A builtin decided at a level: a comparison, or an assignment binding a
   slot ([X = expr] with the other side ground, as in clingo). *)
type bop = B_test of Lit.cmp * cterm * cterm | B_assign of int * cterm

let compare_values env l r =
  match int_of env l with
  | a -> (
      match int_of env r with
      | b -> Int.compare a b
      | exception Not_int -> Term.compare (value env l) (value env r))
  | exception Not_int -> Term.compare (value env l) (value env r)

let rec builtins env = function
  | [] -> true
  | B_test (op, l, r) :: rest ->
      let c = compare_values env l r in
      (match op with
      | Lit.Eq -> c = 0
      | Lit.Ne -> c <> 0
      | Lit.Lt -> c < 0
      | Lit.Le -> c <= 0
      | Lit.Gt -> c > 0
      | Lit.Ge -> c >= 0)
      && builtins env rest
  | B_assign (s, c) :: rest ->
      env.(s) <- value env c;
      builtins env rest

(* How one argument (or subterm) of a literal matches a universe term. *)
type op =
  | M_key of int (* the level's [k]-th probe key *)
  | M_const of Term.t
  | M_check of int (* a bound slot *)
  | M_bind of int
  | M_eval of cterm (* ground once this atom's earlier arguments bind *)
  | M_func of string * int * op array (* functor, arity, arguments *)
  | M_never (* arithmetic over a still-unbound variable *)

(* A range-tier bound on a probed variable: [V < e] is the upper bound
   [e - 1], [V >= e] the lower bound [e], and so on. *)
type rbound = { rb_upper : bool; rb_shift : int; rb_term : cterm }

type level = {
  l_pos : int; (* the literal's body position (windows, views) *)
  l_pre : bop list; (* builtins decided on entering, in deciding order *)
  l_pred : string;
  l_arity : int;
  l_kpos : int array; (* argument positions ground on entry... *)
  l_keys : cterm array; (* ...and their terms: the probe keys *)
  l_mask : int; (* [l_kpos] as a bit set: the composite-tier group *)
  l_ops : op array; (* one per argument *)
  l_range : (int * rbound list) list;
      (* variable positions with pending bounds, for a probe without keys *)
}

type plan = {
  p_levels : level array;
  p_post : bop list; (* builtins decided after the last literal *)
  p_stuck : bool; (* a builtin is never decided: a match is an error *)
  p_rule : Rule.t;
}

let bound_in bound t = List.for_all (fun v -> Vars.mem v bound) (Term.vars t)

let rec has_arith (t : Term.t) =
  match t.Term.node with
  | Term.Func (f, args) -> is_arith f || List.exists has_arith args
  | Term.Const _ | Term.Int _ | Term.Str _ | Term.Var _ -> false

(* One argument pattern under [bound] (this atom's earlier arguments
   included), with the variables bound after it. A subterm that is ground
   once substituted is compared; if it holds arithmetic it is evaluated
   first, so an evaluation error surfaces exactly where unification
   evaluated it. *)
let rec compile_pat slot bound (t : Term.t) =
  if bound_in bound t then
    match t.Term.node with
    | Term.Var v -> (M_check (slot v), bound)
    | Term.Func (f, args) when not (t.Term.ground || has_arith t) ->
        let ops = List.map (fun a -> fst (compile_pat slot bound a)) args in
        (M_func (f, List.length args, Array.of_list ops), bound)
    | Term.Func _ | Term.Const _ | Term.Int _ | Term.Str _ -> (
        match cterm slot t with
        | C_const v -> (M_const v, bound)
        | c -> (M_eval c, bound))
  else
    match t.Term.node with
    | Term.Var v -> (M_bind (slot v), Vars.add v bound)
    | Term.Func (f, _) when is_arith f -> (M_never, bound)
    | Term.Func (f, args) ->
        let bound, ops =
          List.fold_left
            (fun (bound, ops) a ->
              let op, bound = compile_pat slot bound a in
              (bound, op :: ops))
            (bound, []) args
        in
        (M_func (f, List.length args, Array.of_list (List.rev ops)), bound)
    | Term.Const _ | Term.Int _ | Term.Str _ -> (M_const t, bound)

let rec never = function
  | M_never -> true
  | M_func (_, _, ops) -> Array.exists never ops
  | M_key _ | M_const _ | M_check _ | M_bind _ | M_eval _ -> false

(* The builtins decided on entering a level with [bound], in the order
   the reference grounder decides them: passes over the pending list in
   body order, an assignment binding its variable for the rest of the
   pass, repeated while a pass progresses. Returns them with the
   variables bound after them and the builtins still pending. *)
let schedule slot bound pending =
  let rec passes bound pending acc =
    let progressed = ref false in
    let rec pass bound acc left = function
      | [] -> (bound, acc, List.rev left)
      | ((l, op, r) as b) :: rest -> (
          let gl = bound_in bound l and gr = bound_in bound r in
          if gl && gr then begin
            progressed := true;
            pass bound
              (B_test (op, cterm slot l, cterm slot r) :: acc)
              left rest
          end
          else
            match op, l.Term.node, r.Term.node with
            | Lit.Eq, Term.Var v, _ when gr ->
                progressed := true;
                pass (Vars.add v bound)
                  (B_assign (slot v, cterm slot r) :: acc)
                  left rest
            | Lit.Eq, _, Term.Var v when gl ->
                progressed := true;
                pass (Vars.add v bound)
                  (B_assign (slot v, cterm slot l) :: acc)
                  left rest
            | _ -> pass bound acc (b :: left) rest)
    in
    let bound, acc, left = pass bound acc [] pending in
    if left <> [] && !progressed then passes bound left acc
    else (bound, acc, left)
  in
  let bound, acc, left = passes bound pending [] in
  (List.rev acc, bound, left)

(* bounds on variable [v] from the builtins pending at a level: one side
   [v] itself, the other ground there *)
let range_bounds slot bound pending v =
  let is_v (t : Term.t) =
    match t.Term.node with Term.Var v' -> String.equal v' v | _ -> false
  in
  let flip = function
    | Lit.Lt -> Lit.Gt
    | Lit.Le -> Lit.Ge
    | Lit.Gt -> Lit.Lt
    | Lit.Ge -> Lit.Le
    | (Lit.Eq | Lit.Ne) as op -> op
  in
  List.filter_map
    (fun (l, op, r) ->
      (* read as [v op e] *)
      let v_op_e =
        if is_v l then Some (op, r) else if is_v r then Some (flip op, l) else None
      in
      match v_op_e with
      | Some (op, e) when bound_in bound e -> (
          let mk upper shift =
            Some { rb_upper = upper; rb_shift = shift; rb_term = cterm slot e }
          in
          match op with
          | Lit.Lt -> mk true (-1)
          | Lit.Le -> mk true 0
          | Lit.Gt -> mk false 1
          | Lit.Ge -> mk false 0
          | Lit.Eq | Lit.Ne -> None)
      | Some _ | None -> None)
    pending

(* One literal entered with [bound] and [pending] still-undecided
   builtins: its level and the variables bound once it matched. *)
let compile_level slot bound pending ~pos ~pre (a : Atom.t) =
  let keys = ref [] and nkeys = ref 0 in
  let after, ops =
    List.fold_left
      (fun (after, ops) t ->
        if bound_in bound t then begin
          let k = !nkeys in
          incr nkeys;
          keys := (List.length ops, cterm slot t) :: !keys;
          (after, M_key k :: ops)
        end
        else
          let op, after = compile_pat slot after t in
          (after, op :: ops))
      (bound, []) a.Atom.args
  in
  let keys = Array.of_list (List.rev !keys) in
  let range =
    if Array.length keys > 0 then []
    else
      List.concat
        (List.mapi
           (fun i (t : Term.t) ->
             match t.Term.node with
             | Term.Var v -> (
                 match range_bounds slot bound pending v with
                 | [] -> []
                 | bs -> [ (i, bs) ])
             | Term.Const _ | Term.Int _ | Term.Str _ | Term.Func _ -> [])
           a.Atom.args)
  in
  ( {
      l_pos = pos;
      l_pre = pre;
      l_pred = a.Atom.pred;
      l_arity = List.length a.Atom.args;
      l_kpos = Array.map fst keys;
      l_keys = Array.map snd keys;
      l_mask = Array.fold_left (fun m (i, _) -> m lor (1 lsl i)) 0 keys;
      l_ops = Array.of_list (List.rev ops);
      l_range = range;
    },
    after )

(* [pats] joined in [order] from [bound], [bs] decided as soon as they
   can be; also returns the variables bound after a full match *)
let compile_plan slot ~rule ~bound pats bs order =
  let bound = ref bound and pending = ref bs in
  let levels =
    List.map
      (fun k ->
        let pre, b, left = schedule slot !bound !pending in
        let lv, after = compile_level slot b left ~pos:k ~pre pats.(k) in
        bound := after;
        pending := left;
        lv)
      order
  in
  let post, bound, left = schedule slot !bound !pending in
  ( {
      p_levels = Array.of_list levels;
      p_post = post;
      p_stuck = left <> [];
      p_rule = rule;
    },
    bound )

let dead plan =
  Array.exists (fun lv -> Array.exists never lv.l_ops) plan.p_levels

(* The join order for a semi-naive delta at position [d]: the delta
   literal first (its one-generation window is the most selective), then
   the rest in body order — except that a literal with an arithmetic
   argument waits until the variables it reads are bound, since in body
   order they were bound before it. Windows are keyed by body position,
   so the generation partition is exact under any order. *)
let delta_order slot pats bs d =
  let ready bound pending k =
    let _, b, left = schedule slot bound pending in
    let lv, _ = compile_level slot b left ~pos:k ~pre:[] pats.(k) in
    not (Array.exists never lv.l_ops)
  in
  let rec go bound pending queue acc =
    match queue with
    | [] -> List.rev acc
    | first :: _ ->
        let k =
          Option.value ~default:first
            (List.find_opt (ready bound pending) queue)
        in
        let _, b, left = schedule slot bound pending in
        let _, after = compile_level slot b left ~pos:k ~pre:[] pats.(k) in
        go after left (List.filter (fun q -> q <> k) queue) (k :: acc)
  in
  go Vars.empty bs
    (d :: List.filter (fun q -> q <> d) (List.init (Array.length pats) Fun.id))
    []

(* rule-wide variable numbering *)
let slots () =
  let tbl = Hashtbl.create 16 in
  let slot v =
    match Hashtbl.find_opt tbl v with
    | Some i -> i
    | None ->
        let i = Hashtbl.length tbl in
        Hashtbl.add tbl v i;
        i
  in
  (slot, fun () -> Hashtbl.length tbl)

(* Fill [buf] with the probe keys of a level under the environment; false
   when one fails to evaluate — the caller then probes the whole
   signature and the error, if a candidate reaches it, surfaces from the
   match. *)
let fill_keys env lv buf =
  try
    for k = 0 to Array.length buf - 1 do
      buf.(k) <- value env lv.l_keys.(k)
    done;
    true
  with Invalid_argument _ -> false

let rec match_term env keys lv op (g : Term.t) =
  match op with
  | M_key k ->
      let key =
        match keys with Some ks -> ks.(k) | None -> value env lv.l_keys.(k)
      in
      Term.equal key g
  | M_const t -> Term.equal t g
  | M_check s -> Term.equal env.(s) g
  | M_bind s ->
      env.(s) <- g;
      true
  | M_eval c -> Term.equal (value env c) g
  | M_func (f, n, ops) -> (
      match g.Term.node with
      | Term.Func (f', args)
        when (f == f' || String.equal f f')
             && List.compare_length_with args n = 0 ->
          match_args env keys lv ops 0 args
      | Term.Func _ | Term.Const _ | Term.Int _ | Term.Str _ | Term.Var _ ->
          false)
  | M_never -> false

and match_args env keys lv ops i = function
  | [] -> true
  | g :: rest ->
      match_term env keys lv ops.(i) g
      && match_args env keys lv ops (i + 1) rest

(* Run [plan] over [env]. [cands j lv keys f] calls [f] on the candidate
   atoms of level [j] — the hook through which the callers plug in index
   probes, generation windows and the incremental new/old/full views;
   [matched] receives the atom matched at each level. *)
let dummy = Term.int 0
let dummy_atom = { Atom.pred = ""; args = [] }

let execute plan env matched ~cands ~on_match =
  let levels = plan.p_levels in
  let n = Array.length levels in
  (* one key buffer per level: a level's keys stay fixed while its
     candidates are enumerated, deeper levels use their own *)
  let bufs =
    Array.map (fun lv -> Array.make (Array.length lv.l_keys) dummy) levels
  in
  let filled = Array.map (fun buf -> Some buf) bufs in
  let rec go j =
    if j = n then begin
      if builtins env plan.p_post then
        if plan.p_stuck then raise (Unsafe (unbound_err plan.p_rule))
        else on_match ()
    end
    else
      let lv = levels.(j) in
      if builtins env lv.l_pre then begin
        let keys = if fill_keys env lv bufs.(j) then filled.(j) else None in
        cands j lv keys (fun (ga : Atom.t) ->
            if match_args env keys lv lv.l_ops 0 ga.Atom.args then begin
              matched.(j) <- ga;
              go (j + 1)
            end)
      end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Phase 1: semi-naive universe fixpoint                               *)
(*                                                                     *)
(* Atoms carry the round (generation) in which they were derived.      *)
(* Candidate lists are consed newest-first, so they are sorted by      *)
(* non-increasing generation and a [lo..hi] generation window is a     *)
(* skip-prefix / take-while walk. Discrimination indexes are kept for  *)
(* EVERY argument position — a probe picks the smallest bucket among   *)
(* the level's key positions. A [store] optionally layers over a       *)
(* frozen base store (the {!extend} overlay), whose atoms all count    *)
(* as generation 0.                                                    *)
(* ------------------------------------------------------------------ *)
module AtomTbl = Atom.Tbl

(* Predicate strings are interned ({!Atom.make} routes them through
   [Term.intern_string]), so physical equality catches nearly every
   signature comparison, and the precomputed term hkeys replace deep
   polymorphic hashing. Profiles of the transitive-closure workloads put
   generic [caml_hash]/[compare_val] at ~2/3 of grounding time when
   these tables were polymorphic. *)

module SigTbl = Hashtbl.Make (struct
  type t = string * int (* pred, arity *)

  let equal (p1, a1) (p2, a2) = a1 = a2 && (p1 == p2 || String.equal p1 p2)
  let hash (p, a) = (String.hash p * 0x01000193) lxor a
end)

module PosIdxTbl = Hashtbl.Make (struct
  type t = string * int * int (* pred, arity, position (or mask) *)

  let equal (p1, a1, i1) (p2, a2, i2) =
    a1 = a2 && i1 = i2 && (p1 == p2 || String.equal p1 p2)

  let hash (p, a, i) = (((String.hash p * 0x01000193) lxor a) * 31) + i
end)

module PosTbl = Hashtbl.Make (struct
  type t = string * int * int * Term.t (* pred, arity, position, key *)

  let equal (p1, a1, i1, t1) (p2, a2, i2, t2) =
    a1 = a2 && i1 = i2 && Term.equal t1 t2 && String.equal p1 p2

  let hash (p, a, i, t) =
    ((((String.hash p * 0x01000193) lxor a) * 31) + i) lxor (Term.hash t * 0x9e3779b9)
end)

(* Composite-tier key tuples: ground terms at the masked positions. *)
module KeyTbl = Hashtbl.Make (struct
  type t = Term.t list

  let equal = List.equal Term.equal
  let hash = List.fold_left (fun h t -> (h * 0x100000001b3) lxor Term.hash t) 17
end)

module GrTbl = Hashtbl.Make (struct
  type t = Ground.grule

  let equal = Ground.equal_rule
  let hash = Ground.hash_rule
end)

module GeTbl = Hashtbl.Make (struct
  type t = Ground.gelem

  let equal = Ground.equal_elem
  let hash = Ground.hash_elem
end)

module CeTbl = Hashtbl.Make (struct
  type t = Ground.gcount_elem

  let equal = Ground.equal_celem
  let hash = Ground.hash_celem
end)

type bucket = { mutable b_len : int; mutable b_items : (Atom.t * int) list }

type store = {
  st_univ : int AtomTbl.t; (* atom -> id once numbered, -1 until then *)
  st_by_sig : bucket SigTbl.t;
  st_by_pos : bucket PosTbl.t;
  mutable st_count : int; (* includes the base layer's count *)
  st_max : int;
  st_base : store option;
}

let new_store ?(size = 1024) ~max_atoms base =
  {
    st_univ = AtomTbl.create size;
    st_by_sig = SigTbl.create 64;
    st_by_pos = PosTbl.create (size / 4);
    st_count = (match base with Some b -> b.st_count | None -> 0);
    st_max = max_atoms;
    st_base = base;
  }

let store_mem st a =
  AtomTbl.mem st.st_univ a
  || match st.st_base with Some b -> AtomTbl.mem b.st_univ a | None -> false

let push_sig tbl key v =
  match SigTbl.find_opt tbl key with
  | Some b ->
      b.b_len <- b.b_len + 1;
      b.b_items <- v :: b.b_items
  | None -> SigTbl.add tbl key { b_len = 1; b_items = [ v ] }

let push_pos tbl key v =
  match PosTbl.find_opt tbl key with
  | Some b ->
      b.b_len <- b.b_len + 1;
      b.b_items <- v :: b.b_items
  | None -> PosTbl.add tbl key { b_len = 1; b_items = [ v ] }

let index_atom st a gen =
  push_sig st.st_by_sig (Atom.signature a) (a, gen);
  let ar = List.length a.Atom.args in
  List.iteri
    (fun i t -> push_pos st.st_by_pos (a.Atom.pred, ar, i, t) (a, gen))
    a.Atom.args

(* count [n] more atoms in [st] *)
let grow st n =
  st.st_count <- st.st_count + n;
  if st.st_count > st.st_max then
    raise (Overflow (Printf.sprintf "atom universe exceeded %d atoms" st.st_max))

let add_atom st ~gen a ~on_new =
  let a = Atom.eval a in
  if not (Atom.is_ground a) then
    raise (Unsafe ("derived non-ground atom " ^ Atom.to_string a));
  if not (store_mem st a) then begin
    AtomTbl.replace st.st_univ a (-1);
    grow st 1;
    index_atom st a gen;
    on_new a
  end

let empty_bucket = { b_len = 0; b_items = [] }

(* Candidates of this layer only: the smallest per-position bucket among
   the level's keys, the signature bucket when it has none — and, so that
   an evaluation error surfaces from the match as in the oracle, when a
   key fails to evaluate. A missing bucket for an evaluated key means no
   stored atom can match: empty. *)
let rec smallest st lv keys k best =
  if k = Array.length keys then best.b_items
  else
    match
      PosTbl.find_opt st.st_by_pos
        (lv.l_pred, lv.l_arity, lv.l_kpos.(k), keys.(k))
    with
    | None -> []
    | Some b ->
        let best = if k = 0 || b.b_len < best.b_len then b else best in
        smallest st lv keys (k + 1) best

let layer_cands st (stats : Stats.t) lv keys =
  stats.Stats.probes <- stats.Stats.probes + 1;
  match keys with
  | Some keys when Array.length keys > 0 -> smallest st lv keys 0 empty_bucket
  | Some _ | None -> (
      match SigTbl.find_opt st.st_by_sig (lv.l_pred, lv.l_arity) with
      | Some b -> b.b_items
      | None -> [])

(* the atoms of a newest-first candidate list whose generation lies in
   [lo..hi] *)
let rec skip_window ~lo ~hi f = function
  | (_, g) :: rest when g > hi -> skip_window ~lo ~hi f rest
  | l -> take_window ~lo f l

and take_window ~lo f = function
  | (a, g) :: rest when g >= lo ->
      f a;
      take_window ~lo f rest
  | _ -> ()

(* Iterate atoms of st (plus its base layer when [lo = 0]) whose generation
   lies in [lo..hi]. *)
let iter_window st stats ~lo ~hi lv keys f =
  skip_window ~lo ~hi f (layer_cands st stats lv keys);
  if lo = 0 then
    match st.st_base with
    | Some b -> List.iter (fun (a, _) -> f a) (layer_cands b stats lv keys)
    | None -> ()

(* One head-derivation template per plain-rule head / choice element; a
   choice element's template joins body and condition positives flat (safe:
   [check_rule] has already rejected body builtins that only the condition
   could bind). Its plans: body order for the initial naive round, and
   one per delta position. A plain rule's template also carries its
   negated atoms: phase 1 ignores them, {!decide} checks them. *)
type template = {
  t_rule : Rule.t;
  t_slots : int;
  t_naive : plan;
  t_delta : plan array;
  t_head : catom;
  t_neg : catom list;
}

let template r pats bs ~neg head =
  let slot, nslots = slots () in
  let pats = Array.of_list pats in
  let n = Array.length pats in
  let naive, _ =
    compile_plan slot ~rule:r ~bound:Vars.empty pats bs (List.init n Fun.id)
  in
  (* a literal that never matches in body order blocks the rule in every
     order: keep body order, whose joins are the oracle's *)
  let delta d =
    if dead naive then naive
    else
      fst
        (compile_plan slot ~rule:r ~bound:Vars.empty pats bs
           (delta_order slot pats bs d))
  in
  let t_delta = Array.init n delta in
  let t_head = catom slot head in
  let t_neg = List.map (catom slot) neg in
  { t_rule = r; t_slots = nslots (); t_naive = naive; t_delta; t_head; t_neg }

(* Returns the templates plus the semi-naive rule index: body-predicate
   signature -> (template, join position) pairs to re-fire when the
   signature gains atoms. *)
let build_templates rules =
  let ts = ref [] in
  let n = ref 0 in
  let index : (int * int) list SigTbl.t = SigTbl.create 32 in
  let add_template r pats bs ~neg head =
    let ti = !n in
    incr n;
    ts := template r pats bs ~neg head :: !ts;
    List.iteri
      (fun pos pat ->
        let sg = Atom.signature pat in
        let cur = Option.value ~default:[] (SigTbl.find_opt index sg) in
        SigTbl.replace index sg ((ti, pos) :: cur))
      pats
  in
  List.iter
    (fun r ->
      match r with
      | Rule.Weak _ -> ()
      | Rule.Rule { head; body; _ } -> (
          let bp = positives body and bb = builtins_of body in
          match head with
          | Rule.Falsity -> ()
          | Rule.Head a -> add_template r bp bb ~neg:(negatives body) a
          | Rule.Choice { elems; _ } ->
              List.iter
                (fun (e : Rule.choice_elem) ->
                  add_template r
                    (bp @ positives e.cond)
                    (bb @ builtins_of e.cond)
                    ~neg:[] e.atom)
                elems))
    rules;
  (Array.of_list (List.rev !ts), index)

(* Fire one (template, delta-position) work item against a store that is
   frozen for the round, passing the environment of each match. *)
let fire st stats t ~round ~dpos ~on_match =
  let plan = if dpos < 0 then t.t_naive else t.t_delta.(dpos) in
  let env = Array.make t.t_slots dummy in
  let matched = Array.make (Array.length plan.p_levels) dummy_atom in
  let cands _ lv keys f =
    let k = lv.l_pos in
    let lo, hi =
      if dpos < 0 then (0, max_int) (* naive: everything *)
      else if k = dpos then (round - 1, round - 1) (* the delta literal *)
      else if k < dpos then (0, round - 2) (* strictly older *)
      else (0, max_int) (* anything so far *)
    in
    iter_window st stats ~lo ~hi lv keys f
  in
  execute plan env matched ~cands ~on_match:(fun () -> on_match env)

(* A head whose arithmetic fails to evaluate is kept unevaluated: the
   error surfaces when the round commits it, as for any derived atom. *)
let head_atom env c =
  match build env c with
  | a -> a
  | exception Invalid_argument _ ->
      { Atom.pred = c.c_pred; args = List.map (raw env) c.c_args }

(* Semi-naive driver with snapshot (BFS) rounds: the store is frozen while
   a round's work items fire — derived heads are buffered per item and
   committed sequentially in item order afterwards — so an atom's
   generation is exactly its derivation depth and every join result is
   found exactly once, at the round after its newest constituent atom was
   derived (leftmost-newest position). Rounds are numbered on from
   [round] (a later stratum continues an earlier one's count, so every
   atom already stored is older than its rounds' deltas); a match fires
   only if [admit] accepts it. Returns the last round's number. *)
let run_fixpoint ?(round = 0) ?(admit = fun _ _ -> true) st (stats : Stats.t)
    templates entries_for ~initial =
  let added = ref [] in
  let run_round ~round items =
    stats.Stats.passes <- stats.Stats.passes + 1;
    let fire_item (ti, dpos) =
      let t = templates.(ti) in
      let heads = ref [] in
      eval_errors t.t_rule (fun () ->
          fire st stats t ~round ~dpos ~on_match:(fun env ->
              if admit t env then begin
                stats.Stats.firings <- stats.Stats.firings + 1;
                heads := head_atom env t.t_head :: !heads
              end));
      (t, List.rev !heads)
    in
    Array.iter
      (fun (t, heads) ->
        eval_errors t.t_rule (fun () ->
            List.iter
              (fun a ->
                add_atom st ~gen:round a ~on_new:(fun a -> added := a :: !added))
              heads))
      (Array.map fire_item items)
  in
  let round = ref (round + 1) in
  run_round ~round:!round
    (Array.of_list (List.map (fun ti -> (ti, -1)) initial));
  while !added <> [] do
    incr round;
    let prev = List.rev !added in
    added := [];
    let seen_sig = SigTbl.create 16 in
    let items = ref [] in
    List.iter
      (fun a ->
        let sg = Atom.signature a in
        if not (SigTbl.mem seen_sig sg) then begin
          SigTbl.replace seen_sig sg ();
          List.iter (fun it -> items := it :: !items) (entries_for sg)
        end)
      prev;
    run_round ~round:!round (Array.of_list (List.rev !items))
  done;
  !round

(* ------------------------------------------------------------------ *)
(* Phase 2: instantiation against a frozen, canonically ordered view   *)
(* ------------------------------------------------------------------ *)

(* A [view] answers candidate queries over an immutable universe with
   every bucket sorted ascending by [Atom.compare] — the canonical order
   shared with the test-only reference grounder, which is what makes the
   two grounders' outputs bit-for-bit comparable (any index is a superset
   filter: the subset enumerated in ascending order yields the oracle's match
   sequence).

   Three probe tiers, most selective first:
   - composite: patterns with >= 2 ground argument positions are answered
     from a lazily materialized (signature, position-mask) group table —
     one pass over the signature bucket the first time a mask is seen,
     O(1) after. The cache freezes when its view becomes shared state (a
     [prepared] may be extended from many domains concurrently); frozen
     misses fall through to the single-position tier.
   - positional: the smallest per-argument-position bucket.
   - range: a pattern whose argument is an unbound variable constrained by
     a pending [V < k]-style builtin scans only the integer keys inside
     the bound interval (sorted buckets merged, so order is preserved)
     instead of sweeping the whole signature. *)

type comp_cache = {
  mutable cc_frozen : bool;
  cc_tbl : Atom.t list KeyTbl.t PosIdxTbl.t;
      (* (pred, arity, mask) -> key tuple -> ascending bucket *)
}

type view = {
  v_sig : string * int -> Atom.t list;
  v_pos : string * int * int * Term.t -> (int * Atom.t list) option;
      (* (length, ascending bucket); None: no atom has that key there *)
  v_ints : string * int * int -> (bool * int list) option;
      (* (all keys at this position are ints, sorted distinct int keys) *)
  v_cache : comp_cache;
}

let new_cache () = { cc_frozen = false; cc_tbl = PosIdxTbl.create 16 }

let tbl_view sigs poses ints =
  {
    v_sig =
      (fun k -> Option.value ~default:[] (SigTbl.find_opt sigs k));
    v_pos = (fun k -> PosTbl.find_opt poses k);
    v_ints = (fun k -> PosIdxTbl.find_opt ints k);
    v_cache = new_cache ();
  }

(* Sorted per-signature / per-position tables for the atoms of [st]'s own
   layer, plus the per-position integer-key summaries the range tier
   scans. *)
type tables = {
  tb_sigs : Atom.t list SigTbl.t;
  tb_poses : (int * Atom.t list) PosTbl.t;
  tb_ints : (bool * int list) PosIdxTbl.t;
}

let ints_of_poses poses =
  let ints = PosIdxTbl.create 16 in
  PosTbl.iter
    (fun (p, ar, i, key) _ ->
      let cur =
        Option.value ~default:(true, []) (PosIdxTbl.find_opt ints (p, ar, i))
      in
      let all_int, ks = cur in
      match key.Term.node with
      | Term.Int n -> PosIdxTbl.replace ints (p, ar, i) (all_int, n :: ks)
      | _ -> PosIdxTbl.replace ints (p, ar, i) (false, ks))
    poses;
  PosIdxTbl.iter
    (fun k (all_int, ks) ->
      PosIdxTbl.replace ints k (all_int, List.sort_uniq Int.compare ks))
    ints;
  ints

let sorted_tables st =
  let sigs = SigTbl.create (SigTbl.length st.st_by_sig) in
  let poses = PosTbl.create 256 in
  SigTbl.iter
    (fun key b ->
      let sorted = List.sort Atom.compare (List.map fst b.b_items) in
      SigTbl.replace sigs key sorted;
      (* cons in descending order so every positional bucket stays sorted *)
      List.iter
        (fun (a : Atom.t) ->
          let ar = List.length a.Atom.args in
          List.iteri
            (fun i t ->
              let pk = (a.Atom.pred, ar, i, t) in
              match PosTbl.find_opt poses pk with
              | Some (len, l) -> PosTbl.replace poses pk (len + 1, a :: l)
              | None -> PosTbl.add poses pk (1, [ a ]))
            a.Atom.args)
        (List.rev sorted))
    st.st_by_sig;
  { tb_sigs = sigs; tb_poses = poses; tb_ints = ints_of_poses poses }

let view_of_tables t = tbl_view t.tb_sigs t.tb_poses t.tb_ints

type snap = { sn_view : view; sn_mem : Atom.t -> bool }


(* Integer bounds on a probed variable from its pending builtins. An
   upper bound excludes every non-integer key (non-integers compare above
   all ints), so it is always safe to narrow on; a lower bound alone is
   only safe when every key at the position is an integer. A bound whose
   term does not evaluate to an integer narrows nothing. *)
let int_bounds env bounds =
  List.fold_left
    (fun (lo, hi) b ->
      match int_of env b.rb_term with
      | n ->
          let n = n + b.rb_shift in
          if b.rb_upper then
            (lo, Some (match hi with Some h -> min h n | None -> n))
          else (Some (match lo with Some l -> max l n | None -> n), hi)
      | exception Not_int -> (lo, hi))
    (None, None) bounds

let range_cands view env lv =
  let rec try_pos = function
    | [] -> None
    | (i, bounds) :: rest -> (
        match view.v_ints (lv.l_pred, lv.l_arity, i) with
        | None -> try_pos rest
        | Some (all_int, keys) -> (
            match int_bounds env bounds with
            | None, None -> try_pos rest
            | _, None when not all_int -> try_pos rest
            | lo, hi ->
                let lo = Option.value ~default:min_int lo in
                let hi = Option.value ~default:max_int hi in
                let buckets =
                  List.filter_map
                    (fun k ->
                      if k >= lo && k <= hi then
                        Option.map snd
                          (view.v_pos (lv.l_pred, lv.l_arity, i, Term.int k))
                      else None)
                    keys
                in
                Some
                  (List.fold_left
                     (fun acc l -> List.merge Atom.compare acc l)
                     [] buckets)))
  in
  try_pos lv.l_range

(* Composite tier: group the signature bucket by the key tuple at the
   level's key positions, once per (signature, mask). *)
let comp_cands view lv keys =
  let cache = view.v_cache in
  let mask = lv.l_mask in
  let ck = (lv.l_pred, lv.l_arity, mask) in
  let group =
    match PosIdxTbl.find_opt cache.cc_tbl ck with
    | Some g -> Some g
    | None ->
        if cache.cc_frozen then None
        else begin
          let g = KeyTbl.create 64 in
          List.iter
            (fun (a : Atom.t) ->
              let key =
                List.filteri (fun i _ -> mask land (1 lsl i) <> 0) a.Atom.args
              in
              let cur = Option.value ~default:[] (KeyTbl.find_opt g key) in
              KeyTbl.replace g key (a :: cur))
            (List.rev (view.v_sig (lv.l_pred, lv.l_arity)));
          PosIdxTbl.add cache.cc_tbl ck g;
          Some g
        end
  in
  Option.map
    (fun g -> Option.value ~default:[] (KeyTbl.find_opt g (Array.to_list keys)))
    group

let view_cands view (stats : Stats.t) env lv keys =
  stats.Stats.probes <- stats.Stats.probes + 1;
  let of_sig () = view.v_sig (lv.l_pred, lv.l_arity) in
  match keys with
  | None -> of_sig ()
  | Some keys -> (
      match Array.length keys with
      | 0 -> (
          match range_cands view env lv with Some cs -> cs | None -> of_sig ())
      | 1 -> (
          match view.v_pos (lv.l_pred, lv.l_arity, lv.l_kpos.(0), keys.(0)) with
          | Some (_, l) -> l
          | None -> [])
      | _ -> (
          match comp_cands view lv keys with
          | Some l -> l
          | None ->
              (* frozen cache miss: smallest single-position bucket *)
              let best = ref None in
              (try
                 Array.iteri
                   (fun k key ->
                     match
                       view.v_pos (lv.l_pred, lv.l_arity, lv.l_kpos.(k), key)
                     with
                     | None ->
                         best := Some (0, []);
                         raise_notrace Exit
                     | Some (len, l) -> (
                         match !best with
                         | Some (blen, _) when blen <= len -> ()
                         | _ -> best := Some (len, l)))
                   keys
               with Exit -> ());
              match !best with Some (_, l) -> l | None -> of_sig ()))

(* A rule compiled for instantiation: its body plan (body order) and,
   built from the slots once per match, the negative literals, the
   aggregates and the head. Conditions of aggregate and choice elements
   are plans of their own, entered with the body's variables bound. *)
type cond = { k_plan : plan; k_neg : catom list }

type ccount = {
  cc_kind : Lit.agg_kind;
  cc_op : Lit.cmp;
  cc_bound : cterm;
  cc_terms : cterm list;
  cc_cond : cond;
}

type chead =
  | H_atom of catom
  | H_false
  | H_choice of int option * int option * (catom * cond) list
  | H_weak of cterm * int * cterm list (* weight, priority, terms *)

type crule = {
  cr_rule : Rule.t;
  cr_slots : int;
  cr_body : plan;
  cr_neg : catom list;
  cr_counts : ccount list;
  cr_head : chead;
}

let compile_rule r =
  let slot, nslots = slots () in
  let conj ~bound lits =
    let pats = Array.of_list (positives lits) in
    compile_plan slot ~rule:r ~bound pats (builtins_of lits)
      (List.init (Array.length pats) Fun.id)
  in
  let body = Rule.body r in
  let cr_body, bound = conj ~bound:Vars.empty body in
  let cond lits =
    {
      k_plan = fst (conj ~bound lits);
      k_neg = List.map (catom slot) (negatives lits);
    }
  in
  let cr_counts =
    List.map
      (fun (c : Lit.count) ->
        {
          cc_kind = c.Lit.kind;
          cc_op = c.Lit.op;
          cc_bound = cterm slot c.Lit.bound;
          cc_terms = List.map (cterm slot) c.Lit.terms;
          cc_cond = cond c.Lit.cond;
        })
      (count_lits body)
  in
  let cr_head =
    match r with
    | Rule.Rule { head = Rule.Head a; _ } -> H_atom (catom slot a)
    | Rule.Rule { head = Rule.Falsity; _ } -> H_false
    | Rule.Rule { head = Rule.Choice { lower; upper; elems }; _ } ->
        H_choice
          ( lower,
            upper,
            List.map
              (fun (e : Rule.choice_elem) -> (catom slot e.atom, cond e.cond))
              elems )
    | Rule.Weak { weight; priority; terms; _ } ->
        H_weak (cterm slot weight, priority, List.map (cterm slot) terms)
  in
  let cr_neg = List.map (catom slot) (negatives body) in
  { cr_rule = r; cr_slots = nslots (); cr_body; cr_neg; cr_counts; cr_head }

(* Instantiate [cr] against [snap], mirroring the oracle's phase 2 modulo
   the discrimination indexes and hashed (instead of quadratic) dedup of
   aggregate / choice elements. [views], when given, picks the view each
   body position probes — {!extend} uses it to enumerate just the joins
   that involve new atoms; conditions always probe [snap]. *)
let instantiate snap stats ?views ~emit cr =
  eval_errors cr.cr_rule @@ fun () ->
  let env = Array.make cr.cr_slots dummy in
  let probe view _ lv keys f = List.iter f (view_cands view stats env lv keys) in
  let body_cands =
    match views with
    | None -> probe snap.sn_view
    | Some pick -> fun j lv keys f -> probe (pick lv.l_pos) j lv keys f
  in
  let negs cs = List.filter snap.sn_mem (List.map (build env) cs) in
  let join k on_match =
    let matched = Array.make (Array.length k.k_plan.p_levels) dummy_atom in
    execute k.k_plan env matched ~cands:(probe snap.sn_view)
      ~on_match:(fun () -> on_match (Array.to_list matched) (negs k.k_neg))
  in
  let not_int what = raise (Unsafe (what ^ Rule.to_string cr.cr_rule)) in
  let count cc =
    let cbound =
      match int_value env cc.cc_bound with
      | Some n -> n
      | None -> not_int "aggregate bound is not an integer in: "
    in
    let celems = ref [] in
    let seen = CeTbl.create 16 in
    join cc.cc_cond (fun epos eneg ->
        let ce =
          { Ground.etuple = List.map (value env) cc.cc_terms; epos; eneg }
        in
        if not (CeTbl.mem seen ce) then begin
          CeTbl.replace seen ce ();
          celems := ce :: !celems
        end);
    {
      Ground.ckind = cc.cc_kind;
      celems = List.rev !celems;
      cop = cc.cc_op;
      cbound;
    }
  in
  let matched = Array.make (Array.length cr.cr_body.p_levels) dummy_atom in
  execute cr.cr_body env matched ~cands:body_cands ~on_match:(fun () ->
      let pos = Array.to_list matched in
      let neg = negs cr.cr_neg in
      let counts = List.map count cr.cr_counts in
      match cr.cr_head with
      | H_atom a ->
          let head = build env a in
          if pos = [] && neg = [] && counts = [] then emit (Ground.Gfact head)
          else emit (Ground.Grule { head; pos; neg; counts })
      | H_false -> emit (Ground.Gconstraint { pos; neg; counts })
      | H_choice (lower, upper, elems) ->
          let gelems = ref [] in
          let seen = GeTbl.create 16 in
          List.iter
            (fun (atom, k) ->
              join k (fun gpos gneg ->
                  let ge = { Ground.gatom = build env atom; gpos; gneg } in
                  if not (GeTbl.mem seen ge) then begin
                    GeTbl.replace seen ge ();
                    gelems := ge :: !gelems
                  end))
            elems;
          emit
            (Ground.Gchoice
               { lower; upper; elems = List.rev !gelems; pos; neg; counts })
      | H_weak (w, priority, terms) ->
          let weight =
            match int_value env w with
            | Some w -> w
            | None -> not_int "weak constraint weight is not an integer: "
          in
          let terms = List.map (value env) terms in
          emit (Ground.Gweak { pos; neg; counts; weight; priority; terms }))

(* ------------------------------------------------------------------ *)
(* Prepared state                                                      *)
(* ------------------------------------------------------------------ *)

(* Runs [f] on [stats] (fresh when none is given), adding its wall time. *)
let timed stats f =
  let stats = match stats with Some s -> s | None -> Stats.create () in
  let t0 = Unix.gettimeofday () in
  let r = f stats in
  stats.Stats.wall_s <- stats.Stats.wall_s +. (Unix.gettimeofday () -. t0);
  r

let universe_of st base =
  AtomTbl.fold (fun a _ acc -> Model.AtomSet.add a acc) st.st_univ base

(* A closed single-layer store's universe, numbered in the table that
   already holds it: the ids cost no second table. *)
let numbered st =
  let universe = universe_of st Model.AtomSet.empty in
  (universe, Ground.number ~table:st.st_univ universe)

(* What {!decide} keeps per prepared base. [dc_base] is the base taken
   apart once, on first use: [None] when it is not a stratified normal
   program. [dc_memo] maps the sorted head signatures an increment
   defines to the base's work that does not depend on them ([None] when
   it raised). Each entry also memoises its dependent components across
   facts-only increments: [de_contents] names the extensions it has seen
   by a content id, and [de_comps] maps a component and the content ids
   of its inputs to the extensions it derived. All of it is read and
   filled under [dc_lock] only, so the prepared state stays shareable
   across domains; everything else in a [dentry], and every stored
   [ext], is read-only once built. *)

(* One signature's extension as the component memo keeps it: its
   content id, the number of its atoms, and the atoms. *)
type ext = { x_id : int; x_len : int; x_atoms : Atom.t list }

module IntTbl = Hashtbl.Make (Int)

(* component memo keys: the component, then its inputs' content ids *)
module IdsTbl = Hashtbl.Make (struct
  type t = int list

  let equal = List.equal Int.equal
  let hash = List.fold_left (fun h i -> (h * 0x01000193) lxor i) 17
end)
type dbase = {
  db_sigs : (string * int) array; (* head signature per base template *)
  db_users : (string * int) list SigTbl.t;
      (* body signature -> heads of the base rules that read it *)
  db_constraints : (crule * (string * int) list) list;
      (* base constraints, with their body signatures *)
}

type dentry = {
  de_store : store; (* the model's atoms over the independent signatures *)
  de_violated : bool; (* a base constraint over those fails *)
  de_comp : int array; (* per base template: its component, -1 if independent *)
  de_by_comp : int list array; (* dependent base templates per component *)
  de_sig_comp : int SigTbl.t; (* dependent signature -> component *)
  de_rules : Rule.t list; (* dependent base rules with a body *)
  de_constraints : crule list; (* base constraints reading a dependent signature *)
  de_dsigs : (string * int) array; (* the dependent signatures, numbered *)
  de_dindex : int SigTbl.t; (* and their numbers *)
  de_reads : int list array;
      (* per component: the dependent signatures of earlier components
         its base rules read, positive and negated *)
  de_outs : int list array; (* per component: its dependent signatures *)
  de_fed : bool array; (* per component: an increment's facts define it *)
  de_contents : ext list IntTbl.t array; (* per dependent signature, by hash *)
  de_comps : (int * ext) list IdsTbl.t;
  mutable de_hits : int; (* components [de_comps] answered *)
}

type decider = {
  dc_lock : Mutex.t;
  dc_base : dbase option Lazy.t;
  dc_memo : ((string * int) list, dentry option) Hashtbl.t;
  mutable dc_next : int; (* the next content id *)
  mutable dc_held : int; (* atoms and entries the component memos keep *)
}

(* A normal rule or constraint: no choice, no weak constraint, no
   aggregate. *)
let normal_rule = function
  | Rule.Rule { head = Rule.Head _ | Rule.Falsity; body; _ } ->
      List.for_all
        (function
          | Lit.Count _ -> false | Lit.Pos _ | Lit.Neg _ | Lit.Cmp _ -> true)
        body
  | Rule.Rule { head = Rule.Choice _; _ } | Rule.Weak _ -> false

(* a rule with a head and a non-empty body: the rules that give the
   dependency graph its edges *)
let defining = function
  | Rule.Rule { head = Rule.Head _; body = _ :: _; _ } -> true
  | Rule.Rule _ | Rule.Weak _ -> false

let head_sig t = (t.t_head.c_pred, List.length t.t_head.c_args)

let body_sigs r =
  List.filter_map (fun l -> Option.map Atom.signature (Lit.atom l)) (Rule.body r)

let decide_base program templates =
  let rules = Program.rules program in
  let defs = List.filter defining rules in
  if
    not
      (List.for_all normal_rule rules
      && Deps.stratified (Deps.of_program (Program.of_rules defs)))
  then None
  else begin
    let users = SigTbl.create 64 in
    Array.iter
      (fun t ->
        List.iter
          (fun sg ->
            let cur = Option.value ~default:[] (SigTbl.find_opt users sg) in
            SigTbl.replace users sg (head_sig t :: cur))
          (body_sigs t.t_rule))
      templates;
    Some
      {
        db_sigs = Array.map head_sig templates;
        db_users = users;
        db_constraints =
          List.filter_map
            (function
              | Rule.Rule { head = Rule.Falsity; _ } as r ->
                  Some (compile_rule r, body_sigs r)
              | Rule.Rule _ | Rule.Weak _ -> None)
            rules;
      }
  end

type rule_entry = {
  e_rule : crule;
  e_pos_sigs : (string * int) array; (* positive body sigs, join order *)
  e_cond_sigs : (string * int) list; (* Deps.condition_signatures *)
  e_rev : Ground.grule list; (* this rule's instances, last emitted first *)
}

type prepared = {
  p_program : Program.t;
  p_max_atoms : int;
  p_store : store; (* frozen; always single-layer *)
  p_tables : tables; (* sorted candidate tables of [p_store] *)
  p_view : view; (* over [p_tables], its composite cache frozen *)
  p_entries : rule_entry array;
  p_templates : template array;
  p_tindex : (int * int) list SigTbl.t;
  p_universe : Model.AtomSet.t;
  p_numbering : Ground.numbering; (* of [p_universe], in [p_store]'s table *)
  p_rules : Ground.grule list; (* first occurrence of every instance *)
  p_decider : decider;
}

(* The instances of [cr] over [snap] pushed onto [acc], the last one
   emitted first: an entry's new instances then cost no copy of the ones
   it shares. Each counts as fresh: {!Stats.fresh_rules} is taken before
   any cross-rule dedup. *)
let instances snap stats ?views cr acc =
  let acc = ref acc in
  instantiate snap stats ?views cr ~emit:(fun gr ->
      stats.Stats.fresh_rules <- stats.Stats.fresh_rules + 1;
      acc := gr :: !acc);
  !acc

let new_entry snap stats r =
  let cr = compile_rule r in
  {
    e_rule = cr;
    e_pos_sigs = Array.of_list (Deps.positive_body_signatures r);
    e_cond_sigs = Deps.condition_signatures r;
    e_rev = instances snap stats cr [];
  }

(* The prepared state of [program] over the closed single-layer store
   [st]: the entries' instances deduplicated across rules (first
   occurrence, entry order), the view frozen — it is about to become
   shared, read-only state, so no further composite-mask materialization
   (concurrent extends read the cache) — and the universe numbered. *)
let seal ~program ~max_atoms ~templates ~tindex st tables view entries =
  let seen = GrTbl.create 256 in
  let keep acc gr =
    if GrTbl.mem seen gr then acc
    else begin
      GrTbl.replace seen gr ();
      gr :: acc
    end
  in
  let rules =
    List.rev
      (Array.fold_left
         (fun acc e -> List.fold_left keep acc (List.rev e.e_rev))
         [] entries)
  in
  view.v_cache.cc_frozen <- true;
  let universe, numbering = numbered st in
  {
    p_program = program;
    p_max_atoms = max_atoms;
    p_store = st;
    p_tables = tables;
    p_view = view;
    p_entries = entries;
    p_templates = templates;
    p_tindex = tindex;
    p_universe = universe;
    p_numbering = numbering;
    p_rules = rules;
    p_decider =
      {
        dc_lock = Mutex.create ();
        dc_base = lazy (decide_base program templates);
        dc_memo = Hashtbl.create 8;
        dc_next = 0;
        dc_held = 0;
      };
  }

let prepare ?(max_atoms = 200_000) ?stats p =
  timed stats @@ fun stats ->
  let rules = Program.rules p in
  List.iter check_rule rules;
  let st = new_store ~max_atoms None in
  let templates, tindex = build_templates rules in
  ignore
    (run_fixpoint st stats templates
       (fun sg -> Option.value ~default:[] (SigTbl.find_opt tindex sg))
       ~initial:(List.init (Array.length templates) Fun.id));
  let tables = sorted_tables st in
  let snap =
    { sn_view = view_of_tables tables; sn_mem = AtomTbl.mem st.st_univ }
  in
  seal ~program:p ~max_atoms ~templates ~tindex st tables snap.sn_view
    (Array.of_list (List.map (new_entry snap stats) rules))

let base p =
  {
    Ground.rules = p.p_rules;
    universe = p.p_universe;
    shows = Program.shows p.p_program;
    numbering = p.p_numbering;
  }

let base_universe p = p.p_universe
let ground ?max_atoms ?stats p = base (prepare ?max_atoms ?stats p)

(* ------------------------------------------------------------------ *)
(* Incremental grounding                                               *)
(* ------------------------------------------------------------------ *)

(* How a base table entry absorbs the overlay's entry for the same key. *)
let merge_sig bl nl = List.merge Atom.compare bl nl
let merge_pos (blen, bl) (nlen, nl) = (blen + nlen, merge_sig bl nl)

let merge_ints (ball, bks) (nall, nks) =
  (ball && nall, List.sort_uniq Int.compare (bks @ nks))

(* Merge the overlay's sorted tables into (copies of) the base tables:
   a prepared state's view is probed by every later extend, so its
   tables are merged whole, once. *)
let merge_tables base overlay =
  let merge copy iter find replace merge b o =
    let t = copy b in
    iter
      (fun k n ->
        replace t k (match find t k with Some v -> merge v n | None -> n))
      o;
    t
  in
  {
    tb_sigs =
      merge SigTbl.copy SigTbl.iter SigTbl.find_opt SigTbl.replace merge_sig
        base.tb_sigs overlay.tb_sigs;
    tb_poses =
      merge PosTbl.copy PosTbl.iter PosTbl.find_opt PosTbl.replace merge_pos
        base.tb_poses overlay.tb_poses;
    tb_ints =
      merge PosIdxTbl.copy PosIdxTbl.iter PosIdxTbl.find_opt PosIdxTbl.replace
        merge_ints base.tb_ints overlay.tb_ints;
  }

(* The same merge as a view, done per key on first lookup: an {!extend}
   probes a few of the base's keys, and copying all of them per call
   would cost more than its joins. The memo tables belong to the one
   call that owns the view. *)
let layered_view base overlay =
  let layer create find replace merge b o =
    let memo = create 16 in
    fun k ->
      match find o k with
      | None -> find b k
      | Some n -> (
          match find memo k with
          | Some v -> Some v
          | None ->
              let v = match find b k with Some v -> merge v n | None -> n in
              replace memo k v;
              Some v)
  in
  let sigs =
    layer SigTbl.create SigTbl.find_opt SigTbl.replace merge_sig
      base.tb_sigs overlay.tb_sigs
  in
  {
    v_sig = (fun k -> Option.value ~default:[] (sigs k));
    v_pos =
      layer PosTbl.create PosTbl.find_opt PosTbl.replace merge_pos
        base.tb_poses overlay.tb_poses;
    v_ints =
      layer PosIdxTbl.create PosIdxTbl.find_opt PosIdxTbl.replace merge_ints
        base.tb_ints overlay.tb_ints;
    v_cache = new_cache ();
  }

(* Flatten a two-layer overlay back into a single generation-0 store.
   [store_mem] and [iter_window] look through at most one base layer, so
   a [prepared] must always hold a single-layer store for the next
   overlay to see every atom. Generation 0 is correct for all future
   extends: their windows with [lo = 0] take the whole base layer. *)
let flatten_store ~max_atoms base overlay =
  let flat = new_store ~max_atoms None in
  let copy st =
    AtomTbl.iter
      (fun a _ ->
        if not (AtomTbl.mem flat.st_univ a) then begin
          AtomTbl.replace flat.st_univ a (-1);
          flat.st_count <- flat.st_count + 1;
          index_atom flat a 0
        end)
      st.st_univ
  in
  copy base;
  copy overlay;
  flat

(* The semi-naive rule index of base + increment: the increment's
   templates are numbered after the base's. *)
let combined_entries prep dtindex sg =
  let b = Option.value ~default:[] (SigTbl.find_opt prep.p_tindex sg) in
  match SigTbl.find_opt dtindex sg with
  | None -> b
  | Some d ->
      let nbase = Array.length prep.p_templates in
      b @ List.map (fun (ti, pos) -> (ti + nbase, pos)) d

(* Overlay phase 1: close the base universe under base + delta rules,
   starting from a naive pass over the delta's templates only (the base
   is already closed). Only reads the prepared state, so concurrent
   extends of one [prepared] are safe. Returns the overlay store, the
   combined templates and, on demand, their combined index. *)
let overlay_phase1 ~stats prep dp =
  List.iter check_rule (Program.rules dp);
  let st = new_store ~max_atoms:prep.p_max_atoms (Some prep.p_store) in
  let nbase = Array.length prep.p_templates in
  let dtemplates, dtindex = build_templates (Program.rules dp) in
  let templates = Array.append prep.p_templates dtemplates in
  let entries_for = combined_entries prep dtindex in
  ignore
    (run_fixpoint st stats templates entries_for
       ~initial:(List.init (Array.length dtemplates) (fun i -> i + nbase)));
  let tindex =
    lazy
      (let t = SigTbl.copy prep.p_tindex in
       SigTbl.iter (fun sg _ -> SigTbl.replace t sg (entries_for sg)) dtindex;
       t)
  in
  (st, templates, tindex)

(* Calls [keep e rev] on every entry [e] of base + delta, in order, with
   [rev] its instances over [snap] (whose view is the full universe's),
   last emitted first; [ntables] are the overlay's own tables. Rebuilding
   the entries here would promote them all to the major heap on a base of
   thousands of facts. Each base rule is classified by the signatures
   that gained atoms:
   - a touched condition signature (negated body atom, aggregate or
     choice-element condition) can change the content of existing
     instances -> recompute the rule from scratch against the full view;
   - touched positive body signatures only -> existing instances are
     unchanged (share them, in their order) and the only new instances
     are joins with at least one new atom: enumerate them delta-exactly
     per position (new at it, base-only strictly left, full right) and
     append them;
   - nothing touched -> share wholesale.
   The delta's own rules follow, instantiated against the full view. *)
let update_entries stats prep ntables snap dp keep =
  let new_view = view_of_tables ntables in
  let touched sg = SigTbl.mem ntables.tb_sigs sg in
  let update e =
    if List.exists touched e.e_cond_sigs then instances snap stats e.e_rule []
    else begin
      stats.Stats.reused_rules <-
        stats.Stats.reused_rules + List.length e.e_rev;
      if not (Array.exists touched e.e_pos_sigs) then e.e_rev
      else begin
        let acc = ref e.e_rev in
        Array.iteri
          (fun i sg ->
            if touched sg then
              acc :=
                instances snap stats e.e_rule !acc ~views:(fun k ->
                    if k = i then new_view
                    else if k < i then prep.p_view
                    else snap.sn_view))
          e.e_pos_sigs;
        !acc
      end
    end
  in
  Array.iter (fun e -> keep e (update e)) prep.p_entries;
  List.iter
    (fun r ->
      let e = new_entry snap stats r in
      keep e e.e_rev)
    (Program.rules dp)

let extend ?stats prep dp =
  timed stats @@ fun stats ->
  let st, _, _ = overlay_phase1 ~stats prep dp in
  let ntables = sorted_tables st in
  let mem a = AtomTbl.mem st.st_univ a || AtomTbl.mem prep.p_store.st_univ a in
  let snap = { sn_view = layered_view prep.p_tables ntables; sn_mem = mem } in
  let revs = ref [] in
  update_entries stats prep ntables snap dp (fun _ rev -> revs := rev :: !revs);
  {
    Ground.rules = List.fold_left (fun l rev -> List.rev_append rev l) [] !revs;
    universe = universe_of st prep.p_universe;
    shows = Program.shows prep.p_program @ Program.shows dp;
    numbering = prep.p_numbering;
  }

(* {!extend}'s update, kept as warm state: the overlay's tables are
   merged into the base's and its store flattened into a single layer. *)
let extend_prepare ?stats prep dp =
  timed stats @@ fun stats ->
  let st, templates, tindex = overlay_phase1 ~stats prep dp in
  let ntables = sorted_tables st in
  let tables = merge_tables prep.p_tables ntables in
  let store = flatten_store ~max_atoms:prep.p_max_atoms prep.p_store st in
  let snap =
    { sn_view = view_of_tables tables; sn_mem = AtomTbl.mem store.st_univ }
  in
  let entries = ref [] in
  update_entries stats prep ntables snap dp (fun e rev ->
      entries := { e with e_rev = rev } :: !entries);
  seal
    ~program:(Program.append prep.p_program dp)
    ~max_atoms:prep.p_max_atoms ~templates ~tindex:(Lazy.force tindex) store
    tables snap.sn_view
    (Array.of_list (List.rev !entries))

(* ------------------------------------------------------------------ *)
(* Deciding stratified increments                                      *)
(* ------------------------------------------------------------------ *)

(* Component numbers of the predicate dependency graph of [rules],
   callees first, from 1, and their count; a signature outside the graph
   (defined by facts only) takes component 0. [None] when the graph is
   not stratified. *)
let components rules =
  let g = Deps.of_program (Program.of_rules rules) in
  if not (Deps.stratified g) then None
  else begin
    let tbl = SigTbl.create 16 in
    let comps = Deps.sccs g in
    List.iteri
      (fun i comp -> List.iter (fun sg -> SigTbl.replace tbl sg (i + 1)) comp)
      comps;
    Some (tbl, List.length comps + 1)
  end

let comp_of tbl sg = Option.value ~default:0 (SigTbl.find_opt tbl sg)

(* [by_comp.(c)]: the templates [i < n] with [comp i = c], ascending *)
let by_comp ncomp n comp =
  let a = Array.make ncomp [] in
  for i = n - 1 downto 0 do
    let c = comp i in
    if c >= 0 then a.(c) <- i :: a.(c)
  done;
  a

(* none of the negated atoms, built under [env], is stored *)
let absent st env negs =
  List.for_all (fun c -> not (store_mem st (build env c))) negs

(* The perfect model, component by component: [by_comp.(c)] are the
   templates of component [c], [comp ti] the component of template [ti]
   (-1: not evaluated here). Each component runs the semi-naive rounds
   to its fixpoint before the next starts, so a negated atom — whose
   predicate lies in an earlier component or in [st]'s base layer under
   stratification — is checked against a complete extension. [memo c
   run] decides whether component [c] runs: by default it always does. *)
let run_components ?(memo = fun _ run -> run ()) st stats templates ~entries
    ~comp by_comp =
  let admit t env = absent st env t.t_neg in
  let round = ref 0 in
  Array.iteri
    (fun c initial ->
      if initial <> [] then
        memo c (fun () ->
            round :=
              run_fixpoint ~round:!round ~admit st stats templates
                (fun sg -> List.filter (fun (ti, _) -> comp ti = c) (entries sg))
                ~initial))
    by_comp

(* whether some constraint's body holds in the (complete) store *)
let violated st stats crs =
  let cands _ lv keys f = iter_window st stats ~lo:0 ~hi:max_int lv keys f in
  List.exists
    (fun cr ->
      let env = Array.make cr.cr_slots dummy in
      let matched = Array.make (Array.length cr.cr_body.p_levels) dummy_atom in
      match
        eval_errors cr.cr_rule (fun () ->
            execute cr.cr_body env matched ~cands ~on_match:(fun () ->
                if absent st env cr.cr_neg then raise_notrace Exit))
      with
      | () -> false
      | exception Exit -> true)
    crs

(* The signatures that depend, through the base's rules, on one of [d]
   (the signatures an increment defines), [d] included. An increment's
   own rules only add edges leaving [d], so they make nothing else
   dependent. *)
let dependents db d =
  let dep = SigTbl.create 16 in
  let rec visit sg =
    if not (SigTbl.mem dep sg) then begin
      SigTbl.replace dep sg ();
      List.iter visit (Option.value ~default:[] (SigTbl.find_opt db.db_users sg))
    end
  in
  List.iter visit d;
  dep

(* The base's share of every increment defining [d]: the model over the
   independent signatures (only base rules reach them, so it is the same
   for every such increment), the verdict of the constraints over them,
   and the component layout of the dependent rest. *)
let decide_entry stats prep db d =
  let templates = prep.p_templates in
  let n = Array.length templates in
  let dep = dependents db d in
  let dependent i = SigTbl.mem dep db.db_sigs.(i) in
  let rules side =
    List.filter defining
      (List.filter_map
         (fun i -> if dependent i = side then Some templates.(i).t_rule else None)
         (List.init n Fun.id))
  in
  let entries sg = Option.value ~default:[] (SigTbl.find_opt prep.p_tindex sg) in
  (* sub-programs of a stratified base are stratified *)
  let itbl, incomp = Option.get (components (rules false)) in
  let icomp i = if dependent i then -1 else comp_of itbl db.db_sigs.(i) in
  let st = new_store ~max_atoms:prep.p_max_atoms None in
  run_components st stats templates ~entries ~comp:icomp (by_comp incomp n icomp);
  let indep, deps =
    List.partition
      (fun (_, sigs) -> not (List.exists (SigTbl.mem dep) sigs))
      db.db_constraints
  in
  let drules = rules true in
  let dtbl, dncomp = Option.get (components drules) in
  let dcomp =
    Array.init n (fun i -> if dependent i then comp_of dtbl db.db_sigs.(i) else -1)
  in
  let dsigs = Array.of_seq (SigTbl.to_seq_keys dep) in
  let dindex = SigTbl.create (Array.length dsigs) in
  Array.iteri (fun i sg -> SigTbl.replace dindex sg i) dsigs;
  (* the dependent signatures among [sigs] outside component [c] *)
  let reads_of sigs c =
    List.filter_map
      (fun sg ->
        match SigTbl.find_opt dindex sg with
        | Some i when comp_of dtbl sg <> c -> Some i
        | Some _ | None -> None)
      sigs
  in
  let reads = Array.make dncomp [] and outs = Array.make dncomp [] in
  Array.iteri
    (fun i sg ->
      let c = comp_of dtbl sg in
      outs.(c) <- i :: outs.(c))
    dsigs;
  Array.iteri
    (fun i c ->
      if c >= 0 then
        reads.(c) <- reads_of (body_sigs templates.(i).t_rule) c @ reads.(c))
    dcomp;
  let fed = Array.make dncomp false in
  List.iter (fun sg -> fed.(comp_of dtbl sg) <- true) d;
  {
    de_store = st;
    de_violated = violated st stats (List.map fst indep);
    de_comp = dcomp;
    de_by_comp = by_comp dncomp n (Array.get dcomp);
    de_sig_comp = dtbl;
    de_rules = drules;
    de_constraints = List.map fst deps;
    de_dsigs = dsigs;
    de_dindex = dindex;
    de_reads = Array.map (List.sort_uniq Int.compare) reads;
    de_outs = outs;
    de_fed = fed;
    de_contents = Array.map (fun _ -> IntTbl.create 8) dsigs;
    de_comps = IdsTbl.create 16;
    de_hits = 0;
  }

(* distinct increments kept per prepared base; past it, entries are
   computed per call and dropped *)
let memo_cap = 16

let memo_entry stats prep db d =
  let dc = prep.p_decider in
  Mutex.protect dc.dc_lock (fun () ->
      match Hashtbl.find_opt dc.dc_memo d with
      | Some e -> e
      | None ->
          let e =
            try Some (decide_entry stats prep db d)
            with Unsafe _ | Overflow _ -> None
          in
          if Hashtbl.length dc.dc_memo < memo_cap then
            Hashtbl.replace dc.dc_memo d e;
          e)

(* Within one signature, a hash of the arguments is the atom's. Mixed
   (the splitmix64 finalizer, on 63 bits) before a set sums them: the
   raw FNV keys of [active(ms7)] and [active(ms12)] sum to those of
   [active(ms8)] and [active(ms11)]. *)
let args_hash (a : Atom.t) =
  let h =
    List.fold_left (fun h t -> (h * 0x01000193) lxor Term.hash t) 0 a.Atom.args
  in
  let h = (h lxor (h lsr 30)) * 0x3f58476d1ce4e5b9 in
  let h = (h lxor (h lsr 27)) * 0x14d049bb133111eb in
  h lxor (h lsr 31)

(* Atoms and entries the component memos of one prepared base keep, at
   most. *)
let held_cap = 1 lsl 14

(* Whether [e]'s memo may keep [n] more atoms or entries: within
   [held_cap], and while it pays its way. Past its first 64 entries it
   must answer a hit per 16 entries stored, so the memo of a workload
   whose jobs never repeat an extension (every frontier subset shields
   a distinct set) stops keeping within a few jobs, and its jobs then
   look nothing up. Under [dc_lock]. *)
let room dc e n =
  let stored = IdsTbl.length e.de_comps in
  dc.dc_held + n <= held_cap && (stored < 64 || 16 * e.de_hits >= stored)

(* The content id of an extension of dependent signature [i] of [e]:
   [n] distinct atoms whose {!args_hash}es sum to [h], [mem] telling its
   members. An equal extension kept before gives its id, compared atom
   by atom: the hash only picks the candidates. Else the extension gets
   a new id, and is kept (its [atoms ()]) while the memo has {!room};
   one not kept is unnamed ([None]), so that no key holding it is ever
   looked up or stored. Under [dc_lock]. *)
let intern dc e i ~h ~n ~mem atoms =
  let tbl = e.de_contents.(i) in
  let kept = Option.value ~default:[] (IntTbl.find_opt tbl h) in
  match
    List.find_opt (fun x -> x.x_len = n && List.for_all mem x.x_atoms) kept
  with
  | Some x -> Some x
  | None when room dc e n ->
      let x = { x_id = dc.dc_next; x_len = n; x_atoms = atoms () } in
      dc.dc_next <- dc.dc_next + 1;
      dc.dc_held <- dc.dc_held + n;
      IntTbl.replace tbl h (x :: kept);
      Some x
  | None -> None

(* Move dependent signature [i]'s pending extension, if any, into
   [st]'s own layer. Its atoms are complete and already counted:
   generation 0, as the base layer's. *)
let materialise st pending i =
  match pending.(i) with
  | None -> ()
  | Some atoms ->
      pending.(i) <- None;
      List.iter
        (fun a ->
          AtomTbl.replace st.st_univ a (-1);
          index_atom st a 0)
        atoms

(* The component memo's side of one facts-only increment evaluated in
   [st]: the [memo] hook of {!run_components}. A component's key is its
   number and the content ids of the dependent signatures it reads,
   positive and negated (a negated atom blocks as surely as a positive
   one derives); everything else it reads is the same for every job of
   [e]. A component the increment's facts define has those facts as an
   input too: it always runs, and its extensions' content ids carry the
   facts into every later key. So does a component reading an unnamed
   extension. A hit takes the stored extensions and leaves them in
   [pending] until a later missing component reads them; a miss runs
   the component and stores what it derived once all of it is kept. *)
let memoised dc e st pending =
  let with_lock f = Mutex.protect dc.dc_lock f in
  let ids = Array.make (Array.length e.de_dsigs) (-1) in
  let measure i =
    match SigTbl.find_opt st.st_by_sig e.de_dsigs.(i) with
    | Some b ->
        (i, List.fold_left (fun h (a, _) -> h + args_hash a) 0 b.b_items, b)
    | None -> (i, 0, empty_bucket)
  in
  let content (i, h, b) =
    let x =
      intern dc e i ~h ~n:b.b_len ~mem:(AtomTbl.mem st.st_univ) (fun () ->
          List.map fst b.b_items)
    in
    ids.(i) <- (match x with Some x -> x.x_id | None -> -1);
    Option.map (fun x -> (i, x)) x
  in
  fun c run ->
    let key =
      let ins = List.map (Array.get ids) e.de_reads.(c) in
      if e.de_fed.(c) || List.mem (-1) ins then None else Some (c :: ins)
    in
    let hit key =
      with_lock (fun () ->
          let outs = IdsTbl.find_opt e.de_comps key in
          if Option.is_some outs then e.de_hits <- e.de_hits + 1;
          outs)
    in
    match Option.bind key hit with
    | Some outs ->
        List.iter
          (fun (i, x) ->
            ids.(i) <- x.x_id;
            pending.(i) <- Some x.x_atoms;
            grow st x.x_len)
          outs
    | None ->
        List.iter (materialise st pending) e.de_reads.(c);
        run ();
        let measured = List.map measure e.de_outs.(c) in
        with_lock @@ fun () ->
        let kept = List.filter_map content measured in
        Option.iter
          (fun key ->
            if
              List.compare_lengths kept measured = 0
              && room dc e 1
              && not (IdsTbl.mem e.de_comps key)
            then begin
              dc.dc_held <- dc.dc_held + 1;
              IdsTbl.replace e.de_comps key kept
            end)
          key

(* The atoms of the shown signatures in both layers of [st] and in
   [pending] (by [e]'s signature numbers), or all of them when nothing
   is shown. An atom of the base universe is answered by the base's own
   copy: answers are kept (cached, stored), and the solver's answers
   share those atoms too. *)
let shown_atoms prep e st pending shows =
  let ids = prep.p_numbering.Ground.ids in
  let add acc a =
    let a =
      match Atom.Tbl.find_opt ids a with
      | Some i -> prep.p_numbering.Ground.by_id.(i)
      | None -> a
    in
    Model.AtomSet.add a acc
  in
  let add_pending acc = function
    | Some atoms -> List.fold_left add acc atoms
    | None -> acc
  in
  let layers = st :: Option.to_list st.st_base in
  match shows with
  | [] ->
      Array.fold_left add_pending
        (List.fold_left
           (fun acc l -> AtomTbl.fold (fun a _ acc -> add acc a) l.st_univ acc)
           Model.AtomSet.empty layers)
        pending
  | shows ->
      List.fold_left
        (fun acc sg ->
          let acc =
            List.fold_left
              (fun acc l ->
                match SigTbl.find_opt l.st_by_sig sg with
                | Some b -> List.fold_left (fun acc (a, _) -> add acc a) acc b.b_items
                | None -> acc)
              acc layers
          in
          match SigTbl.find_opt e.de_dindex sg with
          | Some i -> add_pending acc pending.(i)
          | None -> acc)
        Model.AtomSet.empty shows

(* The component layout of base + increment: the memo entry's own when
   the increment brings facts and constraints only (no edges), else the
   dependent base rules' and the increment's graph taken afresh — [None]
   when the increment's rules break stratification. Returns the
   signature table and the base templates' components. *)
let layout db e rules =
  match List.filter defining rules with
  | [] -> Some (e.de_sig_comp, Array.get e.de_comp, e.de_by_comp)
  | defs ->
      Option.map
        (fun (tbl, ncomp) ->
          let comp i =
            if e.de_comp.(i) < 0 then -1 else comp_of tbl db.db_sigs.(i)
          in
          (tbl, comp, by_comp ncomp (Array.length e.de_comp) comp))
        (components (e.de_rules @ defs))

(* The increment's perfect model on top of [e]'s independent store: the
   overlay holding its dependent atoms and the extensions the component
   memo answered that nothing read ({!memoised}; facts-only increments
   only, since rules change the layout); [None] if a dependent or delta
   constraint fails in it. *)
let model stats prep e rules (tbl, base_comp, base_by_comp) =
  let dtemplates, dtindex = build_templates rules in
  let nb = Array.length prep.p_templates in
  let dcomp = Array.map (fun t -> comp_of tbl (head_sig t)) dtemplates in
  let groups = Array.copy base_by_comp in
  Array.iteri (fun j c -> groups.(c) <- groups.(c) @ [ nb + j ]) dcomp;
  let comp ti = if ti < nb then base_comp ti else dcomp.(ti - nb) in
  (* a per-call overlay: sized small, the tables grow if they must *)
  let st = new_store ~size:64 ~max_atoms:prep.p_max_atoms (Some e.de_store) in
  let pending = Array.make (Array.length e.de_dsigs) None in
  let memo =
    if List.exists defining rules then None
    else Some (memoised prep.p_decider e st pending)
  in
  run_components ?memo st stats
    (Array.append prep.p_templates dtemplates)
    ~entries:(combined_entries prep dtindex) ~comp groups;
  let dconstraints =
    List.filter
      (function
        | Rule.Rule { head = Rule.Falsity; _ } -> true
        | Rule.Rule _ | Rule.Weak _ -> false)
      rules
  in
  let constraints = e.de_constraints @ List.map compile_rule dconstraints in
  List.iter
    (fun cr ->
      List.iter
        (fun sg ->
          Option.iter (materialise st pending) (SigTbl.find_opt e.de_dindex sg))
        (body_sigs cr.cr_rule))
    constraints;
  if violated st stats constraints then None else Some (st, pending)

let decide ?stats prep dp =
  timed stats @@ fun stats ->
  let ( let* ) = Option.bind in
  let rules = Program.rules dp in
  let dc = prep.p_decider in
  try
    let* db =
      if List.for_all normal_rule rules then
        Mutex.protect dc.dc_lock (fun () -> Lazy.force dc.dc_base)
      else None
    in
    List.iter check_rule rules;
    let d =
      List.sort_uniq compare
        (List.concat_map
           (fun r -> List.map Atom.signature (Rule.head_atoms r))
           rules)
    in
    let* e = memo_entry stats prep db d in
    let* lay = layout db e rules in
    let models =
      match if e.de_violated then None else model stats prep e rules lay with
      | Some (st, pending) ->
          [
            Model.make
              (shown_atoms prep e st pending
                 (Program.shows prep.p_program @ Program.shows dp));
          ]
      | None -> []
    in
    stats.Stats.decided <- stats.Stats.decided + 1;
    Some models
  with Unsafe _ | Overflow _ -> None
