(** Atom interning and a dense compiled form of ground programs.

    After grounding, every ground atom is mapped to a contiguous [int] id
    (reusing the grounder's universe index as the table seed, in
    {!Atom.compare} order so bit order equals atom order). Rule bodies
    become int arrays, interpretations become {!Bitset.t} assignments, and
    the structural [Atom.t]/[AtomSet] representation is reconstructed only
    at the {!Model.t} API boundary. *)

type count_elem = { etuple : Term.t list; epos : int array; eneg : int array }

type count = {
  ckind : Lit.agg_kind;
  celems : count_elem array;
  cop : Lit.cmp;
  cbound : int;
}

type rule = { head : int; pos : int array; neg : int array; counts : int array }
(** [counts] are indices into the shared {!field:t.counts} table. *)

type elem = { eatom : int; egpos : int array; egneg : int array }

type choice = {
  lower : int option;
  upper : int option;
  elems : elem array;
  cpos : int array;
  cneg : int array;
  ccounts : int array;
}

type constr = { kpos : int array; kneg : int array; kcounts : int array }

type weak = {
  wpos : int array;
  wneg : int array;
  wcounts : int array;
  weight : int;
  priority : int;
  terms : Term.t list;
}

module AtomTbl : Hashtbl.S with type key = Atom.t
(** Keyed on {!Atom.hash}/{!Atom.equal}: the precomputed term hashes,
    not polymorphic hashing over the atom structure. *)

type t = {
  atoms : Atom.t array;  (** id -> atom *)
  index : int AtomTbl.t;  (** atom -> id *)
  n_atoms : int;
  facts : int array;
  rules : rule array;
  choices : choice array;
  constraints : constr array;
  weaks : weak array;
  counts : count array;  (** shared aggregate table *)
  choice_atoms : Bitset.t;  (** atoms occurring as choice-element heads *)
  derived_head : Bitset.t;
      (** atoms with a fact or regular-rule derivation; a choice atom
          outside this set is certainly false once decided out *)
  has_counts : bool;
  has_negative_weight : bool;
      (** when true, partial weak-constraint cost is not a lower bound and
          branch-and-bound pruning must be disabled *)
}

val compile : Ground.t -> t

val id : t -> Atom.t -> int
(** Raises [Not_found] for atoms outside the compiled program. *)

val atoms_of_bitset : t -> Bitset.t -> Model.AtomSet.t
(** Reconstruct the structural atom set at the API boundary. *)

val eval_count : t -> Bitset.t -> count -> bool
(** Same aggregate semantics as the reference solver: the aggregated value
    over distinct tuples whose condition holds, compared to the bound. *)

val counts_sat : t -> Bitset.t -> int array -> bool

val cost_of : t -> Bitset.t -> Model.cost
(** Weak-constraint cost of a total assignment, with per-(priority, weight,
    terms) tuple deduplication, sorted by descending priority. *)
