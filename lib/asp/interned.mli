(** Atom interning and a dense compiled form of ground programs.

    Every ground atom is mapped to a contiguous [int] id. The ids are the
    program's {!Ground.numbering}'s, taken as they are, followed by the
    atoms outside it, numbered in order of first occurrence in the rules.
    For a one-shot grounding the numbering covers the whole universe, so
    ids ascend in {!Atom.compare} order. For an increment of a prepared
    base ({!Grounder.extend}) the numbering is the base's: every base atom
    keeps its base id in every increment, compilation looks the base atoms
    up instead of re-numbering them, and the increment's new atoms come
    after them — an extended program's ids are no longer globally in
    {!Atom.compare} order. Rule bodies become int arrays, interpretations
    become {!Bitset.t} assignments, and the structural [Atom.t]/[AtomSet]
    representation is reconstructed only at the {!Model.t} API boundary,
    and only for the atoms the program shows. *)

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

type t = {
  atoms : Atom.t array;  (** id -> atom *)
  numbering : Ground.numbering;  (** atom -> id, for the numbering's atoms *)
  extra : int Atom.Tbl.t;  (** atom -> id, for the atoms outside it *)
  n_atoms : int;
  shows : (string * int) list;  (** the program's [#show] signatures *)
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
(** Reconstruct the structural atom set at the API boundary: the true
    atoms of the program's [#show] signatures, or every true atom when it
    declares none. The one place the solving tiers turn an assignment
    into a model, so no model is built whole only to be projected. *)

val eval_count : t -> Bitset.t -> count -> bool
(** Same aggregate semantics as the reference solver: the aggregated value
    over distinct tuples whose condition holds, compared to the bound. *)

val counts_sat : t -> Bitset.t -> int array -> bool

val cost_of : t -> Bitset.t -> Model.cost
(** Weak-constraint cost of a total assignment, with per-(priority, weight,
    terms) tuple deduplication, sorted by descending priority. *)
