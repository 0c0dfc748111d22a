(** Ground (variable-free) programs produced by {!Grounder}. Built-in
    comparisons are already evaluated away; negative body literals are kept
    only when their atom is derivable at all (atoms outside the universe are
    simplified to true negations and dropped). *)

type gelem = { gatom : Atom.t; gpos : Atom.t list; gneg : Atom.t list }
(** Ground choice element: atom with its instantiated condition. *)

type gcount_elem = { etuple : Term.t list; epos : Atom.t list; eneg : Atom.t list }
(** One instantiated aggregate element: the counted tuple and its ground
    condition. *)

type gcount = {
  ckind : Lit.agg_kind;
  celems : gcount_elem list;
  cop : Lit.cmp;
  cbound : int;
}
(** Ground aggregate: satisfied when the aggregated value over the distinct
    [etuple]s whose condition holds — their number ([Cardinality]) or the
    sum of their first integer components ([Summation]) — compares to
    [cbound] under [cop]. *)

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

type numbering = private { by_id : Atom.t array; ids : int Atom.Tbl.t }
(** Dense atom ids [0 .. n-1] over a closed universe, in {!Atom.compare}
    order: [by_id.(i)] is the atom with id [i], [ids] the inverse.
    Read-only once built, so one numbering is shared by every domain that
    compiles a program grounded on it. *)

type t = {
  rules : grule list;
  universe : Model.AtomSet.t;  (** over-approximation of derivable atoms *)
  shows : (string * int) list;
  numbering : numbering;
      (** The numbering the program was grounded on: its whole universe
          for {!Grounder.ground}, the base universe for
          {!Grounder.extend}. {!Interned.compile} takes every id it holds
          and numbers only the atoms outside it. *)
}

val number : ?table:int Atom.Tbl.t -> Model.AtomSet.t -> numbering
(** Number a universe in {!Atom.compare} order. The ids are recorded in
    [table] when given (the grounder passes the universe table it already
    has; values it held are overwritten), else in a fresh table. *)

val rule_count : t -> int
val atom_count : t -> int

val equal : t -> t -> bool
(** Structural equality, rule-for-rule ({!equal_rule}) and in order, of
    the universes, [#show] lists and rules: the relation the grounder
    differential suite enforces between {!Grounder} and the test-only
    reference grounder's output. The numbering follows from the universe
    and is not compared. *)

val equal_rule : grule -> grule -> bool
(** Structural rule equality via {!Term.equal} on the interned terms —
    O(1) per subterm, unlike polymorphic [(=)] which re-walks nodes. *)

val hash_rule : grule -> int
(** Deterministic hash folding the terms' precomputed hkeys; consistent
    with {!equal_rule}. Backs the grounder's instance-dedup tables. *)

val equal_elem : gelem -> gelem -> bool
val hash_elem : gelem -> int
val equal_celem : gcount_elem -> gcount_elem -> bool
val hash_celem : gcount_elem -> int
(** Same contract as {!equal_rule}/{!hash_rule} for choice and aggregate
    elements (the per-rule element dedup tables). *)

val pp_rule : Format.formatter -> grule -> unit
val pp : Format.formatter -> t -> unit
