(** Clark-completion compilation of an interned ground program into
    clauses over an extended variable space — the input of the CDNL solver
    ({!Solver}).

    Variables are laid out as atom ids [[0, n_atoms)], then one aggregate
    variable per entry of the shared count table, then one body variable
    per rule body / choice-element instance. A literal is an [int]: [2v]
    asserts variable [v] true, [2v+1] asserts it false. A clause is an
    array of literals of which at least one must hold.

    Aggregate variables, choice bounds and weak constraints carry no
    clauses; the solver evaluates them lazily once their atom scope is
    fully assigned, matching the reference semantics of the test oracles,
    where aggregates are tested against the total candidate and
    contribute no foundedness. For non-tight programs the module precomputes the
    non-trivial SCCs of the positive atom dependency graph and per-atom
    support bodies, the inputs of the solver's unfounded-set check. *)

type body = {
  bvar : int;  (** variable id of this body *)
  bhead : int;  (** head atom id, [-1] for none *)
  bchoice : bool;  (** choice-element body: licenses but does not force *)
  bpos : int array;  (** atom ids required true *)
  bneg : int array;  (** atom ids required false *)
  bcounts : int array;  (** count indices required to hold *)
}

type t = {
  p : Interned.t;
  n_atoms : int;
  n_counts : int;
  n_vars : int;
  bodies : body array;
  clauses : int array list;  (** completion clauses, in emission order *)
  agg_scope : int array array;  (** count idx -> atom ids mentioned *)
  bound_scope : (int * int array) array;
      (** (choice idx, atom scope) for every bounded choice *)
  weak_scope : int array array;  (** weak idx -> atom ids mentioned *)
  sccs : int array array;  (** non-trivial positive SCCs, sorted atom ids *)
  scc_of : int array;  (** atom -> SCC index, [-1] outside loops *)
  supports : (int * int array) list array;
      (** atom -> [(body idx, same-SCC positive atoms)] for loop atoms *)
  is_fact : Bitset.t;
  tight : bool;  (** no positive recursion: unfounded checks unnecessary *)
  unsat : bool;  (** an empty constraint body: no model at all *)
}

val lit_true : int -> int
val lit_false : int -> int
val var_of_lit : int -> int

val lit_neg : int -> bool
(** True when the literal asserts its variable false. *)

val agg_var : t -> int -> int
(** Variable id of the aggregate at the given count-table index. *)

val compile : Interned.t -> t
