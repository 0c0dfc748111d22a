(** Bottom-up fixpoint abstract interpretation over {!Asp.Program}.

    One [analyze] pass computes, for every predicate signature, a
    per-argument {!Domain.t} (sound over-approximation of the ground terms
    that can appear at that position) together with a cardinality estimate
    of its derivable ground instances, and, for every rule, a satisfiable /
    dead verdict plus an estimated grounding cost. The domains drive the
    L2xx semantic lint family ({!Semlint}); the cardinalities drive the
    grounding-cost report and the L212 blowup lint.

    Soundness contract: domains and derivability only over-approximate, so
    [dead <> None] and every {!dead_cause} are proofs; cardinalities and
    costs are estimates (no guarantee beyond best effort — tests pin them
    to within an order of magnitude on the benchmark workloads). *)

(** Why a rule body (or choice element) can provably never be satisfied. *)
type dead_cause =
  | Undefined_pred of string * int
      (** positive literal over a predicate that appears in no head *)
  | Underivable_pred of string * int
      (** predicate has defining rules, but none with a satisfiable body *)
  | Empty_arg of { pred : string * int; arg : int; term : Asp.Term.t }
      (** a ground argument outside the producer's inferred domain *)
  | Disjoint_var of string
      (** a variable whose occurrences have provably disjoint domains *)
  | False_cmp of Asp.Lit.t  (** comparison false under the inferred domains *)
  | False_agg of Asp.Lit.t  (** aggregate bound provably unsatisfiable *)

val dead_cause_to_string : dead_cause -> string

type pred_info = {
  psig : string * int;
  doms : Domain.t array;  (** per-argument abstract domain *)
  card : float;  (** estimated number of derivable ground instances *)
  fact_count : int;  (** exact number of distinct ground fact instances *)
  exact : bool;  (** [card] is exact (facts only, no deriving rules) *)
  defined : bool;  (** occurs in some rule head *)
  derivable : bool;  (** some fact or satisfiable rule can derive it *)
  consumed : bool;
      (** occurs in a body, aggregate condition, constraint, weak
          constraint, or [#show] (an empty show list consumes all) *)
}

type rule_info = {
  index : int;  (** position in [Asp.Program.rules] *)
  rule : Asp.Rule.t;
  env : (string * Domain.t) list;
      (** inferred domain of each body variable, comparisons applied *)
  dead : dead_cause option;
  firings : float;  (** estimated satisfying ground substitutions *)
  cost : float;  (** estimated instantiation work (choice elements included) *)
  cmp_true : Asp.Lit.t list;
      (** body comparisons provably true before comparison narrowing *)
  false_aggs : Asp.Lit.t list;
  dead_elems : (Asp.Atom.t * dead_cause) list;
      (** choice elements whose condition can never hold *)
  live_elems : int;  (** remaining choice elements ([0] for normal rules) *)
}

type t

val analyze : ?max_rounds:int -> Asp.Program.t -> t
(** Run the domain fixpoint (widening kicks in after a few rounds) followed
    by the cardinality fixpoint. [max_rounds] bounds both loops. *)

val program : t -> Asp.Program.t
val preds : t -> pred_info list
(** Sorted by signature. *)

val find_pred : t -> string * int -> pred_info option
val rules : t -> rule_info list
(** In program order. *)

val const_universe : t -> int
(** Distinct ground constants in the program — the default cardinality of
    an unbounded ([Top] / infinite-interval) argument domain. *)

val total_cost : t -> float
(** Sum of per-rule cost estimates. *)

val eval_term : t -> (string * Domain.t) list -> Asp.Term.t -> Domain.t
(** Abstract value of a term under a variable environment (e.g. a
    {!rule_info.env}). *)
