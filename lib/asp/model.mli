(** Answer sets (stable models): sets of ground atoms plus the optimization
    cost derived from weak constraints. *)

module AtomSet : Set.S with type elt = Atom.t

type cost = (int * int) list
(** [(priority, weight-sum)] pairs, sorted by descending priority. *)

type t

val make : ?cost:cost -> AtomSet.t -> t
val atoms : t -> AtomSet.t
val to_list : t -> Atom.t list
(** Sorted atom list. *)

val holds : t -> Atom.t -> bool
val holds_pred : t -> string -> bool
(** True when any atom with the given predicate name holds. *)

val by_predicate : t -> string -> Atom.t list
(** All atoms of the model with the given predicate name, sorted. *)

val project : (string * int) list -> t -> t
(** Restrict to the given predicate signatures (as [#show] does). *)

val cost : t -> cost

val rehydrate : t -> t
(** Re-intern every atom's terms (see {!Term.rehydrate}); the set and cost
    are unchanged. Apply to models resurrected by [Marshal] (which bypasses
    hash-consing) before mixing them with freshly built terms. *)

val compare_cost : cost -> cost -> int
(** Lexicographic comparison, higher priority levels first; missing levels
    count as weight 0. Smaller is better. *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Atom sets first, then {!compare_cost}. The cost only decides between
    models that show the same atoms: a whole model's cost is derived from
    its atoms, but two projected models may differ in cost alone. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
