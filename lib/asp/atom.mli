(** Predicate atoms [p(t1, …, tn)]. *)

type t = { pred : string; args : Term.t list }

val make : string -> Term.t list -> t
val prop : string -> t
(** Propositional atom (no arguments). *)

val arity : t -> int
val signature : t -> string * int
val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** Folds the arguments' precomputed {!Term.hash} keys: O(arity),
    deterministic across runs. *)

val is_ground : t -> bool
val vars : t -> string list
val substitute : Term.subst -> t -> t

val eval : t -> t
(** Evaluate arithmetic in all arguments (ground atoms only). *)

val rehydrate : t -> t
(** Re-intern every argument (see {!Term.rehydrate}). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Tbl : Hashtbl.S with type key = t
(** Keyed on {!hash}/{!equal}: the precomputed term hashes, not
    polymorphic hashing over the atom structure. *)
