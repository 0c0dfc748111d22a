(** Reference grounder — the pre-rewrite naive two-phase implementation,
    retained as the test-only differential oracle for [Asp.Grounder] (the
    role {!Naive} plays for [Asp.Solver]).

    Phase-2 candidate enumeration is canonicalised to ascending
    {!Atom.compare} order, and {!Grounder} does the same, so on any program
    both accept the two produce structurally equal [Ground.t] values —
    the property [test/test_grounder_diff.ml] enforces over seeded random
    programs. Slow by construction (naive fixpoint, linear candidate scans):
    use {!Grounder} everywhere outside tests. *)

exception Unsafe of string
(** A rule violates the safety condition, or grounding got stuck on an
    undischargeable builtin / non-integer aggregate bound or weight. *)

exception Overflow of string
(** The universe exceeded [max_atoms]. *)

val ground : ?max_atoms:int -> Program.t -> Ground.t
(** [max_atoms] defaults to 200_000. *)
