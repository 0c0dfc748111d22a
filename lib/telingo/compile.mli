(** Telingo-style temporal ASP ("telingo = ASP + time", §II.C): LTLf
    formulas compiled into logic-program rules over a time-indexed trace.

    Each subformula [i] becomes a predicate [<prefix>sat_i/1] defined
    compositionally over the time points [time(0..H)]; the returned root
    atom holds exactly when the formula is satisfied at time 0 under
    finite-trace semantics. Negation is applied only to deeper subformulas,
    so the generated program is stratified and has a unique stable model
    once the trace facts are fixed.

    The default trace vocabulary is [holds(Var, Value, T)] — the atom
    ["level=overflow"] reads [holds(level, overflow, T)], a bare atom
    ["alert"] reads [holds(alert, true, T)] — and can be overridden per
    atom with [encode], which is how the water-tank backend maps ["alert"]
    onto its [alert(T)] predicate. *)

type encoding = string -> Asp.Term.t -> Asp.Lit.t
(** [encode atom time_term] is the body literal stating that [atom] holds
    at [time_term]. *)

val default_encoding : encoding

type context = {
  params : Asp.Term.t list;  (** extra arguments threaded through every
                                 satisfaction predicate (e.g. a scenario
                                 variable) *)
  guards : Asp.Lit.t list;   (** body literals binding those arguments
                                 (e.g. [scenario(S)]) *)
}

val no_context : context

val formula :
  ?prefix:string ->
  ?encode:encoding ->
  ?context:context ->
  horizon:int ->
  Ltl.Formula.t ->
  Asp.Program.t * Asp.Atom.t
(** [formula ~horizon f] returns the defining rules and the root atom
    (satisfaction of [f] at time 0 over the trace [0..horizon]). The
    caller must supply [time(0..horizon)] facts and the trace vocabulary.
    [prefix] defaults to ["f"], yielding predicates [fsat_0], [fsat_1], …

    With a [context], every satisfaction predicate carries the context
    parameters in front of the time argument and every rule includes the
    guards — one compilation then checks the requirement for {e each}
    binding of the context (e.g. every attack scenario in a joint
    program). The [encode] callback must produce literals mentioning the
    same parameters where appropriate. The returned root atom keeps the
    context parameters as variables. Context parameters must not use the
    reserved variable names [TLT_NOW] and [TLT_NEXT]. *)

val encoded_atoms : ?encode:encoding -> Ltl.Formula.t -> (string * Asp.Lit.t) list
(** Each atom of the formula paired with the body literal it compiles to
    (at the internal "now" time variable). This is the formula's footprint
    on the trace vocabulary — the lint layer checks it against what the
    dynamics rules can actually derive. *)

val violated_rule : requirement:string -> root:Asp.Atom.t -> Asp.Rule.t
(** [violated(requirement) :- not root.] *)

val trace_facts : Ltl.Trace.t -> Asp.Program.t
(** [time(T)] and [holds(Var, Value, T)] facts for a concrete trace (all
    variable values are emitted through the default vocabulary). *)

val check_trace : Ltl.Trace.t -> Ltl.Formula.t -> bool
(** Satisfaction of the formula on the trace, decided entirely inside the
    ASP engine (compile + ground + solve + query the root atom). Agrees
    with {!Ltl.Trace.eval} — the property the test suite enforces. *)

(** {2 Horizons of an ultimately periodic trace}

    [formula ~horizon:h] checks the formula on the trace positions
    [0..h]. When the trace is a lasso — it is the prefix of an infinite
    trace with [w(t + period) = w(t)] for every [t >= prefix] — most
    horizons give the same answer, and the checks at horizon [H] and at
    {!reduce_horizon}[ H] agree for every formula of temporal depth at
    most [depth].

    The argument. Number the positions by their distance [x] from the
    last one. Take [H ≡ H' (mod period)], both at least
    [prefix + depth·period]. A position with [x <= H - prefix] lies on
    the loop, and its state depends only on [x] and [H mod period]. So
    the two traces hold the same state at each such distance. Claim, by
    induction on [k]: on the loop, a subformula of depth at most [k]
    has a value that depends only on [x] while [x < k·period], and only
    on [x mod period] from there on. Depth 0 reads one state. [X] and
    [WX] read the value at [x - 1]. [F], [G], [U] and [R] scan from [x]
    down to 0 and stop at the first position that settles them. Their
    operands' values below [(k-1)·period] are fixed, and from there on
    they repeat with the period. A scan that starts at [x >= k·period]
    first crosses at least one whole period of repeating values. Each
    period either settles the scan, at the same phase in both traces,
    or hands it on unchanged to the next. So the scan's result depends
    only on [x mod period]. The positions before [prefix] are the same
    in both traces. They see the loop only through values at
    [x <= H - prefix], and [H - prefix >= depth·period]. So the formula
    has the same value at position 0 in both. {!reduce_horizon} picks
    the representative in [prefix + depth·period] to
    [prefix + (depth+1)·period - 1]. A qcheck case checks the rule
    against {!Ltl.Trace.eval_at} on seeded formulas and lassos. It
    fails with the threshold [prefix + (depth-1)·period]. *)

val temporal_depth : Ltl.Formula.t -> int
(** The nesting depth of temporal operators: [X], [WX], [F], [G], [U]
    and [R] each count 1, the Boolean connectives 0. [G !a] has depth 1,
    [G (a -> F b)] depth 2. *)

val reduce_horizon : depth:int -> prefix:int -> period:int -> int -> int
(** [reduce_horizon ~depth ~prefix ~period h] is [h] when
    [h < prefix + depth·period], else
    [prefix + depth·period + ((h - prefix) mod period)]: a horizon of at
    most [h] with the same answer as [h] on a lasso trace, for every
    formula of temporal depth at most [depth] (argument above). Raises
    [Invalid_argument] on a negative [prefix] or [depth] or a [period]
    below 1. *)
