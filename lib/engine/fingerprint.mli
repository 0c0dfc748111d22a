(** Content addresses for ASP programs.

    A fingerprint is a structural 128-bit (2 x FNV-1a-64) hash over a
    program's rules, facts and [#show] directives. It ignores source
    positions, so a parsed program and a programmatically built one with the
    same structure collide — which is exactly what the solve cache wants:
    the fingerprint keys memoized [(models, stats)] results in
    {!Cache}, and two jobs whose compiled programs are structurally equal
    share one solve.

    Rule order is significant (programs are hashed as streams), [#show]
    directives are hashed order-insensitively. Streaming makes {!extend}
    cheap: the fingerprint of [Asp.Program.append base inc] is
    [extend (program base) inc], so a sweep hashes its base once and pays
    only for each job's small increment. *)

type t

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val to_hex : t -> string
(** 32 hex digits. *)

val program : Asp.Program.t -> t

val extend : t -> Asp.Program.t -> t
(** [extend (program base) inc = program (Asp.Program.append base inc)]. *)

val combine : t -> t -> t
(** Order-sensitive mix of two fingerprints (e.g. to key a program paired
    with a solve mode). *)

val rule : Asp.Rule.t -> t
(** Fingerprint of a single rule, mostly for tests. *)

val ints : int list -> t
(** Fingerprint of a plain int tuple — used to mix non-program inputs
    (solve mode, caps) into a job's content address. *)

val pp : Format.formatter -> t -> unit
