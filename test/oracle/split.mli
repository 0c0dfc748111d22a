(** Sign-split oracle: a program's models rebuilt from
    assumption-conditioned solves. Test-only.

    Conditioning on [k] atoms partitions the stable models: each model
    agrees with exactly one of the [2^k] sign vectors over those atoms.
    So the sorted union of the [2^k] [Solver.solve ~assumptions]
    enumerations must equal the plain enumeration, models and costs,
    with no model lost or repeated. [Cegar.Inc]'s Assume mode relies on
    this partition when it answers candidates as assumptions over one
    ground program; the differential suites check it with these
    functions. *)

val atoms : ?k:int -> Ground.t -> Atom.t list
(** Up to [k] (default 3) distinct split atoms: the program's choice
    atoms in rule order first, then the rest of its universe in
    {!Atom.compare} order. *)

val sign_vectors : Atom.t list -> (Atom.t * bool) list list
(** The [2^k] assumption lists over [k] atoms: vector [i] assumes atom
    [b] true exactly when bit [b] of [i] is set. *)

val enumerate : ?k:int -> Ground.t -> Model.t list
(** The sorted union of the models of every sign vector over
    [atoms ?k g]. *)

val optimal : ?k:int -> Ground.t -> Model.t list
(** The minimum-cost slice, sorted, of the union of every sign vector's
    optima. *)
