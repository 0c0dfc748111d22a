(** The original exhaustive stable-model enumerator, retained verbatim as
    the reference implementation. Test-only: the differential suites and
    the solver bench link it; the shipped [asp] library does not.

    [Asp.Solver] is the production path (CDNL search over the Clark
    completion); this module keeps the obviously correct 2^n-subset
    enumeration with structural [AtomSet] models so the differential test
    suite can compare the two on randomized programs, and so
    {!is_stable_model} is a model check that shares no code with the fast
    path.

    On anything but tiny guess spaces it is orders of magnitude slower
    than [Asp.Solver]. *)

exception Unsupported of string
(** The guess space is too large ([> max_guess] atoms) for exhaustive
    enumeration. *)

val solve : ?limit:int -> ?max_guess:int -> Ground.t -> Model.t list
(** All stable models (up to [limit]), deduplicated, sorted by atom set.
    [max_guess] defaults to 24: every subset of the guess space is
    materialized, so the historical hard cap stays. *)

val solve_optimal : ?max_guess:int -> Ground.t -> Model.t list
(** Models with the minimal weak-constraint cost (all optima). *)

val satisfiable : ?max_guess:int -> Ground.t -> bool

val is_stable_model : Ground.t -> Model.AtomSet.t -> bool
(** Independent Gelfond–Lifschitz verification: [m] is the least model of
    the reduct of the program w.r.t. [m], and satisfies all integrity
    constraints and choice bounds. The suites check every model
    [Asp.Solver] reports with it. *)
