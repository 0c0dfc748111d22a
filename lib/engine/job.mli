(** The job model of a sweep: one shared base program plus one {!Delta} per
    job, compiled to a per-job ASP increment.

    {!prepare} does the work that is paid once per sweep rather than once
    per job: fingerprint the base and {!Asp.Grounder.prepare} it, so that
    every job can (a) derive its own content address with
    {!Fingerprint.extend} over just the increment and (b) decide or
    ground just its increment ({!Asp.Grounder.decide},
    {!Asp.Grounder.extend}) against the shared prepared state, instead
    of re-grounding the whole base program. *)

type mode =
  | Enumerate of int option
      (** all stable models, up to the optional limit *)
  | Optimal  (** weak-constraint-optimal models only *)

type spec = {
  base : Asp.Program.t;  (** shared base, built and prepared once *)
  compile : Delta.t -> Asp.Program.t;  (** delta -> program increment *)
  deltas : Delta.t list;  (** one job per delta, in order *)
  mode : mode;
  max_atoms : int option;  (** grounder universe cap, default grounder's *)
}

val spec :
  ?mode:mode -> ?max_atoms:int ->
  compile:(Delta.t -> Asp.Program.t) -> deltas:Delta.t list ->
  Asp.Program.t -> spec
(** [mode] defaults to [Enumerate None]. *)

type result = {
  index : int;  (** position of the delta in [spec.deltas] *)
  delta : Delta.t;
  fingerprint : Fingerprint.t;  (** of base + increment + mode *)
  models : Asp.Model.t list;  (** projected on [#show], as {!solve} returns them *)
  stats : Asp.Solver.Stats.t;
      (** stats of the solve that produced [models]; for a cached result
          these are the original solve's stats, not new work *)
  gstats : Asp.Grounder.Stats.t;
      (** stats of the incremental grounding behind that solve — same
          caching caveat as [stats] *)
  cached : bool;  (** [source <> Fresh] *)
  source : Cache.source;
      (** where the answer came from: the in-memory cache, the persistent
          store behind it, or a fresh ground+solve *)
}

type prepared
(** A spec with the base fingerprinted and its grounding state prepared. *)

val prepare : spec -> prepared
(** Grounds the base once into a reusable {!Asp.Grounder.prepared}. Raises
    like {!Asp.Grounder.prepare} if the base itself is unsafe or
    overflows. *)

val prepared_spec : prepared -> spec
val base_atoms : prepared -> int
(** Size of the base atom universe (what each job's grounding extends). *)

val fingerprint : prepared -> Delta.t -> Fingerprint.t
(** Content address of the job: base extended with the compiled increment,
    mixed with the solve mode and the grounder's atom cap. *)

val solve :
  prepared -> Delta.t ->
  Asp.Model.t list * Asp.Solver.Stats.t * Asp.Grounder.Stats.t
(** Answer the job. A stratified normal job — every what-if simulation
    the backends generate — is decided by the grounder alone
    ({!Asp.Grounder.decide}): its one model, or none when a constraint
    fails, with no ground program and no solver. Its grounder stats
    count one [decided], and its solver stats are empty but for
    [models]. Any other job is ground with {!Asp.Grounder.extend} and
    solved. Either way only the atoms of the program's [#show]
    signatures (base plus increment) are built, so what the cache and
    the store keep is only what an answer is read from; a program
    without [#show] keeps whole models. The prepared state is only read
    (the grounder's per-base reuse is filled under a lock): safe to call
    from any domain. *)

val run :
  (Asp.Model.t list * Asp.Solver.Stats.t * Asp.Grounder.Stats.t) Cache.t ->
  prepared -> index:int -> Delta.t -> result
(** One job: {!fingerprint} the delta, look it up in the cache, and on a
    miss {!solve} it there. Every per-delta evaluation of the engine
    (sweeps, the mitigation frontier) goes through this one step; the
    result's [source] says where its answer came from. Safe to call
    from any domain. *)
