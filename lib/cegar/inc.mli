(** Incremental CEGAR on the engine: the refinement loop of Fig. 1 step
    5, run as deltas over warm grounder state instead of fresh
    pipelines.

    A refinement schedule is a base ASP program plus a list of structural
    increments (one per refinement level). The incremental driver pays
    one {!Asp.Grounder.prepare} for the base and one
    {!Asp.Grounder.extend_prepare} per level — round [k+1] reuses round
    [k]'s ground program — where the scratch driver re-grounds the
    accumulated program from nothing every round.

    Candidates are {!Engine.Delta}s assessed against each level and kept
    or eliminated by a caller predicate over the stable models. Two
    candidate encodings are supported:

    - {b Assume}: a candidate compiles to solver assumptions over
      choice-opened control atoms. All candidates of a round then solve
      the {e identical} ground program, so the driver prepares it once
      ({!Asp.Solver.prepare}: compile, complete, preprocess, load the
      clauses) and answers every candidate by one {!Asp.Solver.search}
      under its assumptions on that handle. Between searches the handle
      keeps the learned nogoods that follow from the program alone —
      path-local ones (blocking nogoods, bound prunes and their
      resolvents) are dropped — so what one candidate's refutation
      learned prunes the next candidate's search, soundly under any
      assumption set. The handle lives while the program is unchanged,
      across re-assessment rounds, and is replaced at every structural
      level, where the old program's nogoods would no longer be
      justified. It is built at the first fresh solve against a program,
      so a round answered entirely from the cache builds none.
    - {b Increment}: a candidate compiles to a program increment
      answered against the level's warm state by
      {!Engine.Job.decide_or_solve}, as every engine job is (a
      stratified one is decided by the grounder, with no solver), and
      deduplicated through {!Engine.Cache} by structural fingerprint — a
      candidate re-assessed against an unchanged level is a cache hit.

    The scratch driver {!run_scratch} is the retained oracle: cold
    grounding, no cache, no reused solver, sequential — differential
    tests pin {!run}'s rounds, survivors and verdicts bit-for-bit against
    it. *)

type level = {
  l_label : string;
  l_structure : Asp.Program.t;
      (** the structural increment this level adds; an empty program is a
          re-assessment round (same ground program — in Assume mode its
          survivors are answered from the cache) *)
}

type mode =
  | Assume of (Engine.Delta.t -> (Asp.Atom.t * bool) list)
      (** candidate -> assumption set. Every assumed atom must exist in
          the (choice-opened) universe: assuming an absent atom true is
          UNSAT by construction. *)
  | Increment of (Engine.Delta.t -> Asp.Program.t)
      (** candidate -> program increment over the level's base *)

type spec = {
  base : Asp.Program.t;
  levels : level list;
  candidates : Engine.Delta.t list;
  mode : mode;
  keep : Asp.Model.t list -> bool;
      (** survival predicate over the candidate's stable models (sorted,
          deduplicated — order-canonical, so verdicts are deterministic) *)
  limit : int option;
      (** stop each assessment after this many models. A [keep] that only
          tests satisfiability ([models <> []]) is sound with [Some 1] —
          and much cheaper on encodings with many routes per candidate.
          Both drivers apply the same limit, so outcomes stay
          differential. The limit is part of every candidate's cache
          key: a shared cache never answers a run with models cut at
          another run's limit. *)
  max_atoms : int;  (** grounder universe bound, as in {!Asp.Grounder} *)
}

type round = {
  r_level : int;  (** 0 = base abstraction, then one per schedule level *)
  r_label : string;
  r_survivors : Engine.Delta.t list;  (** in candidate order *)
  r_eliminated : Engine.Delta.t list;
      (** candidates this round proved spurious *)
}

type stats = {
  s_rounds : int;
  s_solves : int;  (** fresh solves run; decided ones are [s_ground]'s *)
  s_hits : int;  (** assessments answered from cache memory *)
  s_disk_hits : int;
  s_fresh : int;
  s_carried : int;
      (** learned nogoods the round's solver held at the start of each
          fresh solve, summed (Assume mode; {!Asp.Solver.learnt_nogoods}):
          what earlier candidates' searches left for later ones *)
  s_ground : Asp.Grounder.Stats.t;
      (** aggregated grounding effort — fresh vs reused instance counts
          show extend-vs-scratch sharing *)
  s_wall_s : float;
}

type outcome = {
  rounds : round list;  (** in refinement order, length = 1 + levels *)
  confirmed : Engine.Delta.t list;  (** survivors of the final round *)
  stats : stats;
}

type value = Engine.Job.answer
(** What the cache memoizes per candidate fingerprint — the
    {!Engine.Sweep} cache triple, so a serve-layer cache can be shared. *)

val run : ?cache:value Engine.Cache.t -> spec -> outcome
(** The incremental driver. Candidates of a round are assessed in order
    on the calling domain, each against the level's warm state; in Assume
    mode every fresh solve is a search on the one prepared solver of the
    current ground program. A caller-supplied [cache] survives
    across calls (and, with a persist hook, across processes).
    Deterministic: [rounds] and [confirmed] are {!run_scratch}'s. Raises
    [Invalid_argument] on an empty candidate list, and like
    {!Asp.Grounder} on unsafe or overflowing programs. *)

val run_scratch : spec -> outcome
(** The retained scratch oracle: every round re-grounds the accumulated
    program cold ({!Asp.Grounder.ground]) and solves each candidate from
    scratch, sequentially, with no cache. [run spec] and [run_scratch spec]
    agree bit-for-bit on [rounds] and [confirmed]. *)
