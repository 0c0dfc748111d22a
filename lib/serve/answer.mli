(** What the front ends answer: one {!Json} encoder per answer type,
    shared by the CLI's [--json] output and the daemon's responses, plus
    the one solve path both run. An encoder that returns fields rather
    than an object lets the daemon frame them with its own request
    fields ([model], [search], timings) in wire order. *)

val diagnostic : Lint.Diagnostic.t -> Json.t
(** [code], [severity], then [line]/[col] and [subject] when present,
    then [message]. *)

val diagnostics : Lint.Diagnostic.t list -> Json.t

(** {2 Sweeps} *)

val reading_of_json : Json.t -> Cpsrisk.Backend.reading option
(** Decode the reading fields of one {!job_result}. *)

val job_result : Cpsrisk.Backend.t -> Engine.Job.result -> Json.t
(** [label], [fingerprint], [models], [source], then the job's
    {!Cpsrisk.Backend.reading}: [verdicts], [affected] or [residual]. *)

val sweep :
  ?extra:(string * Json.t) list ->
  Cpsrisk.Backend.t ->
  Engine.Job.result array ->
  (string * Json.t) list
(** [deltas], the cache provenance counters ([hits], [disk_hits],
    [misses]), the fresh solver and grounder work (each distinct fresh
    program counted once), then [extra], then [results]. *)

(** {2 Refinement and mitigation} *)

val refine : Cegar.Inc.outcome -> Json.t
(** [rounds] (level, label, survivors, eliminated), [confirmed] and the
    run's [stats]. *)

val solution : Mitigation.Optimizer.solution -> Json.t

val frontier :
  Cpsrisk.Pipeline.frontier_answer ->
  Mitigation.Frontier.report ->
  (string * Json.t) list
(** The answer under [optimal], [pareto] or [curve], then [report]. *)

(** {2 Solving a program} *)

type solved = {
  answers : Asp.Model.t list;  (** projected on the [#show] atoms *)
  stats : Asp.Solver.Stats.t;
  ground_stats : Asp.Grounder.Stats.t;
}

val solve :
  ?jobs:int -> ?limit:int -> optimal:bool -> string -> (solved, string) result
(** Parse, ground and solve a program text (the solver shows only the
    [#show] atoms) through {!Engine.Par} on [jobs] worker domains
    (default 1, inline; more give the same answers). [Error]
    carries a [parse error: …] or [grounding error: …] line. *)

val solved : solved -> (string * Json.t) list
(** [models], [answers], [guesses], [conflicts], [wall_s]. *)
