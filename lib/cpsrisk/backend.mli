(** The built-in assessment targets, declared once for every front end
    (the one-shot CLI and the assessment daemon): which targets exist,
    how each builds its sweep spec and its mitigation frontier, and what
    one of its job results means. *)

type t =
  | Water_tank
      (** the paper's §VII temporal encoding ({!Sweeps.water_tank_spec}) *)
  | Topology
      (** static error propagation over a system model
          ({!Sweeps.topology_spec}) *)
  | Hierarchy  (** the 12-action layered plant ({!Hierarchy.frontier_spec}) *)

val name : t -> string
(** The wire and command-line name: [water-tank], [topology], [hierarchy]. *)

val of_name : string -> t option

val needs_model : t -> bool
(** Whether the target sweeps a caller-supplied system model. *)

type target = {
  backend : t;
  spec : Engine.Job.spec;  (** base and delta compiler; no deltas *)
  what_if : Engine.Delta.t list;
      (** the default what-if space: every fault combination (water
          tank), one injection per model component (topology), none
          (hierarchy) *)
  frontier :
    (?cache:Mitigation.Frontier.value Engine.Cache.t ->
    Engine.Job.prepared ->
    Mitigation.Frontier.t)
    option;
      (** the mitigation frontier over the prepared [spec], when the
          target carries an action catalog *)
  horizon : Sweeps.horizon option;
      (** the water tank's horizon shortcut, which answers its jobs from
          a probe horizon ({!Sweeps.water_tank_spec}); its counts feed
          [sweep --stats] *)
}

val target : ?horizon:int -> ?model:Archimate.Model.t -> t -> target
(** [horizon] sets the water tank's temporal horizon H: the answers are
    those of the trace unrolled to H, the work is bounded by the trace's
    lasso ({!Sweeps.water_tank_spec}, which raises [Invalid_argument] on
    a negative H). [model] is the system model of a target that
    {!needs_model} — raises [Invalid_argument] when it is missing
    there. *)

(** {2 What a job result means} *)

type reading =
  | Verdicts of (string * bool) list  (** [(requirement id, violated?)] *)
  | Affected of string list  (** affected component ids, sorted *)
  | Residual of int  (** severity-weighted erred assets *)

val read : t -> Engine.Job.result -> reading option
(** [None] when the job has no unique stable model (a delta's [!]
    statements can open choices). *)

val render_result : label:string -> cached:bool -> reading option -> string
(** One line of sweep output (no newline): the label padded to 28
    columns, then the verdicts or the affected components. *)
