(** Search statistics of the CDNL solver ({!Solver}), also filled by the
    test-only pruned-DFS oracle.

    Every [solve_*_with_stats] entry point allocates a fresh record per
    call: consecutive or re-entrant solves report independent counters and
    wall times, never accumulated totals. DFS leaves the conflict-driven
    fields at zero; CDNL leaves [pruned] for bound prunes only. *)

type t = {
  mutable guesses : int;  (** decision literals (DFS: in + out branches) *)
  mutable pruned : int;  (** subtrees abandoned by a violation or bound *)
  mutable firings : int;  (** atom/literal assignments by propagation *)
  mutable leaves : int;  (** complete assignments reached *)
  mutable models : int;  (** distinct stable models found (pre-filter) *)
  mutable conflicts : int;  (** conflicts analysed (CDNL only) *)
  mutable learned : int;  (** nogoods learned by 1-UIP analysis *)
  mutable restarts : int;  (** Luby restarts taken (search conflicts only) *)
  mutable model_blocks : int;
      (** blocking nogoods added after a model, retreated chronologically —
          counted separately so [restarts] stays comparable across dense
          and sparse model spaces *)
  mutable backjumped : int;  (** decision levels skipped by backjumping *)
  mutable unfounded_checks : int;  (** unfounded-set checks run *)
  mutable unfounded_sets : int;  (** non-empty unfounded sets found *)
  mutable pre_units : int;  (** preprocessing: literals fixed at level 0 *)
  mutable pre_equivs : int;  (** preprocessing: body vars merged by equivalence *)
  mutable cheap : bool;  (** solved on the propagation-only cheap tier *)
  mutable wall_s : float;  (** wall-clock seconds for the whole solve *)
}

val create : unit -> t

val accumulate : t -> t -> unit
(** [accumulate dst src] adds every counter (and wall time) of [src] into
    [dst] ([cheap] ors); used by the sweep engine to merge per-job
    statistics. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
