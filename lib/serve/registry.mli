(** The multi-tenant model store of the assessment service: named models,
    each holding a warm {!Engine.Job.prepared} base (fingerprinted and
    ground once at load) and its own {!Engine.Cache} — what-if deltas
    against a loaded model extend warm grounder state instead of paying a
    cold start, and identical requests are answered from the cache.

    All per-model caches share the registry's optional persistent
    {!Store}: the caches are content-addressed, so entries from different
    models coexist keyed by their fingerprints, and a model re-loaded
    after a daemon restart finds its old answers on disk. *)

type value = Asp.Model.t list * Asp.Solver.Stats.t * Asp.Grounder.Stats.t
(** What the caches memoize per fingerprint — the {!Engine.Sweep} cache
    triple, with models projected on the backend's [#show] predicate
    ({!Engine.Job.solve}): answer-sized, and what a {!Store} entry
    holds. *)

type entry = {
  name : string;
  backend : Cpsrisk.Backend.t;
  prepared : Engine.Job.prepared;  (** warm base state, read-only *)
  cache : value Engine.Cache.t;
  frontier : Mitigation.Frontier.t option;
      (** mitigation frontier sharing [prepared] and [cache], when the
          target carries an action catalog — frontier evaluations and
          sweep jobs answer each other's what-ifs *)
  loaded_at : float;
  mutable sweeps : int;  (** sweep requests served *)
  mutable jobs_served : int;  (** delta jobs across those sweeps *)
  mutable mitigations : int;  (** mitigation-frontier requests served *)
}

type t

val create : ?store:value Store.t -> unit -> t

val load : t -> name:string -> Cpsrisk.Backend.target -> entry
(** Prepare the target's base (outside the registry lock — slow loads
    do not block lookups) and register it, replacing any previous model
    of the same name. The target's frontier is built over the warm
    prepared state and the model's own cache, so frontier searches and
    sweeps share answers. Raises like {!Engine.Job.prepare} on an unsafe
    or overflowing base. *)

val find : t -> string -> entry option
val list : t -> entry list
(** Sorted by name. *)

val evict : t -> string -> bool
(** Forget a model (its prepared state and in-memory cache); false if it
    was not loaded. On-disk cache entries are kept — they are
    content-addressed, so a future re-load hits them again. *)

val count : t -> int
val loads : t -> int
(** Models currently loaded / lifetime [load] calls. *)

val store : t -> value Store.t option
val base_atoms : entry -> int

val entry_to_json : entry -> Json.t
(** The [list-models]/[stats] wire shape: name, backend, base size and
    the serving counters. *)
