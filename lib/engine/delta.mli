(** Mutation deltas: the unit of what-if in a sweep.

    A delta names the candidate system mutations of one scenario — fault
    injections, technique/vulnerability activations and an active mitigation
    subset — plus optional raw ASP statements for anything the structured
    fields cannot express. The engine itself never interprets the fields:
    the sweep's [compile] function (see {!Job.spec}) turns a delta into the
    ASP program increment appended to the shared base, so the same delta
    list can drive the temporal water-tank encoding, a topology-propagation
    program, or any other backend. *)

type t = {
  label : string;  (** display label; [""] means derive from the content *)
  faults : string list;  (** injected fault / technique ids, sorted *)
  mitigations : string list;  (** active mitigation ids, sorted *)
  extra : string list;  (** raw ASP statements appended verbatim *)
}

val make :
  ?label:string -> ?mitigations:string list -> ?extra:string list ->
  string list -> t

val label : t -> string
(** The explicit label, or a ["{F2,F3}+{M1}"]-style one derived from the
    fault and mitigation sets. *)

val equal : t -> t -> bool
val compare : t -> t -> int

type error = { line : int; col : int; msg : string }
(** A positioned parse failure, in the spelling of the lint diagnostics:
    1-based [line], 1-based [col] against the raw source line (0 when the
    column is unknown). *)

val error_to_string : error -> string
(** ["line 3, col 12: ..."], or ["line 3: ..."] when the column is
    unknown — matches {!Lint.Diagnostic.pos_to_string}. *)

val parse_line : ?line:int -> string -> (t option, error) result
(** One line of a mutations file:
    [[LABEL:] FAULTS [/ MITIGATIONS] [! ASP statements]] — comma-separated
    id lists, [-] or an empty list for none, [#] before the [!] starts a
    comment. [Ok None] for blank/comment-only lines. The [! ASP] tail is
    split off at the first [!] before the label, so its rules may hold
    [:]; it is ASP to the end of the line, so a [#] there is a directive
    or aggregate ([#show], [#count]) and its comments start with [%].
    It is validated immediately: a syntax error or an unsafe rule there
    is reported against this line ([line] defaults to 1) rather than
    surfacing later, position-free, when the sweep compiles the
    delta. *)

val parse : string -> (t list, error) result
(** A whole mutations file; errors carry the 1-based line (and, where
    known, column) of the offending input. *)

val pp : Format.formatter -> t -> unit
