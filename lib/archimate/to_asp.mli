(** Transformation of the system model into ASP facts ("we transformed the
    model to Answer Set Programming to run the evaluation", §VII).

    Generated vocabulary:
    - [component(Id).] for every element
    - [element_kind(Id, Kind).] and [layer(Id, Layer).]
    - [named(Id, "Name").]
    - [rel(Kind, Src, Tgt).] for every relationship
    - [flow(Src, Tgt).] for flow relationships (the EPA propagation edges)
    - [part_of(Part, Whole).] for composition/aggregation
    - [property(Id, Key, "Value").] for element properties
    - [fault_mode(Id, Mode).] parsed from the ["fault_modes"] property *)

val facts : Model.t -> Asp.Program.t

val sanitize : string -> string
(** Lower-cases and maps non-identifier characters to [_] so that arbitrary
    model ids/kinds are valid ASP constants. *)

val const : string -> Asp.Term.t
(** The constant of an arbitrary id: [Asp.Term.const (sanitize id)]. *)

val fact : string -> Asp.Term.t list -> Asp.Rule.t
(** [fact pred args] is the fact [pred(args).], built without printing
    and parsing: the rule a parse of its text gives, and the same
    fingerprint. *)
