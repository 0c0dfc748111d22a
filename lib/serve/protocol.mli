(** The service's wire protocol: one JSON object per line in each
    direction (requests up, responses down — see {!Json} for the framing
    guarantee). This module is the single definition both sides compile
    against, so client and server cannot drift.

    Requests carry an ["op"] discriminator. Responses always carry
    ["ok": bool]; failures add ["error": string]; sweep responses carry
    per-job cache provenance (["source"]: fresh | memory | disk) and
    timings. *)

type backend = Cpsrisk.Backend.t = Water_tank | Topology | Hierarchy
(** Named on the wire by {!Cpsrisk.Backend.name}. *)

type request =
  | Load_model of {
      name : string;
      backend : backend;
      horizon : int option;  (** water-tank temporal horizon *)
      model_src : string option;
          (** textual system model, required by [Topology] — the client
              inlines the file so the daemon needs no shared filesystem *)
    }
  | Sweep of {
      model : string;  (** a name loaded earlier *)
      mutations : string;
          (** raw mutations-file text, parsed server-side so errors carry
              the file's own line numbers *)
      jobs : int option;
          (** read from and written to the wire, but ignored: the daemon
              runs a batch's jobs in order on one domain. The field stays
              only because the end-to-end benchmark's serve workload
              builds it; it goes with the next change to that
              benchmark. *)
    }
  | Mitigate of {
      model : string;  (** a name loaded earlier *)
      search : Cpsrisk.Pipeline.frontier_request;
          (** wire keys ["search"] ({!search_name}), ["budget"] for the
              optimal search, ["budgets"] for the budget curve *)
    }
      (** mitigation-frontier search answered from the model's warm
          prepared state, through its solve cache *)
  | Solve of { program : string; limit : int option; optimal : bool }
      (** [limit], when given, is at least 1: decoding rejects a smaller
          one *)
  | Status  (** daemon liveness, uptime, queue + store summary *)
  | Stats  (** per-model cache counters and store counters *)
  | List_models
  | Evict_model of { name : string }
  | Shutdown  (** answer, then stop accepting and exit the serve loop *)

val search_name : Cpsrisk.Pipeline.frontier_request -> string
(** [optimal], [pareto] or [budget-curve]. *)

val request_to_json : request -> Json.t
val request_of_json : Json.t -> (request, string) result
(** Refuses a malformed request with a message naming the field — for
    example a [budgets] element that is not an integer. *)

val parse_request : string -> (request, string) result
(** One request line: JSON parse + {!request_of_json}. *)

val ok : (string * Json.t) list -> Json.t
(** [{"ok": true, ...fields}] *)

val error : string -> Json.t
(** [{"ok": false, "error": msg}] *)

val response_result : Json.t -> (Json.t, string) result
(** Split a response on its ["ok"] field. *)
