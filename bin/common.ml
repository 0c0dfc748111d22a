(* The option and input layer every subcommand shares: each common
   option is declared once here, each input kind has one loader, and a
   bad input ends the command with one `cpsrisk <cmd>: …` line on stderr
   instead of an uncaught exception. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Inputs                                                               *)
(* ------------------------------------------------------------------ *)

exception Bad_input of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Bad_input msg)) fmt

(* [code] is the subcommand's documented exit status for bad input *)
let guard ?(code = 1) cmd f =
  try f ()
  with Bad_input msg ->
    Printf.eprintf "cpsrisk %s: %s\n" cmd msg;
    code

(* Sys_error names the path when opening fails, not when reading does
   (a directory opens, then fails to read) *)
let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg ->
    if String.starts_with ~prefix:path msg then fail "%s" msg
    else fail "%s: %s" path msg

let load_model path =
  try Archimate.Text.parse (read_file path)
  with Archimate.Text.Error msg -> fail "%s: parse error: %s" path msg

let load_program path =
  try Asp.Parser.parse_program (read_file path)
  with Asp.Parser.Error msg -> fail "%s: parse error: %s" path msg

let load_mutations path =
  match Engine.Delta.parse (read_file path) with
  | Ok deltas -> deltas
  | Error e -> fail "%s: %s" path (Engine.Delta.error_to_string e)

let model_file =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Textual system model.")

let optional_model_file =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"FILE"
        ~doc:"Textual system model (defaults to the built-in case study).")

(* ------------------------------------------------------------------ *)
(* Outputs                                                              *)
(* ------------------------------------------------------------------ *)

let print_json j = print_endline (Serve.Json.to_string j)

let json =
  Arg.(value & flag & info [ "json" ] ~doc:"Print the answer as one line of JSON.")

let stats =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Also print the work behind the answer: grounding and solving \
           counters, cache hits, wall time.")

(* ------------------------------------------------------------------ *)
(* Options                                                              *)
(* ------------------------------------------------------------------ *)

(* a negative horizon is a usage error, not an empty trace *)
let horizon =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | Some _ ->
        Error (`Msg (Printf.sprintf "expected a horizon of at least 0, got %s" s))
    | None -> Error (`Msg (Printf.sprintf "invalid integer %S" s))
  in
  Arg.(
    value
    & opt (some (conv (parse, Format.pp_print_int))) None
    & info [ "horizon" ] ~docv:"N"
        ~doc:
          "Temporal horizon H of the water-tank encoding (default 12, at \
           least 0). The answers are those of the trace unrolled to H \
           steps; the work is bounded by the trace's lasso, the first \
           repeated state, not by H: each what-if is decided once at a \
           probe horizon of at most 23 steps and H is folded onto it (a \
           delta with $(b,!) rules is unrolled to H in full).")

(* a model limit below 1 is a usage error, not a request for one model *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ ->
        Error (`Msg (Printf.sprintf "expected a count of at least 1, got %s" s))
    | None -> Error (`Msg (Printf.sprintf "invalid integer %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let limit names =
  Arg.(
    value
    & opt (some positive_int) None
    & info names ~docv:"N" ~doc:"Stop after $(docv) models (at least 1).")

(* --pareto, else --budgets, else the optimal search within --budget *)
let search =
  let budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget"; "b" ] ~docv:"COST"
          ~doc:"Budget of the optimal mitigation search.")
  in
  let budgets =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "budgets" ] ~docv:"B1,B2,..."
          ~doc:
            "Sweep these budgets; sweeps share one cache, so subsets within \
             several budgets are solved once.")
  in
  let pareto =
    Arg.(value & flag & info [ "pareto" ] ~doc:"Compute the full cost/residual front.")
  in
  let choose budget budgets pareto =
    match (pareto, budgets) with
    | true, _ -> Cpsrisk.Pipeline.Frontier_pareto
    | false, Some bs -> Cpsrisk.Pipeline.Frontier_sweep bs
    | false, None -> Cpsrisk.Pipeline.Frontier_optimal budget
  in
  Term.(const choose $ budget $ budgets $ pareto)
