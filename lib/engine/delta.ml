type t = {
  label : string;
  faults : string list;
  mitigations : string list;
  extra : string list;
}

let make ?(label = "") ?(mitigations = []) ?(extra = []) faults =
  {
    label;
    faults = List.sort_uniq String.compare faults;
    mitigations = List.sort_uniq String.compare mitigations;
    extra;
  }

let label d =
  if d.label <> "" then d.label
  else
    let set ids = "{" ^ String.concat "," ids ^ "}" in
    set d.faults ^ if d.mitigations = [] then "" else "+" ^ set d.mitigations

let compare a b =
  match Stdlib.compare (a.faults, a.mitigations, a.extra) (b.faults, b.mitigations, b.extra) with
  | 0 -> String.compare a.label b.label
  | c -> c

let equal a b = compare a b = 0

(* ------------------------------------------------------------------ *)
(* Mutations-file parsing                                              *)
(* ------------------------------------------------------------------ *)

type error = { line : int; col : int; msg : string }

let error_to_string e =
  (* same position spelling as Lint.Diagnostic: col 0 means unknown *)
  if e.col > 0 then Printf.sprintf "line %d, col %d: %s" e.line e.col e.msg
  else Printf.sprintf "line %d: %s" e.line e.msg

(* A [#] after the [!] belongs to the ASP tail ([#show], [#count]), whose
   own comments start with [%]. *)
let strip_comment line =
  match (String.index_opt line '#', String.index_opt line '!') with
  | Some h, Some b when b < h -> line
  | Some h, _ -> String.sub line 0 h
  | None, _ -> line

let ids csv =
  String.split_on_char ',' csv
  |> List.map String.trim
  |> List.filter (fun s -> s <> "" && s <> "-")

(* offset of the [n]th occurrence of [c] in [s], 1-based column *)
let col_of_char s c n =
  let rec go i left =
    if i >= String.length s then 0
    else if s.[i] = c then if left = 1 then i + 1 else go (i + 1) (left - 1)
    else go (i + 1) left
  in
  go 0 n

let parse_line ?(line = 1) raw =
  let err ?(col = 0) msg = Error { line; col; msg } in
  let text = String.trim (strip_comment raw) in
  if text = "" then Ok None
  else
    (* columns are reported against the raw line, label and comment
       included, so editors can jump to them *)
    let base = Option.value ~default:0 (String.index_opt raw text.[0]) in
    (* the [! ASP] tail is split off first: its rules may hold ':' *)
    let head, extra_src =
      match String.index_opt text '!' with
      | Some i ->
          ( String.sub text 0 i,
            Some
              ( base + i + 2,
                String.trim
                  (String.sub text (i + 1) (String.length text - i - 1)) ) )
      | None -> (text, None)
    in
    let label, rest, rest_col =
      match String.index_opt head ':' with
      | Some i ->
          ( String.trim (String.sub head 0 i),
            String.sub head (i + 1) (String.length head - i - 1),
            base + i + 1 )
      | None -> ("", head, base)
    in
    let extra =
      match extra_src with
      | None -> Ok []
      | Some (col, src) -> (
          (* validate the raw-ASP tail here, where we still know the line,
             instead of letting the sweep's compile step fail without a
             position much later *)
          match Asp.Parser.parse_program src with
          | program -> (
              match
                List.find_map
                  (fun r ->
                    match Asp.Safety.violations r with
                    | [] -> None
                    | vs -> Some (Asp.Safety.describe r vs))
                  (Asp.Program.rules program)
              with
              | None -> Ok [ src ]
              | Some m -> err ~col ("unsafe ASP after '!': " ^ m))
          | exception Asp.Parser.Error m ->
              err ~col (Printf.sprintf "invalid ASP after '!': %s" m))
    in
    match extra with
    | Error e -> Error e
    | Ok extra -> (
        match String.split_on_char '/' rest with
        | [ faults ] -> Ok (Some (make ~label ~extra (ids faults)))
        | [ faults; mitigations ] ->
            Ok
              (Some
                 (make ~label ~mitigations:(ids mitigations) ~extra (ids faults)))
        | _ ->
            err
              ~col:(rest_col + col_of_char rest '/' 2)
              "more than one '/' separator (expected FAULTS [/ MITIGATIONS])")

let parse src =
  let lines = String.split_on_char '\n' src in
  let rec go n acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match parse_line ~line:n line with
        | Ok None -> go (n + 1) acc rest
        | Ok (Some d) -> go (n + 1) (d :: acc) rest
        | Error e -> Error e)
  in
  go 1 [] lines

let pp ppf d =
  Format.fprintf ppf "%s: %s / %s" (label d)
    (String.concat "," d.faults)
    (String.concat "," d.mitigations);
  List.iter (fun s -> Format.fprintf ppf " ! %s" s) d.extra
