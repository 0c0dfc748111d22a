(* Unified bench driver: one entry point over the shared workload
   registry (Registry.bench values exported by the bench modules).

     dune exec bench/main.exe -- [--filter SUB]... [--smoke] [--out PATH]
                                 [--json PATH] [--list]

   - --filter SUB  run only benches whose name contains SUB (repeatable;
                   default: all). The per-bench dune smoke rules are thin
                   wrappers over this, e.g. `main.exe --filter ground
                   --smoke --out /dev/null`.
   - --smoke       seconds-scale subsets (what `dune runtest` runs);
                   without it, the full sweeps that refresh the committed
                   BENCH_*.json files. A smoke run never writes those: its
                   per-bench JSON defaults to <name>_smoke.json in the
                   current directory.
   - --out PATH    override the per-bench JSON path; only meaningful when
                   the filter selects exactly one bench.
   - --json PATH   also write the cross-bench summary table as JSON rows.
   - --list        print the registry and exit.

   After running, prints one throughput table over every row the selected
   benches reported: wall seconds plus ground atoms/s and models/s where
   the section grounds or solves. Guards inside the benches (differential
   checks, never-slower, probe efficiency) exit 2 and fail the driver. *)

let benches : Registry.bench list =
  [
    Ground_bench.bench;
    Solver_bench.bench;
    Sweep_bench.bench;
    Analysis_bench.bench;
    Cegar_bench.bench;
  ]

let usage () =
  prerr_endline
    "usage: main.exe [--filter SUB]... [--smoke] [--out PATH] [--json PATH] \
     [--list]";
  exit 1

type opts = {
  mutable filters : string list;
  mutable smoke : bool;
  mutable out : string option;
  mutable json : string option;
  mutable list : bool;
}

let parse_args () =
  let o = { filters = []; smoke = false; out = None; json = None; list = false } in
  let rec go = function
    | [] -> o
    | "--smoke" :: rest ->
        o.smoke <- true;
        go rest
    | "--list" :: rest ->
        o.list <- true;
        go rest
    | "--filter" :: sub :: rest ->
        o.filters <- o.filters @ [ sub ];
        go rest
    | "--out" :: path :: rest ->
        o.out <- Some path;
        go rest
    | "--json" :: path :: rest ->
        o.json <- Some path;
        go rest
    | a :: _ ->
        Printf.eprintf "unknown argument %S\n" a;
        usage ()
  in
  go (List.tl (Array.to_list Sys.argv))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

let selected o =
  match o.filters with
  | [] -> benches
  | fs ->
      List.filter
        (fun (b : Registry.bench) ->
          List.exists (fun f -> contains ~sub:f b.Registry.name) fs)
        benches

let fmt_rate = function
  | None -> ""
  | Some r when r >= 1e6 -> Printf.sprintf "%.1fM" (r /. 1e6)
  | Some r when r >= 1e3 -> Printf.sprintf "%.1fk" (r /. 1e3)
  | Some r -> Printf.sprintf "%.0f" r

let rate count wall_s =
  Option.map (fun c -> Registry.per_s c wall_s) count

let print_table rows =
  let open Registry in
  Printf.printf "\n%-9s %-16s %-12s %10s %12s %10s  %s\n" "bench" "workload"
    "param" "wall_s" "g.atoms/s" "models/s" "note";
  Printf.printf "%s\n" (String.make 100 '-');
  List.iter
    (fun (bname, r) ->
      Printf.printf "%-9s %-16s %-12s %10.4f %12s %10s  %s\n" bname
        r.r_workload r.r_param r.r_wall_s
        (fmt_rate (rate r.r_ground_atoms r.r_wall_s))
        (fmt_rate (rate r.r_models r.r_wall_s))
        r.r_note)
    rows

let emit_rows_json path mode rows =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n  \"bench\": \"unified-driver\",\n  \"mode\": %S,\n  \"rows\": [\n" mode;
  List.iteri
    (fun i (bname, (r : Registry.row)) ->
      let opt_rate c =
        match rate c r.Registry.r_wall_s with
        | Some v -> Printf.sprintf "%.1f" v
        | None -> "null"
      in
      let opt_int = function Some v -> string_of_int v | None -> "null" in
      p
        "    {\"bench\": %S, \"workload\": %S, \"param\": %S, \"wall_s\": \
         %.6f, \"ground_atoms\": %s, \"ground_atoms_per_s\": %s, \"models\": \
         %s, \"models_per_s\": %s, \"note\": %S}%s\n"
        bname r.Registry.r_workload r.Registry.r_param r.Registry.r_wall_s
        (opt_int r.Registry.r_ground_atoms)
        (opt_rate r.Registry.r_ground_atoms)
        (opt_int r.Registry.r_models)
        (opt_rate r.Registry.r_models)
        r.Registry.r_note
        (if i = List.length rows - 1 then "" else ",")
      )
    rows;
  p "  ]\n}\n";
  close_out oc;
  Printf.eprintf "wrote %s\n" path

let () =
  let o = parse_args () in
  if o.list then begin
    List.iter
      (fun (b : Registry.bench) ->
        Printf.printf "%-9s %s (full run -> %s)\n" b.Registry.name
          b.Registry.descr b.Registry.default_out)
      benches;
    exit 0
  end;
  let picked = selected o in
  if picked = [] then begin
    Printf.eprintf "no bench matches the filter\n";
    usage ()
  end;
  (match (o.out, picked) with
  | Some _, _ :: _ :: _ ->
      Printf.eprintf "--out needs a filter selecting exactly one bench\n";
      usage ()
  | _ -> ());
  let rows =
    List.concat_map
      (fun (b : Registry.bench) ->
        Printf.eprintf "== %s ==\n%!" b.Registry.name;
        let out =
          match o.out with
          | Some path -> path
          | None when o.smoke -> b.Registry.name ^ "_smoke.json"
          | None -> b.Registry.default_out
        in
        List.map (fun r -> (b.Registry.name, r)) (b.Registry.run ~smoke:o.smoke ~out))
      picked
  in
  print_table rows;
  Option.iter
    (fun path -> emit_rows_json path (if o.smoke then "smoke" else "full") rows)
    o.json
