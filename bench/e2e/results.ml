(* Metric catalogue, result printing, result files and --compare. The
   names and units here are the ones BENCHMARK.json declares. *)

let end_to_end = [ ("setup_s", "s"); ("latency_ms", "ms"); ("peak_rss_mb", "MB") ]

let per_layer =
  [
    ("asp.grounder.extend_s", "s");
    ("asp.grounder.firings", "count");
    ("asp.grounder.probes", "count");
    ("asp.grounder.probes_per_firing", "ratio");
    ("asp.grounder.reused_ratio", "ratio");
    ("asp.solver.solve_s", "s");
    ("asp.solver.conflicts", "count");
    ("asp.solver.firings", "count");
    ("asp.solver.cheap_ratio", "ratio");
    ("engine.job.prepare_s", "s");
    ("engine.job.solve_self_s", "s");
    ("engine.fingerprint_s", "s");
    ("engine.fingerprint.calls", "count");
    ("engine.cache.lookups", "count");
    ("engine.cache.hit_ratio", "ratio");
    ("engine.cache.lookup_self_s", "s");
    ("engine.pool.busy_s", "s");
    ("engine.pool.idle_ratio", "ratio");
    ("mitigation.frontier.evals", "count");
    ("mitigation.frontier.fresh", "count");
    ("mitigation.frontier.pruned", "count");
    ("mitigation.frontier.eval_p50_us", "us");
    ("cegar.inc.solves", "count");
    ("cegar.inc.carried", "count");
    ("cegar.inc.fresh_rules", "count");
    ("cegar.inc.reused_rules", "count");
  ]
  @ List.map (fun n -> ("cli." ^ n ^ "_s", "s")) Cli_work.all_cmd_names
  @ [
      ("serve.handle_ms_p50", "ms");
      ("serve.queue_wait_ms_p50", "ms");
      ("serve.batch_size_mean", "count");
      ("serve.wire_ms_p50", "ms");
      ("serve.cache.hit_ratio", "ratio");
      ("serve.cache.disk_hit_ratio", "ratio");
      ("serve.fresh.solve_s", "s");
      ("serve.ground.fresh_rules", "count");
      ("serve.store.stored", "count");
      ("serve.store.hits", "count");
      ("serve.store.bytes_per_entry", "B");
      ("serve.store.corrupt", "count");
      ("serve.queue.batches", "count");
      ("serve.queue.max_batch", "count");
      ("serve.json.parse_us_p50", "us");
      ("serve.resp_bytes_mean", "B");
      ("ocaml.gc.minor_mwords", "Mword");
      ("ocaml.gc.major_collections", "count");
      ("loadgen.latency_p50_ms", "ms");
      ("loadgen.latency_p99_ms", "ms");
      ("loadgen.late_ms_p50", "ms");
      ("loadgen.late_ms_max", "ms");
      ("loadgen.backlog_end", "count");
      ("trace.overhead_ratio", "ratio");
    ]

type run = {
  workload : string;
  seed : int;
  traced : bool;
  outcome : Cli_work.outcome;
}

let correct r = r.outcome.Cli_work.failed = 0

(* Every metric of the run's catalogue, in catalogue order. A layer a
   workload does not exercise reads 0; a failed request's infinite
   latency is written as 1e9 ms, since JSON has no infinity. *)
let values r =
  let catalogue = if r.traced then per_layer else end_to_end in
  List.map
    (fun (name, unit) ->
      let v =
        match List.assoc_opt name r.outcome.Cli_work.metrics with
        | Some v -> v
        | None when r.traced -> 0.0
        | None -> invalid_arg ("no value for end-to-end metric " ^ name)
      in
      (name, unit, if Float.is_finite v then v else 1e9))
    catalogue

let print_run r =
  Printf.printf "%s  seed %d  %s  attempted %d  failed %d\n" r.workload r.seed
    (if r.traced then "traced" else "untraced")
    r.outcome.Cli_work.attempted r.outcome.Cli_work.failed;
  List.iter
    (fun (name, unit, v) -> Printf.printf "  %-34s %14.6g %s\n" name v unit)
    (values r)

let summary_json ~correct ~attempted ~failed metrics =
  Serve.Json.to_string
    (Serve.Json.Obj
       [
         ("correct", Serve.Json.Bool correct);
         ("attempted", Serve.Json.Int attempted);
         ("failed", Serve.Json.Int failed);
         ("metrics", Serve.Json.Obj metrics);
       ])

let run_json r =
  summary_json ~correct:(correct r) ~attempted:r.outcome.Cli_work.attempted
    ~failed:r.outcome.Cli_work.failed
    (List.map
       (fun (name, unit, v) ->
         ( name,
           Serve.Json.Obj
             [ ("value", Serve.Json.Float v); ("unit", Serve.Json.String unit) ] ))
       (values r))

(* --- host ---------------------------------------------------------- *)

let first_line cmd =
  match Unix.open_process_in cmd with
  | ic ->
      let l = In_channel.input_line ic in
      ignore (Unix.close_process_in ic);
      Option.value ~default:"" l
  | exception Unix.Unix_error _ -> ""

let host ~seed ~seconds =
  let or_unknown s = if s = "" then "unknown" else s in
  [
    ("nproc", Serve.Json.String (or_unknown (first_line "nproc 2>/dev/null")));
    ("recommended_domains", Serve.Json.Int (Domain.recommended_domain_count ()));
    ("ocaml", Serve.Json.String Sys.ocaml_version);
    ( "commit",
      Serve.Json.String (or_unknown (first_line "git rev-parse --short HEAD 2>/dev/null"))
    );
    ("seed", Serve.Json.Int seed);
    ("seconds", Serve.Json.Float seconds);
  ]

(* --- result files ------------------------------------------------------ *)

let to_json ~host runs =
  let run r =
    Serve.Json.Obj
      [
        ("workload", Serve.Json.String r.workload);
        ("seed", Serve.Json.Int r.seed);
        ("traced", Serve.Json.Bool r.traced);
        ("correct", Serve.Json.Bool (correct r));
        ("attempted", Serve.Json.Int r.outcome.Cli_work.attempted);
        ("failed", Serve.Json.Int r.outcome.Cli_work.failed);
        ( "metrics",
          Serve.Json.Obj
            (List.map (fun (n, _, v) -> (n, Serve.Json.Float v)) (values r)) );
      ]
  in
  Serve.Json.Obj
    [
      ("host", Serve.Json.Obj host);
      ("runs", Serve.Json.List (List.map run runs));
    ]

let write_file path json =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Serve.Json.to_string json);
      output_char oc '\n')

let parse_file path =
  match Serve.Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

(* (workload, metric) -> values, over the untraced runs of a result file *)
let samples json =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun r ->
      if Serve.Json.mem_bool "traced" r <> Some true then
        let w = Option.value ~default:"?" (Serve.Json.mem_string "workload" r) in
        match Serve.Json.member "metrics" r with
        | Some (Serve.Json.Obj ms) ->
            List.iter
              (fun (m, v) ->
                Option.iter
                  (fun v -> Hashtbl.add tbl (w, m) v)
                  (Serve.Json.float_opt v))
              ms
        | _ -> ())
    (Option.value ~default:[] (Serve.Json.mem_list "runs" json));
  tbl

(* --- compare ------------------------------------------------------------ *)

(* [bound] is a share of the base median; [spreads] are the run-to-run
   interquartile spreads (as shares of their medians) that are known. *)
let judge ~lower_is_better ~bound ~spreads base cur =
  if List.exists (fun s -> s > bound) spreads then "unresolved"
  else
    let change = (cur -. base) /. base in
    let worse = if lower_is_better then change else -.change in
    if worse > bound then "worse" else if worse < -.bound then "better" else "same"

(* One row per (workload, metric) present in both result sets; exit code
   2 when any row is worse. *)
let compare_files ~bench_file ~base_file current =
  let bench = parse_file bench_file in
  let base = samples (parse_file base_file) and cur = samples current in
  let workloads =
    Hashtbl.fold (fun (w, _) _ acc -> if List.mem w acc then acc else w :: acc) cur []
    |> List.sort compare
  in
  let spread vs = if List.length vs >= 4 then [ Sample.spread vs ] else [] in
  let any_worse = ref false in
  Printf.printf "%-14s %-14s %14s %14s  %s\n" "workload" "metric" "base" "current"
    "verdict";
  List.iter
    (fun m ->
      let name = Option.value ~default:"" (Serve.Json.mem_string "name" m) in
      let bound = Option.value ~default:0.0 (Serve.Json.mem_float "bound" m) in
      let lower_is_better = Serve.Json.mem_string "better" m = Some "lower" in
      List.iter
        (fun w ->
          match (Hashtbl.find_all base (w, name), Hashtbl.find_all cur (w, name)) with
          | [], _ | _, [] -> ()
          | b, c ->
              let bm = Sample.median b and cm = Sample.median c in
              let v =
                judge ~lower_is_better ~bound ~spreads:(spread b @ spread c) bm cm
              in
              if v = "worse" then any_worse := true;
              Printf.printf "%-14s %-14s %14.6g %14.6g  %s\n" w name bm cm v)
        workloads)
    (Option.value ~default:[] (Serve.Json.mem_list "end_to_end" bench));
  if !any_worse then 2 else 0
