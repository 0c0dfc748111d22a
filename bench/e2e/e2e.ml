(* End-to-end benchmark of what a cpsrisk user waits for.

     e2e.exe [--workload W[,W..]] [--seed N] [--seconds S] [--trace 0|1]
             [--runs N] [--json OUT] [--compare BASE.json] [--smoke]
             [--cli PATH] [--trace-out FILE]

   Each run of a workload prints its metrics by name and unit; the last
   line of standard output is one JSON object (correct, attempted,
   failed, metrics). Exit status: 0 when every answer was correct, 1
   otherwise, 2 when --compare finds a regression. README.md has the
   workloads, the metric definitions and how to read the trace. *)

open E2e_bench

let workloads = [ "cli-sweep"; "cli-frontier"; "serve-cold"; "serve-warm" ]

let run_one ~cli ~smoke ~seconds ~trace ~trace_out ~seed workload =
  let tmp = Proc.temp_dir "e2e-run" in
  let trace_out =
    match trace_out with
    | Some f -> f
    | None when smoke -> Filename.concat tmp "trace.json"
    | None ->
        (try Sys.mkdir "_e2e" 0o755 with Sys_error _ -> ());
        Printf.sprintf "_e2e/trace-%s-seed%d.json" workload seed
  in
  let cli_run cmds =
    if trace then Cli_work.replay ~seconds ~trace_out cmds
    else Cli_work.measure ~cli ~seconds cmds
  in
  let serve warm = Serve_work.run ~cli ~seed ~seconds ~smoke ~warm ~trace ~trace_out in
  let outcome =
    match workload with
    | "cli-sweep" -> cli_run (Cli_work.sweep_cmds ~seed ~smoke ~tmp)
    | "cli-frontier" -> cli_run (Cli_work.frontier_cmds ~seed ~smoke)
    | "serve-cold" -> serve false
    | "serve-warm" -> serve true
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  (* a smoke trace must at least be well-formed JSON *)
  if trace && smoke then
    (match Serve.Json.parse (In_channel.with_open_bin trace_out In_channel.input_all) with
    | Ok _ -> ()
    | Error e -> failwith ("malformed trace: " ^ e));
  Proc.cleanup ();
  if trace && not smoke then Printf.printf "trace written to %s\n" trace_out;
  { Results.workload; seed; traced = trace; outcome }

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  let cli = ref "_build/default/bin/cpsrisk_cli.exe" in
  let selected = ref workloads and seed = ref 1 and seconds = ref 30.0 in
  let trace = ref false and trace_out = ref None and runs = ref 1 in
  let smoke = ref false and json = ref None and base = ref None in
  Arg.parse
    [
      ("--cli", Arg.Set_string cli, "PATH cpsrisk executable under test");
      ( "--workload",
        Arg.String (fun s -> selected := String.split_on_char ',' s),
        "W[,W..] workloads to run (default: all of " ^ String.concat " " workloads ^ ")" );
      ("--seed", Arg.Set_int seed, "N seed of every generated input (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured time of one run (default 30)");
      ( "--trace",
        Arg.Int (fun t -> trace := t = 1),
        "0|1 1: the traced run, reporting per-layer metrics" );
      ( "--trace-out",
        Arg.String (fun f -> trace_out := Some f),
        "FILE Chrome trace of a traced run (default _e2e/trace-W-seedN.json)" );
      ("--runs", Arg.Set_int runs, "N runs per workload, seeds N..N+runs-1");
      ("--json", Arg.String (fun f -> json := Some f), "OUT write the results file");
      ( "--compare",
        Arg.String (fun f -> base := Some f),
        "BASE.json compare with a results file under BENCHMARK.json's bounds" );
      ("--smoke", Arg.Set smoke, " all workloads at tiny sizes, traced and not");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "e2e.exe [options]";
  List.iter
    (fun w ->
      if not (List.mem w workloads) then begin
        prerr_endline ("e2e: unknown workload " ^ w);
        exit 124
      end)
    !selected;
  if not (Sys.file_exists !cli) then begin
    prerr_endline ("e2e: no cpsrisk executable at " ^ !cli ^ " (see --cli)");
    exit 124
  end;
  let seconds = if !smoke then 0.0 else !seconds in
  let plan =
    List.concat_map
      (fun w ->
        List.concat_map
          (fun k ->
            let seed = !seed + k in
            if !smoke then [ (w, seed, false); (w, seed, true) ]
            else [ (w, seed, !trace) ])
          (List.init !runs Fun.id))
      !selected
  in
  let results =
    List.map
      (fun (w, seed, trace) ->
        let r =
          run_one ~cli:!cli ~smoke:!smoke ~seconds ~trace ~trace_out:!trace_out
            ~seed w
        in
        Results.print_run r;
        flush stdout;
        r)
      plan
  in
  let host = Results.host ~seed:!seed ~seconds in
  Printf.printf "host: %s\n" (Serve.Json.to_string (Serve.Json.Obj host));
  let all = Results.to_json ~host results in
  Option.iter (fun f -> Results.write_file f all) !json;
  let verdict =
    match !base with
    | Some base_file -> Results.compare_files ~bench_file:"BENCHMARK.json" ~base_file all
    | None -> 0
  in
  let correct = List.for_all Results.correct results in
  (match results with
  | [ r ] -> print_endline (Results.run_json r)
  | rs ->
      let sum f = List.fold_left (fun a r -> a + f r.Results.outcome) 0 rs in
      print_endline
        (Results.summary_json ~correct
           ~attempted:(sum (fun o -> o.Cli_work.attempted))
           ~failed:(sum (fun o -> o.Cli_work.failed))
           []));
  exit (if not correct then 1 else verdict)
