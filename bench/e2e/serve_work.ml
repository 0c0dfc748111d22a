(* The service workloads: single-delta what-if sweeps against a live
   `cpsrisk serve`, sent open-loop (Poisson arrivals at a fixed rate) over
   two pipelined connections from this one thread, to a freshly started
   daemon. Every response is checked against a BFS over the generated
   flow graph. *)

(* Request rates, frozen on a 2-core host at a fifth to a quarter of the
   rate where p99 reaches 100 ms (300 and 400 req/s). The capacity of a
   shared host swings by up to half over minutes; this far below the knee
   a slow spell lengthens each answer without building a queue that
   multiplies it. README.md says how to recalibrate. *)
let cold_rate = 60.0
let warm_rate = 100.0

let model = "plant"
let phase_requests = 500
let bare_starts = 8
let max_late_s = 0.005

type inputs = {
  topo : Inputs.topology;
  universe : int list array;
  trace : int array;  (** universe index of each request *)
}

let inputs ~seed ~smoke ~n =
  let components, edges, size = if smoke then (40, 80, 256) else (240, 480, 4096) in
  let topo = Inputs.topology ~seed ~components ~edges in
  {
    topo;
    universe = Inputs.universe ~seed ~size topo;
    trace = Loadgen.zipf ~seed ~s:1.0 ~universe:size n;
  }

let sweep_json mutations =
  Serve.Protocol.request_to_json
    (Serve.Protocol.Sweep { model; mutations; jobs = None })

(* Spawn, wait for the socket, load the model: the set-up a user pays
   before the first answer. *)
let start ~cli ~dir inp =
  let t0 = Clock.now () in
  let d =
    Proc.spawn_daemon cli ~socket:(Filename.concat dir "s.sock")
      ~cache_dir:(Filename.concat dir "cache")
  in
  let r =
    Proc.request d
      (Serve.Protocol.request_to_json
         (Serve.Protocol.Load_model
            {
              name = model;
              backend = Serve.Protocol.Topology;
              horizon = None;
              model_src = Some inp.topo.Inputs.model_src;
            }))
  in
  if Serve.Json.mem_bool "ok" r <> Some true then
    failwith ("load-model refused: " ^ Serve.Json.to_string r);
  (d, Clock.now () -. t0)

let affected_of result =
  Option.map
    (List.filter_map Serve.Json.string_opt)
    (Serve.Json.mem_list "affected" result)

let rec at path json =
  match path with
  | [] -> Some json
  | k :: rest -> Option.bind (Serve.Json.member k json) (at rest)

let int_at path json = Option.value ~default:0 (Option.bind (at path json) Serve.Json.int_opt)

let float_at path json =
  Option.value ~default:0.0 (Option.bind (at path json) Serve.Json.float_opt)

type phase = {
  setup_s : float;
  rss_kb : int;
  path_ms : float list;
      (** latency from the due time of each answer on the workload's own
          path: solved fresh (serve-cold) or read from the store
          (serve-warm); infinity for a failed request *)
  late_ms : float list;
  attempted : int;
  failed : int;
  layers : (string * float) list;
}

(* Check one response against the BFS reference. *)
let verify ~warm inp i = function
  | Error e -> Error ("malformed response: " ^ e)
  | Ok r -> (
      let want = Inputs.affected inp.topo inp.universe.(inp.trace.(i)) in
      match Serve.Json.mem_list "results" r with
      | _ when Serve.Json.mem_bool "ok" r <> Some true ->
          Error ("refused: " ^ Serve.Json.to_string r)
      | Some [ res ] when affected_of res <> Some want ->
          Error (Printf.sprintf "request %d: affected set differs from BFS" i)
      | Some [ _ ]
        when warm
             && (int_at [ "misses" ] r <> 0
                || int_at [ "fresh"; "firings" ] r <> 0
                || int_at [ "ground"; "fresh_rules" ] r <> 0) ->
          Error (Printf.sprintf "request %d: warm daemon ground or solved" i)
      | Some [ _ ] -> Ok r
      | _ -> Error (Printf.sprintf "request %d: expected one result" i))

let run_phase ~cli ~dir ~warm ~rate ~seed ~n inp =
  let d, setup_s = start ~cli ~dir inp in
  let lines =
    Array.init n (fun i ->
        Trace.with_span ~req:i "client.encode" (fun () ->
            Serve.Json.to_string
              (sweep_json
                 (Inputs.sweep_mutation inp.topo inp.universe.(inp.trace.(i))))))
  in
  let conns = Array.init 2 (fun _ -> Proc.connect d) in
  let r =
    Fun.protect
      ~finally:(fun () -> Array.iter Unix.close conns)
      (fun () ->
        Loadgen.run conns ~due:(Loadgen.poisson ~seed ~rate n) lines)
  in
  let status = Proc.request d (Serve.Protocol.request_to_json Serve.Protocol.Status) in
  let rss_kb = Proc.vm_hwm_kb d.Proc.pid in
  Proc.stop d;
  let failed = ref 0 and path_ms = ref [] in
  let on_path resp =
    int_at [ (if warm then "disk_hits" else "misses") ] resp > 0
  in
  let lat_ms = ref [] and handle = ref [] and wait = ref [] and wire = ref [] in
  let batch = ref 0 and hits = ref 0 and disk = ref 0 and deltas = ref 0 in
  let fresh_s = ref 0.0 and fresh_rules = ref 0 and parse_us = ref [] in
  let bytes = ref 0 in
  for i = 0 to n - 1 do
    let ms = 1000.0 *. Loadgen.latency r i in
    if Float.is_nan r.Loadgen.recv.(i) then begin
      incr failed;
      lat_ms := infinity :: !lat_ms;
      path_ms := infinity :: !path_ms
    end
    else begin
      Trace.record ~req:i ~tid:(100 + r.Loadgen.conn.(i)) ~async:true
        "client.roundtrip" r.Loadgen.sent.(i) r.Loadgen.recv.(i);
      let t0 = Clock.now () in
      let parsed = Serve.Json.parse r.Loadgen.responses.(i) in
      let t1 = Clock.now () in
      Trace.record ~req:i "serve.json.parse" t0 t1;
      parse_us := ((t1 -. t0) *. 1e6) :: !parse_us;
      match verify ~warm inp i parsed with
      | Ok resp ->
        let wall = float_at [ "wall_s" ] resp in
        handle := (1000.0 *. wall) :: !handle;
        wait := (1000.0 *. (wall -. float_at [ "batch_wall_s" ] resp)) :: !wait;
        wire :=
          ((1000.0 *. (r.Loadgen.recv.(i) -. r.Loadgen.sent.(i))) -. (1000.0 *. wall))
          :: !wire;
        batch := !batch + 1 + int_at [ "batched_with" ] resp;
        hits := !hits + int_at [ "hits" ] resp;
        disk := !disk + int_at [ "disk_hits" ] resp;
        deltas := !deltas + int_at [ "deltas" ] resp;
        fresh_s := !fresh_s +. float_at [ "fresh"; "wall_s" ] resp;
        fresh_rules := !fresh_rules + int_at [ "ground"; "fresh_rules" ] resp;
        bytes := !bytes + String.length r.Loadgen.responses.(i);
        lat_ms := ms :: !lat_ms;
        if on_path resp then path_ms := ms :: !path_ms
      | Error why ->
          incr failed;
          lat_ms := infinity :: !lat_ms;
          path_ms := infinity :: !path_ms;
          Printf.eprintf "e2e: serve: %s\n%!" why
    end
  done;
  if int_at [ "store"; "corrupt" ] status > 0 then begin
    incr failed;
    prerr_endline "e2e: serve: the store reported corrupt entries"
  end;
  let late_ms = List.init n (fun i -> 1000.0 *. Loadgen.lateness r i) in
  let med = function [] -> 0.0 | l -> Sample.median l in
  let fi = float_of_int in
  let ok = n - !failed in
  let store k = fi (int_at [ "store"; k ] status) in
  {
    setup_s;
    rss_kb;
    path_ms = !path_ms;
    late_ms;
    attempted = n;
    failed = !failed;
    layers =
      [
        ("serve.handle_ms_p50", med !handle);
        ("serve.queue_wait_ms_p50", med !wait);
        ("serve.batch_size_mean", if ok = 0 then 0.0 else fi !batch /. fi ok);
        ("serve.wire_ms_p50", med !wire);
        ("serve.cache.hit_ratio", Cli_work.ratio (fi !hits) (fi !deltas));
        ("serve.cache.disk_hit_ratio", Cli_work.ratio (fi !disk) (fi !deltas));
        ("serve.fresh.solve_s", !fresh_s);
        ("serve.ground.fresh_rules", fi !fresh_rules);
        ("serve.store.stored", store "stored");
        ("serve.store.hits", store "hits");
        ("serve.store.bytes_per_entry", Cli_work.ratio (store "bytes") (store "entries"));
        ("serve.store.corrupt", store "corrupt");
        ("serve.queue.batches", fi (int_at [ "queue"; "batches" ] status));
        ("serve.queue.max_batch", fi (int_at [ "queue"; "max_batch" ] status));
        ("serve.json.parse_us_p50", med !parse_us);
        ("serve.resp_bytes_mean", if ok = 0 then 0.0 else fi !bytes /. fi ok);
        ("loadgen.latency_p50_ms", med !lat_ms);
        ( "loadgen.latency_p99_ms",
          Option.value ~default:0.0 (Sample.percentile 0.99 !lat_ms) );
        ("loadgen.late_ms_p50", med late_ms);
        ("loadgen.late_ms_max", List.fold_left Float.max 0.0 late_ms);
        ("loadgen.backlog_end", fi r.Loadgen.backlog_end);
      ];
  }

(* serve-warm: every distinct what-if of the trace, solved and persisted
   by a daemon of its own before the measured daemons start (untimed). *)
let populate ~cli ~dir inp =
  let seen = Hashtbl.create 1024 in
  let todo =
    List.filter
      (fun u ->
        let fresh = not (Hashtbl.mem seen u) in
        Hashtbl.replace seen u ();
        fresh)
      (Array.to_list inp.trace)
  in
  let d, _ = start ~cli ~dir inp in
  let failed = ref 0 and attempted = ref 0 in
  let rec chunks = function
    | [] -> ()
    | l ->
        let batch = List.filteri (fun i _ -> i < 256) l in
        incr attempted;
        let r =
          Proc.request d
            (sweep_json
               (String.concat "\n"
                  (List.map
                     (fun u -> Inputs.sweep_mutation inp.topo inp.universe.(u))
                     batch)))
        in
        let got =
          List.map affected_of
            (Option.value ~default:[] (Serve.Json.mem_list "results" r))
        in
        if
          got
          <> List.map (fun u -> Some (Inputs.affected inp.topo inp.universe.(u))) batch
        then begin
          incr failed;
          prerr_endline "e2e: serve: populating sweep differs from BFS"
        end;
        chunks (List.filteri (fun i _ -> i >= 256) l)
  in
  chunks todo;
  Proc.stop d;
  (!attempted, !failed)

(* A phase in which the generator itself fell behind schedule (its 99th
   percentile of lateness over [max_late_s]) is void: its latencies are
   set aside, and the run measures another phase. The gate is not on the
   maximum: on a shared virtual host even an idle sleep loop wakes 10-20
   ms late a few times in ten seconds. *)
let void p =
  Option.value ~default:0.0 (Sample.percentile 0.99 p.late_ms)
  > 1000.0 *. max_late_s

(* One run: steps for [seconds] (at least one, and more until one phase
   is valid or two were void). A step is [bare_starts] daemon starts and
   stops (untraced runs only), then a phase of [phase_requests] at the
   workload's rate against another freshly started daemon (a fresh store
   for serve-cold, the populated one for serve-warm), with its own
   arrival schedule. The latency is the median over the valid phases'
   answers on the workload's own path (see [phase]); the set-up time is
   the median over every start. Traced, the run records client spans and
   reports the mean per-layer split of its phases.

   Both workloads mix answers from memory (under a millisecond) with
   answers on their own path (5-15 ms), so the median of all requests
   sits between the two kinds and jumps with the seed's mix. A high
   percentile of all requests is stable from seed to seed but reads the
   slowest tenth, which is where other tenants of a shared host show
   first; the median of one kind needs them in half its samples. *)
let run ~cli ~seed ~seconds ~smoke ~warm ~trace ~trace_out =
  let rate = if smoke then 500.0 else if warm then warm_rate else cold_rate in
  let n = if smoke then 100 else phase_requests in
  let bare = if trace then 0 else if smoke then 1 else bare_starts in
  let inp = inputs ~seed ~smoke ~n in
  let store = Proc.temp_dir "e2e-store" in
  let dir () = if warm then store else Proc.temp_dir "e2e-cold" in
  let pre_attempted, pre_failed =
    if warm then populate ~cli ~dir:store inp else (0, 0)
  in
  let start_t = Clock.now () in
  let rec steps k acc setups =
    let valid = List.filter (fun p -> not (void p)) acc in
    if
      (valid <> [] || k >= 2)
      && not (Clock.another_fits ~start:start_t ~seconds ~steps:k)
    then (List.rev acc, setups)
    else begin
      let bare_setups =
        List.init bare (fun _ ->
            let d, s = start ~cli ~dir:(dir ()) inp in
            Proc.stop d;
            s)
      in
      Trace.enabled := trace;
      let p = run_phase ~cli ~dir:(dir ()) ~warm ~rate ~seed:((seed * 64) + k) ~n inp in
      Trace.enabled := false;
      if void p then
        Printf.eprintf "e2e: serve generator ran %.1f ms late (p99); phase void\n%!"
          (Option.value ~default:0.0 (Sample.percentile 0.99 p.late_ms));
      steps (k + 1) (p :: acc) ((p.setup_s :: bare_setups) @ setups)
    end
  in
  let all, setups = steps 0 [] [] in
  let used = match List.filter (fun p -> not (void p)) all with [] -> all | v -> v in
  let attempted = pre_attempted + List.fold_left (fun a p -> a + p.attempted) 0 all
  and failed = pre_failed + List.fold_left (fun a p -> a + p.failed) 0 all in
  if trace then begin
    Trace.write_chrome trace_out (Trace.drain ());
    { Cli_work.attempted; failed; metrics = Cli_work.mean_by_name (List.map (fun p -> p.layers) used) }
  end
  else
    {
      Cli_work.attempted;
      failed;
      metrics =
        [
          ("setup_s", Sample.median setups);
          ( "latency_ms",
            match List.concat_map (fun p -> p.path_ms) used with
            | [] -> infinity
            | l -> Sample.median l );
          ( "peak_rss_mb",
            float_of_int (List.fold_left (fun a p -> max a p.rss_kb) 0 all) /. 1024.0 );
        ];
    }
