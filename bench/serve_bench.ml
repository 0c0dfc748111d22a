(* The assessment service end to end, over its real Unix-domain socket:
   what a client actually pays for a 256-delta what-if sweep against

   - cold:          a fresh daemon with an empty cache directory — every
                    unique delta is ground and solved;
   - warm-process:  the same daemon asked again — answered from the
                    in-memory cache;
   - warm-disk:     a RESTARTED daemon on the same cache directory — the
                    memory cache is gone, every answer comes off disk
                    (the response's own accounting proves zero fresh
                    grounding and zero fresh solving);
   - burst:         single-delta requests hammered from concurrent client
                    connections — socket + queue overhead and request
                    coalescing, reported as requests/s.

   Emits JSON (committed as BENCH_serve.json at the repo root for the
   full run; `dune build @serve-bench-smoke` runs a seconds-scale subset
   as part of the test tree). *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let delta_line (d : Engine.Delta.t) =
  Printf.sprintf "%s / %s"
    (match d.Engine.Delta.faults with [] -> "-" | fs -> String.concat "," fs)
    (match d.Engine.Delta.mitigations with
    | [] -> "-"
    | ms -> String.concat "," ms)

let socket = "serve_bench.sock"
let cache_dir = "serve_bench_cache"

let start_daemon () =
  let th =
    Thread.create
      (fun () ->
        Serve.Server.run
          {
            Serve.Server.socket;
            cache_dir = Some cache_dir;
            cache_mb = None;
            log = None;
          })
      ()
  in
  let rec await tries =
    match Serve.Client.connect socket with
    | c ->
        Serve.Client.close c
    | exception Unix.Unix_error _ ->
        if tries = 0 then failwith "daemon did not come up";
        Thread.delay 0.05;
        await (tries - 1)
  in
  await 200;
  th

let must = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "serve_bench: %s" e)

let geti field json =
  match Serve.Json.mem_int field json with
  | Some v -> v
  | None -> failwith (Printf.sprintf "serve_bench: response lacks %S" field)

type entry = {
  name : string;
  wall_s : float;
  hits : int;
  disk_hits : int;
  misses : int;
}

let sweep_entry name client muts =
  let response, s =
    wall (fun () ->
        must
          (Serve.Client.call client
             (Serve.Protocol.Sweep { model = "wt"; mutations = muts; jobs = None })))
  in
  ( {
      name;
      wall_s = s;
      hits = geti "hits" response;
      disk_hits = geti "disk_hits" response;
      misses = geti "misses" response;
    },
    response )

let run ~smoke ~out =
  let n = if smoke then 24 else 256 in
  let horizon = if smoke then 6 else 12 in
  let seed = 1 in
  let deltas = Cpsrisk.Sweeps.random_deltas ~seed n in
  let muts = String.concat "\n" (List.map delta_line deltas) in
  rm_rf cache_dir;
  (try Sys.remove socket with Sys_error _ -> ());

  let load client =
    let _, s =
      wall (fun () ->
          must
            (Serve.Client.call client
               (Serve.Protocol.Load_model
                  {
                    name = "wt";
                    backend = Serve.Protocol.Water_tank;
                    horizon = Some horizon;
                    model_src = None;
                  })))
    in
    s
  in

  (* --- daemon 1: cold sweep, then the warm-process repeat ------------ *)
  let daemon = start_daemon () in
  let client = Serve.Client.connect socket in
  let load1_s = load client in
  let cold, cold_results = sweep_entry "cold" client muts in
  Printf.eprintf "  load          : %8.4fs (fresh daemon)\n%!" load1_s;
  Printf.eprintf "  cold          : %8.4fs, %d hits / %d disk / %d fresh\n%!"
    cold.wall_s cold.hits cold.disk_hits cold.misses;
  let warm_mem, warm_mem_results = sweep_entry "warm-process" client muts in
  Printf.eprintf "  warm-process  : %8.4fs (%.1fx cold), %d hits / %d disk / %d fresh\n%!"
    warm_mem.wall_s
    (cold.wall_s /. warm_mem.wall_s)
    warm_mem.hits warm_mem.disk_hits warm_mem.misses;

  (* --- burst: concurrent single-delta requests over own connections -- *)
  let burst_total = if smoke then 48 else 192 in
  let threads = 8 in
  let per_thread = burst_total / threads in
  let (), burst_s =
    wall (fun () ->
        let ts =
          List.init threads (fun t ->
              Thread.create
                (fun () ->
                  let c = Serve.Client.connect socket in
                  for i = 0 to per_thread - 1 do
                    let d = List.nth deltas ((t * per_thread + i) mod n) in
                    ignore
                      (must
                         (Serve.Client.call c
                            (Serve.Protocol.Sweep
                               {
                                 model = "wt";
                                 mutations = delta_line d;
                                 jobs = None;
                               })))
                  done;
                  Serve.Client.close c)
                ())
        in
        List.iter Thread.join ts)
  in
  let status = must (Serve.Client.call client Serve.Protocol.Status) in
  let queue =
    match Serve.Json.member "queue" status with
    | Some q -> q
    | None -> failwith "status lacks queue"
  in
  let batches = geti "batches" queue in
  let max_batch = geti "max_batch" queue in
  Printf.eprintf
    "  burst         : %8.4fs, %d requests -> %.0f req/s, %d queue batches (max %d)\n%!"
    burst_s burst_total
    (float_of_int burst_total /. burst_s)
    batches max_batch;
  ignore (must (Serve.Client.call client Serve.Protocol.Shutdown));
  Serve.Client.close client;
  Thread.join daemon;

  (* --- daemon 2: same cache directory, memory gone — disk must serve -- *)
  let daemon = start_daemon () in
  let client = Serve.Client.connect socket in
  let load2_s = load client in
  let warm_disk, disk_results = sweep_entry "warm-disk" client muts in
  Printf.eprintf
    "  warm-disk     : %8.4fs (%.1fx cold), %d hits / %d disk / %d fresh (restarted daemon)\n%!"
    warm_disk.wall_s
    (cold.wall_s /. warm_disk.wall_s)
    warm_disk.hits warm_disk.disk_hits warm_disk.misses;
  ignore (must (Serve.Client.call client Serve.Protocol.Shutdown));
  Serve.Client.close client;
  Thread.join daemon;
  let entry_sizes =
    Sys.readdir cache_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ent")
    |> List.map (fun f -> (Unix.stat (Filename.concat cache_dir f)).Unix.st_size)
  in
  let store_entries = List.length entry_sizes in
  let bytes_per_entry = List.fold_left ( + ) 0 entry_sizes / max 1 store_entries in
  Printf.eprintf "  store         : %d entries, %d bytes per entry\n%!"
    store_entries bytes_per_entry;
  rm_rf cache_dir;

  (* the restarted daemon must have done no fresh work, and all three
     sweeps must agree job for job *)
  if warm_disk.misses <> 0 then begin
    Printf.eprintf "warm-disk sweep was not fully served from the store\n";
    exit 2
  end;
  (* per-job "source" is provenance, not an answer — it legitimately
     differs between generations (fresh vs memory vs disk) *)
  let rec strip_source = function
    | Serve.Json.Obj fields ->
        Serve.Json.Obj
          (List.filter_map
             (fun (k, v) ->
               if k = "source" then None else Some (k, strip_source v))
             fields)
    | Serve.Json.List xs -> Serve.Json.List (List.map strip_source xs)
    | j -> j
  in
  let results j = Option.map strip_source (Serve.Json.member "results" j) in
  if results disk_results <> results cold_results
     || results warm_mem_results <> results cold_results
  then begin
    Printf.eprintf "served sweeps disagree across daemon generations\n";
    exit 2
  end;

  let oc = open_out out in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"bench\": \"assessment-service\",\n";
  p "  \"mode\": %S,\n" (if smoke then "smoke" else "full");
  p "  \"workload\": \"water-tank temporal ASP, seeded-random deltas, over the Unix-domain socket\",\n";
  p "  \"deltas\": %d,\n" n;
  p "  \"horizon\": %d,\n" horizon;
  p "  \"seed\": %d,\n" seed;
  p "  \"host_domains\": %d,\n" (Domain.recommended_domain_count ());
  p "  \"host\": {\"cpu\": %S, \"ocaml\": %S},\n" (Registry.cpu_model ())
    Sys.ocaml_version;
  p "  \"store\": {\"entries\": %d, \"bytes_per_entry\": %d},\n" store_entries
    bytes_per_entry;
  p "  \"load_s\": [%.6f, %.6f],\n" load1_s load2_s;
  p "  \"entries\": [\n";
  List.iteri
    (fun i e ->
      p
        "    {\"name\": %S, \"wall_s\": %.6f, \"speedup_vs_cold\": %.2f, \
         \"hits\": %d, \"disk_hits\": %d, \"misses\": %d}%s\n"
        e.name e.wall_s
        (cold.wall_s /. e.wall_s)
        e.hits e.disk_hits e.misses
        (if i = 2 then "" else ",")
    )
    [ cold; warm_mem; warm_disk ];
  p "  ],\n";
  p "  \"burst\": {\"requests\": %d, \"client_threads\": %d, \"wall_s\": %.6f, \
     \"requests_per_s\": %.0f, \"queue_batches\": %d, \"max_batch\": %d}\n"
    burst_total threads burst_s
    (float_of_int burst_total /. burst_s)
    batches max_batch;
  p "}\n";
  close_out oc;
  Printf.eprintf "wrote %s\n" out;
  let sweep_row (e : entry) =
    Registry.row
      ~note:
        (Printf.sprintf "%.1fx cold, %d hits / %d disk / %d fresh"
           (cold.wall_s /. e.wall_s)
           e.hits e.disk_hits e.misses)
      ~param:(string_of_int n) e.name e.wall_s
  in
  List.map sweep_row [ cold; warm_mem; warm_disk ]
  @ [
      Registry.row
        ~note:
          (Printf.sprintf "%.0f req/s over %d client threads"
             (float_of_int burst_total /. burst_s)
             threads)
        ~param:(string_of_int burst_total) "burst" burst_s;
    ]

let bench =
  {
    Registry.name = "serve";
    descr = "assessment daemon end to end over its Unix socket";
    default_out = "BENCH_serve.json";
    run;
  }
