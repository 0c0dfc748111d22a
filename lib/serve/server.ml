type config = {
  socket : string;
  cache_dir : string option;
  cache_mb : int option;
  log : (string -> unit) option;
}

let default_config =
  { socket = "cpsrisk.sock"; cache_dir = None; cache_mb = None; log = None }

type t = {
  config : config;
  store : Registry.value Store.t option;
  registry : Registry.t;
  started_at : float;
  mutable listen_fd : Unix.file_descr option;
  stop_requested : bool Atomic.t;
}

let log t fmt =
  Printf.ksprintf
    (fun s -> match t.config.log with Some f -> f s | None -> ())
    fmt

(* ------------------------------------------------------------------ *)
(* Request dispatch                                                    *)
(* ------------------------------------------------------------------ *)

(* A topology target parses the model the client inlined. *)
let target_of_load ~backend ~horizon ~model_src =
  match (Cpsrisk.Backend.needs_model backend, model_src) with
  | false, _ -> Ok (Cpsrisk.Backend.target ?horizon backend)
  | true, None ->
      Error
        (Printf.sprintf "%s backend requires \"model_src\""
           (Cpsrisk.Backend.name backend))
  | true, Some src -> (
      match Archimate.Text.parse src with
      | model -> Ok (Cpsrisk.Backend.target ~model backend)
      | exception Archimate.Text.Error msg ->
          Error (Printf.sprintf "model parse error: %s" msg))

let store_to_json t =
  match t.store with
  | None -> Json.Null
  | Some s ->
      let j = Store.stats_to_json (Store.stats s) in
      let extra =
        [
          ("dir", Json.String (Store.dir s));
          ("entries", Json.Int (Store.entries s));
          ("bytes", Json.Int (Store.total_bytes s));
          ( "max_bytes",
            match Store.max_bytes s with
            | Some b -> Json.Int b
            | None -> Json.Null );
        ]
      in
      (match j with Json.Obj fields -> Json.Obj (fields @ extra) | j -> j)

let handle_request t (request : Protocol.request) : Json.t * bool =
  let t0 = Unix.gettimeofday () in
  match request with
  | Protocol.Load_model { name; backend; horizon; model_src } -> (
      match target_of_load ~backend ~horizon ~model_src with
      | Error msg -> (Protocol.error msg, false)
      | Ok target -> (
          match Registry.load t.registry ~name target with
          | entry ->
              let backend = Cpsrisk.Backend.name backend in
              log t "load-model %s (%s, %d base atoms)" name backend
                (Registry.base_atoms entry);
              ( Protocol.ok
                  [
                    ("model", Json.String name);
                    ("backend", Json.String backend);
                    ("base_atoms", Json.Int (Registry.base_atoms entry));
                    ( "wall_s",
                      Json.Float (Unix.gettimeofday () -. t0) );
                  ],
                false )
          | exception Asp.Grounder.Unsafe msg
          | exception Asp.Grounder.Overflow msg ->
              ( Protocol.error (Printf.sprintf "grounding error: %s" msg),
                false )))
  | Protocol.Sweep { model; mutations; jobs = _ } -> (
      match Registry.find t.registry model with
      | None ->
          ( Protocol.error
              (Printf.sprintf "unknown model %S (load-model first)" model),
            false )
      | Some entry -> (
          match Engine.Delta.parse mutations with
          | Error e ->
              ( Protocol.error
                  (Printf.sprintf "mutations: %s"
                     (Engine.Delta.error_to_string e)),
                false )
          | Ok deltas ->
              (* runs on this connection's thread; handle_connection
                 answers an exception it raises *)
              let report =
                Engine.Sweep.run_prepared ~cache:entry.Registry.cache
                  entry.Registry.prepared deltas
              in
              Atomic.incr entry.Registry.sweeps;
              ignore
                (Atomic.fetch_and_add entry.Registry.jobs_served
                   (List.length deltas));
              log t "sweep %s: %d deltas" model (List.length deltas);
              ( Protocol.ok
                  (("model", Json.String model)
                  :: Answer.sweep entry.Registry.backend
                       report.Engine.Sweep.results
                       ~extra:
                         [
                           ( "batch_wall_s",
                             Json.Float report.Engine.Sweep.wall_s );
                           ("wall_s", Json.Float (Unix.gettimeofday () -. t0));
                         ]),
                false )))
  | Protocol.Mitigate { model; search } -> (
      match Registry.find t.registry model with
      | None ->
          ( Protocol.error
              (Printf.sprintf "unknown model %S (load-model first)" model),
            false )
      | Some entry -> (
          match entry.Registry.frontier with
          | None ->
              ( Protocol.error
                  (Printf.sprintf
                     "model %S (%s backend) carries no action catalog"
                     model (Cpsrisk.Backend.name entry.Registry.backend)),
                false )
          | Some f -> (
              match Cpsrisk.Pipeline.mitigate_frontier f search with
              | answer, report ->
                  Atomic.incr entry.Registry.mitigations;
                  log t "mitigate %s: %s (%d evals, %d cached)" model
                    (Protocol.search_name search)
                    report.Mitigation.Frontier.r_evals
                    (report.Mitigation.Frontier.r_hits
                    + report.Mitigation.Frontier.r_disk_hits);
                  ( Protocol.ok
                      ([
                         ("model", Json.String model);
                         ("search", Json.String (Protocol.search_name search));
                       ]
                      @ Answer.frontier answer report
                      @ [ ("wall_s", Json.Float (Unix.gettimeofday () -. t0)) ]),
                    false )
              | exception e ->
                  (Protocol.error (Printexc.to_string e), false))))
  | Protocol.Solve { program; limit; optimal } ->
      ( (match Answer.solve ?limit ~optimal program with
        | Ok solved -> Protocol.ok (Answer.solved solved)
        | Error msg -> Protocol.error msg),
        false )
  | Protocol.Status ->
      ( Protocol.ok
          [
            ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started_at));
            ("models", Json.Int (Registry.count t.registry));
            ("store", store_to_json t);
          ],
        false )
  | Protocol.Stats ->
      ( Protocol.ok
          [
            ( "models",
              Json.List
                (List.map Registry.entry_to_json (Registry.list t.registry))
            );
            ("store", store_to_json t);
          ],
        false )
  | Protocol.List_models ->
      ( Protocol.ok
          [
            ( "models",
              Json.List
                (List.map
                   (fun (e : Registry.entry) -> Json.String e.Registry.name)
                   (Registry.list t.registry)) );
          ],
        false )
  | Protocol.Evict_model { name } ->
      let existed = Registry.evict t.registry name in
      ( (if existed then Protocol.ok [ ("model", Json.String name) ]
         else Protocol.error (Printf.sprintf "unknown model %S" name)),
        false )
  | Protocol.Shutdown ->
      log t "shutdown requested";
      (Protocol.ok [ ("stopping", Json.Bool true) ], true)

(* ------------------------------------------------------------------ *)
(* Connection and accept loops                                         *)
(* ------------------------------------------------------------------ *)

let request_stop t =
  if not (Atomic.exchange t.stop_requested true) then
    (* wake the blocked accept with a throwaway connection — closing the
       listening fd from another thread does NOT interrupt accept(2) *)
    match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
    | exception Unix.Unix_error _ -> ()
    | fd ->
        (try Unix.connect fd (Unix.ADDR_UNIX t.config.socket)
         with Unix.Unix_error _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ())

let handle_connection t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | exception Sys_error _ -> ()
    | line ->
        let response, stop =
          match Protocol.parse_request line with
          | Error msg -> (Protocol.error msg, false)
          | Ok request -> (
              match handle_request t request with
              | r -> r
              | exception e ->
                  (Protocol.error (Printexc.to_string e), false))
        in
        match
          output_string oc (Json.to_string response);
          output_char oc '\n';
          flush oc
        with
        | () -> if stop then request_stop t else loop ()
        | exception Sys_error _ ->
            (* the client hung up before its answer: end this connection
               only *)
            if stop then request_stop t
  in
  (* closing the channel also closes [fd], and drops whatever a failed
     write left in its buffer *)
  Fun.protect ~finally:(fun () -> close_out_noerr oc) loop

let run ?on_ready config =
  (* a write to a connection whose client has gone must fail that write,
     not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let store =
    Option.map
      (fun dir ->
        Store.open_
          ?max_bytes:(Option.map (fun mb -> mb * 1024 * 1024) config.cache_mb)
          dir)
      config.cache_dir
  in
  let registry = Registry.create ?store () in
  let t =
    {
      config;
      store;
      registry;
      started_at = Unix.gettimeofday ();
      listen_fd = None;
      stop_requested = Atomic.make false;
    }
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Unix.stat config.socket with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink config.socket
  | _ -> ()
  | exception Unix.Unix_error _ -> ());
  Unix.bind fd (Unix.ADDR_UNIX config.socket);
  Unix.listen fd 64;
  t.listen_fd <- Some fd;
  log t "listening on %s%s" config.socket
    (match config.cache_dir with
    | Some d -> Printf.sprintf " (cache %s)" d
    | None -> " (no persistent cache)");
  (match on_ready with Some f -> f () | None -> ());
  let workers = ref [] in
  let rec accept_loop () =
    if not (Atomic.get t.stop_requested) then
      match Unix.accept fd with
      | client, _ when Atomic.get t.stop_requested ->
          (* the wake-up connection from request_stop, or a client racing
             the shutdown — either way, stop serving *)
          (try Unix.close client with Unix.Unix_error _ -> ())
      | client, _ ->
          workers :=
            Thread.create (fun () -> handle_connection t client) ()
            :: !workers;
          accept_loop ()
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
  in
  accept_loop ();
  (* orderly teardown: finish in-flight connections, remove the socket
     file *)
  List.iter
    (fun th -> try Thread.join th with _ -> ())
    !workers;
  (match t.listen_fd with
  | Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  (try Unix.unlink config.socket with Unix.Unix_error _ -> ());
  log t "stopped"
