type config = {
  socket : string;
  cache_dir : string option;
  cache_mb : int option;
  jobs : int option;
  log : (string -> unit) option;
}

let default_config =
  { socket = "cpsrisk.sock"; cache_dir = None; cache_mb = None; jobs = None;
    log = None }

type sweep_request = {
  entry : Registry.entry;
  deltas : Engine.Delta.t list;
  req_jobs : int option;
}

type sweep_reply = {
  results : Engine.Job.result array;
  batch_size : int;  (** requests coalesced into the engine pass *)
  batch_wall_s : float;
}

type t = {
  config : config;
  store : Registry.value Store.t option;
  registry : Registry.t;
  queue : (sweep_request, sweep_reply) Queue.t;
  started_at : float;
  mutable listen_fd : Unix.file_descr option;
  stop_requested : bool Atomic.t;
}

let log t fmt =
  Printf.ksprintf
    (fun s -> match t.config.log with Some f -> f s | None -> ())
    fmt

(* ------------------------------------------------------------------ *)
(* Batched sweep execution                                             *)
(* ------------------------------------------------------------------ *)

(* One queue batch may mix requests for several models: group them,
   run one engine pass per model over the concatenated deltas (identical
   deltas across requests coalesce in the entry's cache), then slice the
   result array back onto the requests in submission order. *)
let run_batch t (requests : sweep_request array) : sweep_reply array =
  let t0 = Unix.gettimeofday () in
  let n = Array.length requests in
  let replies = Array.make n None in
  let by_model = Hashtbl.create 4 in
  Array.iteri
    (fun i r ->
      let group =
        match Hashtbl.find_opt by_model r.entry.Registry.name with
        | Some g -> g
        | None ->
            let g = ref [] in
            Hashtbl.add by_model r.entry.Registry.name g;
            g
      in
      group := (i, r) :: !group)
    requests;
  Hashtbl.iter
    (fun _name group ->
      let group = List.rev !group in
      let entry = (snd (List.hd group)).entry in
      let jobs =
        let explicit =
          List.filter_map (fun (_, r) -> r.req_jobs) group
        in
        match explicit with
        | [] -> t.config.jobs
        | js -> Some (List.fold_left max 1 js)
      in
      let union = List.concat_map (fun (_, r) -> r.deltas) group in
      let report =
        Engine.Sweep.run_prepared ?jobs ~cache:entry.Registry.cache
          entry.Registry.prepared union
      in
      entry.Registry.sweeps <- entry.Registry.sweeps + List.length group;
      entry.Registry.jobs_served <-
        entry.Registry.jobs_served + List.length union;
      let offset = ref 0 in
      List.iter
        (fun (i, r) ->
          let len = List.length r.deltas in
          replies.(i) <-
            Some
              {
                results =
                  Array.sub report.Engine.Sweep.results !offset len;
                batch_size = n;
                batch_wall_s = 0.0 (* patched below *);
              };
          offset := !offset + len)
        group)
    by_model;
  let wall = Unix.gettimeofday () -. t0 in
  Array.map
    (function
      | Some r -> { r with batch_wall_s = wall }
      | None -> assert false (* every request belongs to exactly one group *))
    replies

(* ------------------------------------------------------------------ *)
(* Response rendering                                                  *)
(* ------------------------------------------------------------------ *)

let sweep_response entry (reply : sweep_reply) wall_s =
  Protocol.ok
    (("model", Json.String entry.Registry.name)
    :: Answer.sweep entry.Registry.backend reply.results
         ~extra:
           [
             ("batched_with", Json.Int (reply.batch_size - 1));
             ("batch_wall_s", Json.Float reply.batch_wall_s);
             ("wall_s", Json.Float wall_s);
           ])

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

let queue_to_json t =
  let q = Queue.stats t.queue in
  Json.Obj
    [
      ("submitted", Json.Int q.Queue.submitted);
      ("batches", Json.Int q.Queue.batches);
      ("max_batch", Json.Int q.Queue.max_batch);
      ("pending", Json.Int (Queue.pending t.queue));
    ]

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
  | Protocol.Sweep { model; mutations; jobs } -> (
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
          | Ok deltas -> (
              match
                Queue.submit t.queue { entry; deltas; req_jobs = jobs }
              with
              | reply ->
                  log t "sweep %s: %d deltas (batch of %d)" model
                    (List.length deltas) (reply.batch_size);
                  ( sweep_response entry reply (Unix.gettimeofday () -. t0),
                    false )
              | exception Queue.Stopped ->
                  (Protocol.error "server shutting down", false)
              | exception e ->
                  (Protocol.error (Printexc.to_string e), false))))
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
                  entry.Registry.mitigations <- entry.Registry.mitigations + 1;
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
            ("queue", queue_to_json t);
            ("store", store_to_json t);
            ( "jobs",
              match t.config.jobs with
              | Some j -> Json.Int j
              | None -> Json.Null );
          ],
        false )
  | Protocol.Stats ->
      ( Protocol.ok
          [
            ( "models",
              Json.List
                (List.map Registry.entry_to_json (Registry.list t.registry))
            );
            ("queue", queue_to_json t);
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
        output_string oc (Json.to_string response);
        output_char oc '\n';
        flush oc;
        if stop then request_stop t else loop ()
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    loop

let run ?on_ready config =
  let store =
    Option.map
      (fun dir ->
        Store.open_
          ?max_bytes:(Option.map (fun mb -> mb * 1024 * 1024) config.cache_mb)
          dir)
      config.cache_dir
  in
  let registry = Registry.create ?store () in
  let t_ref = ref None in
  let queue =
    Queue.create ~batch:(fun reqs ->
        match !t_ref with
        | Some t -> run_batch t reqs
        | None -> assert false (* queue only serves after [t] is built *))
  in
  let t =
    {
      config;
      store;
      registry;
      queue;
      started_at = Unix.gettimeofday ();
      listen_fd = None;
      stop_requested = Atomic.make false;
    }
  in
  t_ref := Some t;
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
  (* orderly teardown: finish in-flight connections, drain the queue,
     persist the store's manifest, remove the socket file *)
  List.iter
    (fun th -> try Thread.join th with _ -> ())
    !workers;
  Queue.stop t.queue;
  (match store with Some s -> Store.close s | None -> ());
  (match t.listen_fd with
  | Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  (try Unix.unlink config.socket with Unix.Unix_error _ -> ());
  log t "stopped"
