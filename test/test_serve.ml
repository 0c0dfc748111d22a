(* The assessment service: the hand-rolled JSON layer, the on-disk
   content-addressed store (eviction, corruption recovery, crash debris,
   cross-process concurrency), the batching queue, the wire protocol, the
   model registry, the answer encoders the CLI shares, and a golden of
   the daemon's responses. The end-to-end daemon path — restart,
   disk-served re-sweep, bit-for-bit parity with the one-shot CLI — is
   exercised by test/serve_smoke.sh (@serve-smoke). *)

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ------------------------------------------------------------------ *)
(* Json                                                                 *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let v =
    Serve.Json.Obj
      [
        ("s", Serve.Json.String "a\"b\\c\nd\te");
        ("i", Serve.Json.Int (-42));
        ("f", Serve.Json.Float 1.5);
        ("b", Serve.Json.Bool true);
        ("n", Serve.Json.Null);
        ( "l",
          Serve.Json.List
            [ Serve.Json.Int 1; Serve.Json.String ""; Serve.Json.Bool false ]
        );
        ("o", Serve.Json.Obj [ ("nested", Serve.Json.Int 7) ]);
      ]
  in
  let s = Serve.Json.to_string v in
  checkb "single line" false (String.contains s '\n');
  (match Serve.Json.parse s with
  | Ok v' -> checkb "roundtrip" true (v = v')
  | Error e -> Alcotest.fail e);
  (* printed floats survive a second trip *)
  match Serve.Json.parse "{\"x\": 0.1}" with
  | Ok (Serve.Json.Obj [ ("x", Serve.Json.Float f) ]) ->
      checkb "float value" true (abs_float (f -. 0.1) < 1e-12)
  | _ -> Alcotest.fail "float parse"

let test_json_escapes () =
  (* \uXXXX escapes decode to UTF-8, including a surrogate pair (U+1F600) *)
  (match Serve.Json.parse "\"a\\u00e9\\ud83d\\ude00b\"" with
  | Ok (Serve.Json.String s) ->
      check Alcotest.string "utf-8 decoding" "a\xc3\xa9\xf0\x9f\x98\x80b" s
  | _ -> Alcotest.fail "unicode escape");
  (* control characters are escaped on output and decode back *)
  check Alcotest.string "control escape" "\"\\u0001\""
    (Serve.Json.to_string (Serve.Json.String "\x01"));
  match Serve.Json.parse "\"\\u0001\"" with
  | Ok (Serve.Json.String "\x01") -> ()
  | _ -> Alcotest.fail "control roundtrip"

let test_json_errors () =
  let bad s =
    match Serve.Json.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" s)
  in
  List.iter bad
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "\"unterminated"; "{\"a\":1}x" ]

(* ------------------------------------------------------------------ *)
(* Store                                                                *)
(* ------------------------------------------------------------------ *)

let with_tmp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cpsrisk-store-test-%d-%d" (Unix.getpid ())
         (int_of_float (Unix.gettimeofday () *. 1e6) mod 1_000_000))
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

let fp i = Engine.Fingerprint.ints [ 0xbeef; i ]

let test_store_roundtrip () =
  with_tmp_dir @@ fun dir ->
  let s = Serve.Store.open_ dir in
  checki "fresh store is empty" 0 (Serve.Store.entries s);
  Serve.Store.store s (fp 1) "one";
  Serve.Store.store s (fp 2) "two";
  check (Alcotest.option Alcotest.string) "hit" (Some "one")
    (Serve.Store.find s (fp 1));
  check (Alcotest.option Alcotest.string) "miss" None
    (Serve.Store.find s (fp 99));
  Serve.Store.close s;
  (* a second handle — as after a daemon restart — sees the entries *)
  let s2 = Serve.Store.open_ dir in
  checki "reopened entries" 2 (Serve.Store.entries s2);
  check (Alcotest.option Alcotest.string) "hit across restart" (Some "two")
    (Serve.Store.find s2 (fp 2));
  let st = Serve.Store.stats s2 in
  checki "restart hits" 1 st.Serve.Store.hits;
  Serve.Store.close s2

let entry_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ent")

let test_store_eviction () =
  with_tmp_dir @@ fun dir ->
  (* size one entry, then bound the store to roughly three of them *)
  let payload i = String.make 100 (Char.chr (65 + i)) in
  let probe = Serve.Store.open_ dir in
  Serve.Store.store probe (fp 0) (payload 0);
  let entry_bytes = Serve.Store.total_bytes probe in
  Serve.Store.close probe;
  Sys.remove (Filename.concat dir (List.hd (entry_files dir)));
  let s = Serve.Store.open_ ~max_bytes:(3 * entry_bytes) dir in
  for i = 1 to 5 do
    Serve.Store.store s (fp i) (payload i)
  done;
  checkb "bounded" true (Serve.Store.total_bytes s <= 3 * entry_bytes);
  checki "evicted count" 2 (Serve.Store.stats s).Serve.Store.evicted;
  (* least recently used go first: 1 and 2 are gone, 3..5 remain *)
  checkb "oldest evicted" true (Serve.Store.find s (fp 1) = None);
  checkb "newest kept" true (Serve.Store.find s (fp 5) <> None);
  (* a hit refreshes recency: touch 3, add one more, then 4 is the LRU *)
  ignore (Serve.Store.find s (fp 3));
  Serve.Store.store s (fp 6) (payload 6);
  checkb "recently-read survives" true (Serve.Store.find s (fp 3) <> None);
  checkb "untouched evicted" true (Serve.Store.find s (fp 4) = None);
  (* an entry larger than the whole bound is refused outright *)
  Serve.Store.store s (fp 7) (String.make (4 * entry_bytes) 'x');
  checkb "oversized not admitted" true (Serve.Store.find s (fp 7) = None);
  Serve.Store.close s

let test_store_corruption () =
  with_tmp_dir @@ fun dir ->
  let s = Serve.Store.open_ dir in
  Serve.Store.store s (fp 1) "payload-one";
  Serve.Store.close s;
  let file = Filename.concat dir (List.hd (entry_files dir)) in
  (* truncate mid-payload, as a crash during a non-atomic write would *)
  let truncated =
    let ic = open_in_bin file in
    let n = in_channel_length ic in
    let data = really_input_string ic (n - 4) in
    close_in ic;
    data
  in
  let oc = open_out_bin file in
  output_string oc truncated;
  close_out oc;
  let s = Serve.Store.open_ dir in
  check (Alcotest.option Alcotest.string) "truncated entry is a miss" None
    (Serve.Store.find s (fp 1));
  checki "counted corrupt" 1 (Serve.Store.stats s).Serve.Store.corrupt;
  checkb "corrupt file deleted" true (not (Sys.file_exists file));
  (* deleted means a later store can re-publish it cleanly *)
  Serve.Store.store s (fp 1) "payload-one-again";
  check (Alcotest.option Alcotest.string) "re-stored" (Some "payload-one-again")
    (Serve.Store.find s (fp 1));
  Serve.Store.close s;
  (* flip one payload byte: the MD5 check must reject it *)
  let file = Filename.concat dir (List.hd (entry_files dir)) in
  let data =
    let ic = open_in_bin file in
    let d = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
    close_in ic;
    d
  in
  let last = Bytes.length data - 1 in
  Bytes.set data last (Char.chr (Char.code (Bytes.get data last) lxor 0xff));
  let oc = open_out_bin file in
  output_bytes oc (Bytes.unsafe_to_string data |> Bytes.of_string);
  close_out oc;
  let s = Serve.Store.open_ dir in
  check (Alcotest.option Alcotest.string) "checksum mismatch is a miss" None
    (Serve.Store.find s (fp 1));
  checki "flip counted corrupt" 1 (Serve.Store.stats s).Serve.Store.corrupt;
  Serve.Store.close s

(* An entry of another store format or written by another OCaml runtime
   is an upgrade leftover, not damage: it reads as a clean miss, is
   deleted, and is not counted corrupt. *)
let test_store_stale () =
  let write_entry dir key ~version ~ocaml v =
    let hex = Engine.Fingerprint.to_hex key in
    let payload = Marshal.to_string v [] in
    let file = Filename.concat dir (hex ^ ".ent") in
    Out_channel.with_open_bin file (fun oc ->
        Printf.fprintf oc "cpsrisk-store %s %s %s %d %s\n%s" version ocaml hex
          (String.length payload)
          (Digest.to_hex (Digest.string payload))
          payload);
    file
  in
  with_tmp_dir @@ fun dir ->
  Serve.Store.close (Serve.Store.open_ dir);
  (* the same hand-written layout under the current header is a hit *)
  ignore (write_entry dir (fp 1) ~version:"4" ~ocaml:Sys.ocaml_version "current");
  let s = Serve.Store.open_ dir in
  check (Alcotest.option Alcotest.string) "current header hits" (Some "current")
    (Serve.Store.find s (fp 1));
  Serve.Store.close s;
  List.iter
    (fun (what, key, file) ->
      let s = Serve.Store.open_ dir in
      check (Alcotest.option Alcotest.string) (what ^ " is a miss") None
        (Serve.Store.find s key);
      let st = Serve.Store.stats s in
      checki (what ^ ": not corrupt") 0 st.Serve.Store.corrupt;
      checki (what ^ ": one miss") 1 st.Serve.Store.misses;
      checkb (what ^ ": file removed") false (Sys.file_exists file);
      Serve.Store.close s)
    [
      ( "v2 entry",
        fp 2,
        write_entry dir (fp 2) ~version:"2" ~ocaml:Sys.ocaml_version "old" );
      ( "other-runtime entry",
        fp 3,
        write_entry dir (fp 3) ~version:"4" ~ocaml:"4.02.3" "foreign" );
      ( "v3 entry",
        fp 4,
        write_entry dir (fp 4) ~version:"3" ~ocaml:Sys.ocaml_version "older" );
    ]

let test_store_killed_writer () =
  with_tmp_dir @@ fun dir ->
  let s = Serve.Store.open_ dir in
  Serve.Store.store s (fp 1) "survivor";
  Serve.Store.close s;
  (* a writer killed mid-write leaves only tmp- debris *)
  let debris = Filename.concat dir "tmp-12345-0-deadbeef" in
  let oc = open_out_bin debris in
  output_string oc "half-written marshal bytes";
  close_out oc;
  let s = Serve.Store.open_ dir in
  checkb "debris swept at open" true (not (Sys.file_exists debris));
  checki "published entries unaffected" 1 (Serve.Store.entries s);
  check (Alcotest.option Alcotest.string) "survivor readable" (Some "survivor")
    (Serve.Store.find s (fp 1));
  Serve.Store.close s

(* One writer domain publishing new entries while reader domains hammer
   the same handle and a second same-directory handle: every find must
   return either the published value or a clean miss — never a torn or
   misread entry. *)
let test_store_concurrent () =
  with_tmp_dir @@ fun dir ->
  let n = 50 in
  let writer_store = Serve.Store.open_ dir in
  let other_handle = Serve.Store.open_ dir in
  let writer =
    Domain.spawn (fun () ->
        for i = 1 to n do
          Serve.Store.store writer_store (fp i) (Printf.sprintf "value-%d" i)
        done)
  in
  let reader handle () =
    let anomalies = ref 0 in
    for _round = 1 to 20 do
      for i = 1 to n do
        match Serve.Store.find handle (fp i) with
        | None -> () (* not published yet — a clean miss is fine *)
        | Some v -> if v <> Printf.sprintf "value-%d" i then incr anomalies
      done
    done;
    !anomalies
  in
  let readers =
    [ Domain.spawn (reader writer_store); Domain.spawn (reader other_handle) ]
  in
  Domain.join writer;
  let anomalies = List.fold_left (fun a d -> a + Domain.join d) 0 readers in
  checki "no torn reads" 0 anomalies;
  List.iter
    (fun i ->
      check (Alcotest.option Alcotest.string)
        (Printf.sprintf "final value %d" i)
        (Some (Printf.sprintf "value-%d" i))
        (Serve.Store.find writer_store (fp i)))
    [ 1; n / 2; n ];
  Serve.Store.close writer_store;
  Serve.Store.close other_handle

let test_store_cache_adapter () =
  with_tmp_dir @@ fun dir ->
  (* first process: a cache backed by the store computes and persists *)
  let s = Serve.Store.open_ dir in
  let cache = Engine.Cache.create ~persist:(Serve.Store.persist s) () in
  let computes = ref 0 in
  let compute () =
    incr computes;
    "computed"
  in
  let v, src = Engine.Cache.find_or_compute_src cache (fp 1) compute in
  check Alcotest.string "fresh value" "computed" v;
  checkb "fresh provenance" true (src = Engine.Cache.Fresh);
  Serve.Store.close s;
  (* second process: a cold cache on the same directory hits the disk *)
  let s = Serve.Store.open_ dir in
  let cache = Engine.Cache.create ~persist:(Serve.Store.persist s) () in
  let v, src = Engine.Cache.find_or_compute_src cache (fp 1) compute in
  check Alcotest.string "disk value" "computed" v;
  checkb "disk provenance" true (src = Engine.Cache.Disk);
  checki "no recompute" 1 !computes;
  checki "cache counts it" 1 (Engine.Cache.disk_hits cache);
  (* and the now-warm memory tier answers the repeat *)
  let _, src = Engine.Cache.find_or_compute_src cache (fp 1) compute in
  checkb "memory provenance" true (src = Engine.Cache.Memory);
  Serve.Store.close s

(* ------------------------------------------------------------------ *)
(* Queue                                                                *)
(* ------------------------------------------------------------------ *)

let test_queue_batching () =
  let batches = ref [] in
  let lock = Mutex.create () in
  let q =
    Serve.Queue.create ~batch:(fun reqs ->
        Mutex.lock lock;
        batches := Array.to_list reqs :: !batches;
        Mutex.unlock lock;
        (* linger so the next submissions pile up into one backlog *)
        Thread.delay 0.02;
        Array.map (fun i -> i * 10) reqs)
  in
  checki "single request" 10 (Serve.Queue.submit q 1);
  (* concurrent burst: the worker is busy, so the backlog coalesces *)
  let results = Array.make 8 0 in
  let threads =
    List.init 8 (fun i ->
        Thread.create (fun () -> results.(i) <- Serve.Queue.submit q (i + 1)) ())
  in
  List.iter Thread.join threads;
  Array.iteri
    (fun i r -> checki (Printf.sprintf "burst result %d" i) ((i + 1) * 10) r)
    results;
  let st = Serve.Queue.stats q in
  checki "all submitted" 9 st.Serve.Queue.submitted;
  checkb "burst coalesced" true (st.Serve.Queue.batches < 9);
  checkb "a multi-request batch happened" true (st.Serve.Queue.max_batch > 1);
  Serve.Queue.stop q;
  (match Serve.Queue.submit q 1 with
  | _ -> Alcotest.fail "submit after stop must raise"
  | exception Serve.Queue.Stopped -> ());
  ignore !batches

let test_queue_errors () =
  let q =
    Serve.Queue.create ~batch:(fun reqs ->
        Array.map (fun i -> if i < 0 then failwith "bad request" else i) reqs)
  in
  checki "good request" 5 (Serve.Queue.submit q 5);
  (match Serve.Queue.submit q (-1) with
  | _ -> Alcotest.fail "batch exception must surface in the submitter"
  | exception Failure m -> check Alcotest.string "verbatim" "bad request" m);
  checki "queue survives the exception" 7 (Serve.Queue.submit q 7);
  Serve.Queue.stop q;
  (* stop is idempotent *)
  Serve.Queue.stop q

(* ------------------------------------------------------------------ *)
(* Protocol                                                             *)
(* ------------------------------------------------------------------ *)

let test_protocol_roundtrip () =
  let requests =
    [
      Serve.Protocol.Load_model
        {
          name = "wt";
          backend = Serve.Protocol.Water_tank;
          horizon = Some 8;
          model_src = None;
        };
      Serve.Protocol.Load_model
        {
          name = "plant";
          backend = Serve.Protocol.Topology;
          horizon = None;
          model_src = Some "element \"A\" { }";
        };
      Serve.Protocol.Sweep
        { model = "wt"; mutations = "s1: F1 / M1\n"; jobs = Some 4 };
      Serve.Protocol.Mitigate
        { model = "wt"; search = Cpsrisk.Pipeline.Frontier_optimal None };
      Serve.Protocol.Mitigate
        { model = "wt"; search = Cpsrisk.Pipeline.Frontier_optimal (Some 7) };
      Serve.Protocol.Mitigate
        { model = "h"; search = Cpsrisk.Pipeline.Frontier_pareto };
      Serve.Protocol.Mitigate
        { model = "h"; search = Cpsrisk.Pipeline.Frontier_sweep [ 3; 9 ] };
      Serve.Protocol.Solve
        { program = "p(1)."; limit = Some 2; optimal = false };
      Serve.Protocol.Solve { program = "q."; limit = None; optimal = true };
      Serve.Protocol.Status;
      Serve.Protocol.Stats;
      Serve.Protocol.List_models;
      Serve.Protocol.Evict_model { name = "wt" };
      Serve.Protocol.Shutdown;
    ]
  in
  List.iter
    (fun r ->
      let line = Serve.Json.to_string (Serve.Protocol.request_to_json r) in
      match Serve.Protocol.parse_request line with
      | Ok r' -> checkb (Printf.sprintf "roundtrip %s" line) true (r = r')
      | Error e -> Alcotest.fail e)
    requests;
  (* mitigate takes no fan-out: a "jobs" member from an older client is
     ignored, as the decoder ignores any unknown member *)
  checkb "mitigate ignores jobs" true
    (Serve.Protocol.parse_request
       {|{"op":"mitigate","model":"h","search":"pareto","jobs":2}|}
    = Ok
        (Serve.Protocol.Mitigate
           { model = "h"; search = Cpsrisk.Pipeline.Frontier_pareto }))

let test_protocol_errors () =
  let bad line =
    match Serve.Protocol.parse_request line with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "%S should be rejected" line)
  in
  List.iter bad
    [
      "not json";
      "{}";
      {|{"op":"teleport"}|};
      {|{"op":"sweep","model":"wt"}|};
      {|{"op":"load-model","name":"x","backend":"quantum"}|};
    ];
  (* responses split on "ok" *)
  (match Serve.Protocol.response_result (Serve.Protocol.ok []) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  match Serve.Protocol.response_result (Serve.Protocol.error "nope") with
  | Error "nope" -> ()
  | _ -> Alcotest.fail "error response must surface its message"

(* a model limit below 1 is a malformed request, not a request for one
   model: decode must refuse it with a message naming the field *)
let test_protocol_solve_limit () =
  let decode limit =
    Serve.Protocol.parse_request
      (Printf.sprintf {|{"op":"solve","program":"p.","limit":%d}|} limit)
  in
  List.iter
    (fun l ->
      match decode l with
      | Error e ->
          checkb
            (Printf.sprintf "limit %d error names the field: %s" l e)
            true
            (e = Printf.sprintf "solve: \"limit\" must be at least 1, got %d" l)
      | Ok _ -> Alcotest.fail (Printf.sprintf "limit %d should be rejected" l))
    [ 0; -3 ];
  match decode 1 with
  | Ok (Serve.Protocol.Solve { limit = Some 1; _ }) -> ()
  | Ok _ -> Alcotest.fail "limit 1 decoded to the wrong request"
  | Error e -> Alcotest.fail e

(* budget-curve budgets must all be integers: a dropped element would
   run a different curve than the one asked for *)
let test_protocol_budgets () =
  match
    Serve.Protocol.parse_request
      {|{"op":"mitigate","model":"wt","search":"budget-curve","budgets":[15,"x"]}|}
  with
  | Error e ->
      check Alcotest.string "names the bad element"
        {|mitigate: "budgets"[1] must be an integer, got "x"|} e
  | Ok _ -> Alcotest.fail "a non-integer budget must be rejected"

(* ------------------------------------------------------------------ *)
(* Answer encoders                                                      *)
(* ------------------------------------------------------------------ *)

(* Labels and ids are arbitrary bytes: the CLI's --json answers must
   parse back whatever they carry. *)
let test_answer_labels () =
  let label = "Z\xc3\xbcndung\t1" in
  let roundtrip what json =
    match Serve.Json.parse (Serve.Json.to_string json) with
    | Ok back -> back
    | Error e -> Alcotest.fail (what ^ ": " ^ e)
  in
  let report =
    Engine.Sweep.run ~jobs:1
      (Cpsrisk.Sweeps.water_tank_spec ~horizon:4
         [ Engine.Delta.make ~label [ "F1" ] ])
  in
  let sweep =
    roundtrip "sweep"
      (Serve.Json.Obj
         (Serve.Answer.sweep Cpsrisk.Backend.Water_tank report.Engine.Sweep.results))
  in
  (match Serve.Json.mem_list "results" sweep with
  | Some [ r ] ->
      check (Alcotest.option Alcotest.string) "sweep label" (Some label)
        (Serve.Json.mem_string "label" r)
  | _ -> Alcotest.fail "sweep: one result expected");
  let s = { Mitigation.Optimizer.selected = [ label ]; cost = 1; residual = 0 } in
  let report =
    {
      Mitigation.Frontier.r_evals = 0;
      r_hits = 0;
      r_disk_hits = 0;
      r_fresh = 0;
      r_pruned = 0;
      r_sum_s = 0.0;
      r_critical_s = 0.0;
      r_wall_s = 0.0;
    }
  in
  let frontier =
    roundtrip "frontier"
      (Serve.Json.Obj
         (Serve.Answer.frontier (Cpsrisk.Pipeline.Frontier_curve [ (1, s) ]) report))
  in
  (match Serve.Json.mem_list "curve" frontier with
  | Some [ point ] ->
      checkb "frontier action id" true
        (Option.bind (Serve.Json.member "solution" point)
           (Serve.Json.mem_list "selected")
        = Some [ Serve.Json.String label ])
  | _ -> Alcotest.fail "frontier: one curve point expected");
  match
    roundtrip "diagnostics"
      (Serve.Answer.diagnostics
         [ Lint.Diagnostic.error ~code:"L001" ~subject:label "bad %s" label ])
  with
  | Serve.Json.List [ d ] ->
      check (Alcotest.option Alcotest.string) "diagnostic subject" (Some label)
        (Serve.Json.mem_string "subject" d)
  | _ -> Alcotest.fail "diagnostics: one entry expected"

(* ------------------------------------------------------------------ *)
(* Registry                                                             *)
(* ------------------------------------------------------------------ *)

let test_registry () =
  with_tmp_dir @@ fun dir ->
  let store = Serve.Store.open_ dir in
  let reg = Serve.Registry.create ~store () in
  let target = Cpsrisk.Backend.target ~horizon:6 Cpsrisk.Backend.Water_tank in
  let entry = Serve.Registry.load reg ~name:"wt" target in
  checkb "base grounded at load" true (Serve.Registry.base_atoms entry > 0);
  checkb "find" true (Serve.Registry.find reg "wt" <> None);
  checkb "find miss" true (Serve.Registry.find reg "nope" = None);
  (* a loaded model serves sweeps through its entry cache into the store *)
  let deltas = [ Engine.Delta.make ~label:"s1" [ "F1" ] ] in
  let report =
    Engine.Sweep.run_prepared ~jobs:1 ~cache:entry.Serve.Registry.cache
      entry.Serve.Registry.prepared deltas
  in
  checki "one fresh job" 1 report.Engine.Sweep.misses;
  checki "persisted" 1 (Serve.Store.entries store);
  (* re-loading under the same name replaces, but disk entries remain:
     the fresh cache answers the same delta from disk *)
  let entry = Serve.Registry.load reg ~name:"wt" target in
  let report =
    Engine.Sweep.run_prepared ~jobs:1 ~cache:entry.Serve.Registry.cache
      entry.Serve.Registry.prepared deltas
  in
  checki "re-load answers from disk" 1 report.Engine.Sweep.disk_hits;
  checki "no fresh work" 0 report.Engine.Sweep.misses;
  checki "still one model" 1 (Serve.Registry.count reg);
  checki "two lifetime loads" 2 (Serve.Registry.loads reg);
  checkb "evict" true (Serve.Registry.evict reg "wt");
  checkb "evict twice" false (Serve.Registry.evict reg "wt");
  checki "empty" 0 (Serve.Registry.count reg);
  Serve.Store.close store

(* ------------------------------------------------------------------ *)
(* Wire golden                                                          *)
(* ------------------------------------------------------------------ *)

(* A daemon on a private socket for the duration of [f]; one worker
   domain so cache provenance and search counters are deterministic. *)
let with_daemon ?cache_dir f =
  with_tmp_dir @@ fun dir ->
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "s.sock" in
  let lock = Mutex.create () and up = Condition.create () in
  let ready = ref false in
  let on_ready () =
    Mutex.protect lock (fun () ->
        ready := true;
        Condition.signal up)
  in
  let config =
    { Serve.Server.default_config with socket; cache_dir; jobs = Some 1 }
  in
  let daemon = Thread.create (fun () -> Serve.Server.run ~on_ready config) () in
  Mutex.protect lock (fun () ->
      while not !ready do
        Condition.wait up lock
      done);
  Fun.protect
    ~finally:(fun () ->
      ignore
        (Serve.Client.request ~socket
           (Serve.Json.Obj [ ("op", Serve.Json.String "shutdown") ]));
      Thread.join daemon)
    (fun () -> f socket)

(* timings vary run to run: keep the key, mask the value *)
let rec mask_timings = function
  | Serve.Json.Obj fields ->
      Serve.Json.Obj
        (List.map
           (fun (k, v) ->
             match (k, v) with
             | ("wall_s" | "batch_wall_s" | "sum_s" | "critical_s"),
               Serve.Json.Float _ ->
                 (k, Serve.Json.String "*")
             | _ -> (k, mask_timings v))
           fields)
  | Serve.Json.List xs -> Serve.Json.List (List.map mask_timings xs)
  | v -> v

(* Raw request lines, so the test pins the wire independently of the
   request constructors. *)
let wire_golden_requests =
  [
    {|{"op":"load-model","name":"wt","horizon":6}|};
    {|{"op":"sweep","model":"wt","mutations":"s1: F1\ns2: F2 / M1\nagain: F2 / M1\nZündung: F3,F4 / M2\n"}|};
    {|{"op":"mitigate","model":"wt"}|};
    {|{"op":"mitigate","model":"wt","search":"optimal","budget":1}|};
    {|{"op":"mitigate","model":"wt","search":"pareto"}|};
    {|{"op":"mitigate","model":"wt","search":"budget-curve","budgets":[0,1,5]}|};
    {|{"op":"load-model","name":"hier","backend":"hierarchy"}|};
    {|{"op":"sweep","model":"hier","mutations":"bare: -\nshield: - / MS1,MS2\n"}|};
    {|{"op":"sweep","model":"wt","mutations":"two models: F1 ! {x;y}1.\n"}|};
    {|{"op":"solve","program":"{a;b}1. c :- a.","limit":2}|};
    {|{"op":"solve","program":"p(1..3). q(X) :- p(X), not r(X). r(2). :~ q(X). [X@1,X]","optimal":true}|};
    {|{"op":"solve","program":"a. :- a."}|};
    {|{"op":"solve","program":"a :- "}|};
  ]

let wire_golden_responses =
  [
    "{\"ok\":true,\"model\":\"wt\",\"deltas\":4,\"hits\":1,\"disk_hits\":0,\"misses\":3,\"fresh\":{\"guesses\":0,\"firings\":0,\"conflicts\":0,\"models\":3,\"wall_s\":\"*\"},\"ground\":{\"fresh_rules\":0,\"reused_rules\":0,\"decided\":3},\"batched_with\":0,\"batch_wall_s\":\"*\",\"wall_s\":\"*\",\"results\":[{\"label\":\"s1\",\"fingerprint\":\"e8b8fb8d97698cb97307ee5f2e4a144e\",\"models\":1,\"source\":\"fresh\",\"verdicts\":{\"R1\":false,\"R2\":false}},{\"label\":\"s2\",\"fingerprint\":\"19064283e0f1c3207307ee5f2e4a144e\",\"models\":1,\"source\":\"fresh\",\"verdicts\":{\"R1\":true,\"R2\":false}},{\"label\":\"again\",\"fingerprint\":\"19064283e0f1c3207307ee5f2e4a144e\",\"models\":1,\"source\":\"memory\",\"verdicts\":{\"R1\":true,\"R2\":false}},{\"label\":\"Z\195\188ndung\",\"fingerprint\":\"8894926e9fc452da7307ee5f2e4a144e\",\"models\":1,\"source\":\"fresh\",\"verdicts\":{\"R1\":false,\"R2\":false}}]}";
    "{\"ok\":true,\"model\":\"wt\",\"search\":\"optimal\",\"optimal\":{\"selected\":[\"M1\"],\"cost\":2,\"residual\":0},\"report\":{\"evals\":27,\"hits\":12,\"disk_hits\":0,\"fresh\":15,\"pruned\":11,\"sum_s\":\"*\",\"critical_s\":\"*\",\"wall_s\":\"*\"},\"wall_s\":\"*\"}";
    "{\"ok\":true,\"model\":\"wt\",\"search\":\"optimal\",\"optimal\":{\"selected\":[],\"cost\":0,\"residual\":4},\"report\":{\"evals\":1,\"hits\":1,\"disk_hits\":0,\"fresh\":0,\"pruned\":0,\"sum_s\":\"*\",\"critical_s\":\"*\",\"wall_s\":\"*\"},\"wall_s\":\"*\"}";
    "{\"ok\":true,\"model\":\"wt\",\"search\":\"pareto\",\"pareto\":[{\"selected\":[],\"cost\":0,\"residual\":4},{\"selected\":[\"M1\"],\"cost\":2,\"residual\":0}],\"report\":{\"evals\":30,\"hits\":29,\"disk_hits\":0,\"fresh\":1,\"pruned\":11,\"sum_s\":\"*\",\"critical_s\":\"*\",\"wall_s\":\"*\"},\"wall_s\":\"*\"}";
    "{\"ok\":true,\"model\":\"wt\",\"search\":\"budget-curve\",\"curve\":[{\"budget\":0,\"solution\":{\"selected\":[],\"cost\":0,\"residual\":4}},{\"budget\":1,\"solution\":{\"selected\":[],\"cost\":0,\"residual\":4}},{\"budget\":5,\"solution\":{\"selected\":[\"M1\"],\"cost\":2,\"residual\":0}}],\"report\":{\"evals\":18,\"hits\":18,\"disk_hits\":0,\"fresh\":0,\"pruned\":0,\"sum_s\":\"*\",\"critical_s\":\"*\",\"wall_s\":\"*\"},\"wall_s\":\"*\"}";
    "{\"ok\":true,\"model\":\"hier\",\"deltas\":2,\"hits\":0,\"disk_hits\":0,\"misses\":2,\"fresh\":{\"guesses\":0,\"firings\":0,\"conflicts\":0,\"models\":2,\"wall_s\":\"*\"},\"ground\":{\"fresh_rules\":0,\"reused_rules\":0,\"decided\":2},\"batched_with\":0,\"batch_wall_s\":\"*\",\"wall_s\":\"*\",\"results\":[{\"label\":\"bare\",\"fingerprint\":\"b4b5f8b4a825f3016d5d8926f07571e7\",\"models\":1,\"source\":\"fresh\",\"residual\":29},{\"label\":\"shield\",\"fingerprint\":\"22697f8f2ba78f216d5d8926f07571e7\",\"models\":1,\"source\":\"fresh\",\"residual\":26}]}";
    "{\"ok\":true,\"model\":\"wt\",\"deltas\":1,\"hits\":0,\"disk_hits\":0,\"misses\":1,\"fresh\":{\"guesses\":4,\"firings\":272,\"conflicts\":2,\"models\":3,\"wall_s\":\"*\"},\"ground\":{\"fresh_rules\":47,\"reused_rules\":113,\"decided\":0},\"batched_with\":0,\"batch_wall_s\":\"*\",\"wall_s\":\"*\",\"results\":[{\"label\":\"two models\",\"fingerprint\":\"8e2a652b21afaa1b7307ee5f2e4a144e\",\"models\":3,\"source\":\"fresh\"}]}";
    "{\"ok\":true,\"models\":2,\"answers\":[\"{}\",\"{b}\"],\"guesses\":4,\"conflicts\":0,\"wall_s\":\"*\"}";
    "{\"ok\":true,\"models\":1,\"answers\":[\"{p(1), p(2), p(3), q(1), q(3), r(2)} cost[4@1]\"],\"guesses\":0,\"conflicts\":0,\"wall_s\":\"*\"}";
    "{\"ok\":true,\"models\":0,\"answers\":[],\"guesses\":0,\"conflicts\":0,\"wall_s\":\"*\"}";
    "error: parse error: line 1, col 3: expected a term (found ':-')";
    "{\"ok\":true,\"model\":\"cell\",\"deltas\":3,\"hits\":0,\"disk_hits\":0,\"misses\":3,\"fresh\":{\"guesses\":0,\"firings\":0,\"conflicts\":0,\"models\":3,\"wall_s\":\"*\"},\"ground\":{\"fresh_rules\":0,\"reused_rules\":0,\"decided\":3},\"batched_with\":0,\"batch_wall_s\":\"*\",\"wall_s\":\"*\",\"results\":[{\"label\":\"{plc}\",\"fingerprint\":\"97286ef5cd38282dd4aa3bf2b759e0a0\",\"models\":1,\"source\":\"fresh\",\"affected\":[\"conveyor\",\"panel\",\"plc\",\"press\"]},{\"label\":\"guarded\",\"fingerprint\":\"a5c935466e84b9a6d4aa3bf2b759e0a0\",\"models\":1,\"source\":\"fresh\",\"affected\":[\"conveyor\",\"panel\",\"plc\",\"press\"]},{\"label\":\"{office}\",\"fingerprint\":\"97607c00060a52d9d4aa3bf2b759e0a0\",\"models\":1,\"source\":\"fresh\",\"affected\":[\"conveyor\",\"fw\",\"office\",\"panel\",\"plc\",\"press\",\"scada\"]}]}";
    "error: model \"cell\" (topology backend) carries no action catalog";
  ]

let test_wire_golden () =
  let topology_src =
    In_channel.with_open_bin "../examples/models/press_cell.model"
      In_channel.input_all
  in
  let requests =
    wire_golden_requests
    @ [
        Serve.Json.to_string
          (Serve.Json.Obj
             [
               ("op", Serve.Json.String "load-model");
               ("name", Serve.Json.String "cell");
               ("backend", Serve.Json.String "topology");
               ("model_src", Serve.Json.String topology_src);
             ]);
        {|{"op":"sweep","model":"cell","mutations":"plc\nguarded: plc / fw\noffice\n"}|};
        {|{"op":"mitigate","model":"cell"}|};
      ]
  in
  let got =
    with_daemon @@ fun socket ->
    List.map
      (fun line ->
        match Serve.Json.parse line with
        | Error e -> Alcotest.fail (line ^ ": " ^ e)
        | Ok request -> (
            match Serve.Client.request ~socket request with
            | Ok response -> Serve.Json.to_string (mask_timings response)
            | Error msg -> "error: " ^ msg))
      requests
  in
  (* loads answer base sizes and timings only; the sweep, mitigate and
     solve answers are pinned byte for byte *)
  let pinned =
    List.filteri
      (fun i _ ->
        not (List.mem i [ 0; 6; List.length wire_golden_requests ]))
      got
  in
  if Sys.getenv_opt "WIRE_GOLDEN_PRINT" <> None then
    List.iter (fun s -> Printf.eprintf "    %S;\n" s) pinned;
  check
    Alcotest.(list string)
    "daemon responses" wire_golden_responses pinned

(* A daemon restarted over its own store answers the same press_cell
   sweep from disk, result for result identical but for [source]; the
   entries hold models projected on [#show affected/1], so each stays
   answer-sized. *)
let test_restart_from_store () =
  let src =
    In_channel.with_open_bin "../examples/models/press_cell.model"
      In_channel.input_all
  in
  let model = Archimate.Text.parse src in
  let lines =
    List.map
      (fun (d : Engine.Delta.t) ->
        Printf.sprintf "%s: %s\n" (Engine.Delta.label d)
          (String.concat ", " d.Engine.Delta.faults))
      (Cpsrisk.Sweeps.model_element_deltas model)
    @ [ "guarded: plc / fw\n" ]
  in
  let mutations = String.concat "" lines in
  let results ~cache_dir =
    with_daemon ~cache_dir @@ fun socket ->
    let ask fields =
      match Serve.Client.request ~socket (Serve.Json.Obj fields) with
      | Ok r -> r
      | Error e -> Alcotest.fail e
    in
    ignore
      (ask
         [
           ("op", Serve.Json.String "load-model");
           ("name", Serve.Json.String "cell");
           ("backend", Serve.Json.String "topology");
           ("model_src", Serve.Json.String src);
         ]);
    match
      Serve.Json.mem_list "results"
        (ask
           [
             ("op", Serve.Json.String "sweep");
             ("model", Serve.Json.String "cell");
             ("mutations", Serve.Json.String mutations);
           ])
    with
    | Some rs -> rs
    | None -> Alcotest.fail "sweep: no results"
  in
  let split rs =
    List.map
      (function
        | Serve.Json.Obj fields ->
            ( List.assoc_opt "source" fields,
              Serve.Json.to_string
                (Serve.Json.Obj (List.remove_assoc "source" fields)) )
        | r -> Alcotest.fail ("result: " ^ Serve.Json.to_string r))
      rs
  in
  with_tmp_dir @@ fun cache_dir ->
  let first = split (results ~cache_dir) in
  let second = split (results ~cache_dir) in
  checki "every delta answered" (List.length lines) (List.length first);
  check
    Alcotest.(list string)
    "restarted answers identical but for source" (List.map snd first)
    (List.map snd second);
  List.iter
    (fun (source, _) ->
      checkb "answered from disk" true (source = Some (Serve.Json.String "disk")))
    second;
  let entries =
    List.filter (fun f -> Filename.check_suffix f ".ent") (entry_files cache_dir)
  in
  checki "one entry per delta" (List.length first) (List.length entries);
  List.iter
    (fun f ->
      let size = (Unix.stat (Filename.concat cache_dir f)).Unix.st_size in
      checkb (Printf.sprintf "%s: %d bytes < 4 KB" f size) true (size < 4096))
    entries;
  (* read every entry back under the job key the library computes *)
  let spec = (Cpsrisk.Backend.target ~model Cpsrisk.Backend.Topology).spec in
  let prepared = Engine.Job.prepare spec in
  let store : Serve.Registry.value Serve.Store.t = Serve.Store.open_ cache_dir in
  (match Engine.Delta.parse mutations with
  | Error e -> Alcotest.fail (Engine.Delta.error_to_string e)
  | Ok deltas ->
      List.iter
        (fun d ->
          match Serve.Store.find store (Engine.Job.fingerprint prepared d) with
          | None -> Alcotest.fail (Engine.Delta.label d ^ ": no store entry")
          | Some (models, _, _) ->
              List.iter
                (fun m ->
                  checkb
                    (Engine.Delta.label d ^ ": entry holds only affected/1")
                    true
                    (List.for_all
                       (fun a -> Asp.Atom.signature a = Cpsrisk.Sweeps.affected_sig)
                       (Asp.Model.to_list m)))
                models)
        deltas);
  Serve.Store.close store

(* arithmetic on a symbol is the program's grounding error, answered as
   such — not an escaped exception *)
let test_solve_eval_error () =
  let got =
    with_daemon @@ fun socket ->
    Serve.Client.request ~socket
      (Serve.Json.Obj
         [
           ("op", Serve.Json.String "solve");
           ("program", Serve.Json.String "p(a). q(Y) :- p(X), Y = X + 1.");
         ])
  in
  match got with
  | Ok r -> Alcotest.fail ("answered: " ^ Serve.Json.to_string r)
  | Error msg ->
      check Alcotest.string "error" "grounding error: line 1, col 7: arithmetic on \
        non-integer a in rule: q(Y) :- p(X), Y == (X+1)." msg

let suites =
  [
    ( "serve",
      [
        Alcotest.test_case "json: roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "json: unicode and control escapes" `Quick
          test_json_escapes;
        Alcotest.test_case "json: malformed input" `Quick test_json_errors;
        Alcotest.test_case "store: roundtrip across handles" `Quick
          test_store_roundtrip;
        Alcotest.test_case "store: LRU eviction under a size bound" `Quick
          test_store_eviction;
        Alcotest.test_case "store: corrupt entries detected and skipped"
          `Quick test_store_corruption;
        Alcotest.test_case "store: stale entries are clean misses" `Quick
          test_store_stale;
        Alcotest.test_case "store: killed-writer debris swept" `Quick
          test_store_killed_writer;
        Alcotest.test_case "store: concurrent readers vs writer" `Quick
          test_store_concurrent;
        Alcotest.test_case "store: Engine.Cache persistence adapter" `Quick
          test_store_cache_adapter;
        Alcotest.test_case "queue: burst coalesces into batches" `Quick
          test_queue_batching;
        Alcotest.test_case "queue: exceptions and stop" `Quick
          test_queue_errors;
        Alcotest.test_case "protocol: request roundtrip" `Quick
          test_protocol_roundtrip;
        Alcotest.test_case "protocol: rejections and responses" `Quick
          test_protocol_errors;
        Alcotest.test_case "protocol: solve limit below 1 rejected" `Quick
          test_protocol_solve_limit;
        Alcotest.test_case "protocol: non-integer budgets rejected" `Quick
          test_protocol_budgets;
        Alcotest.test_case "answer: non-ASCII labels parse back" `Quick
          test_answer_labels;
        Alcotest.test_case "registry: load, serve, re-load from disk" `Quick
          test_registry;
        Alcotest.test_case "wire: sweep, mitigate and solve golden" `Quick
          test_wire_golden;
        Alcotest.test_case "wire: restarted daemon answers from its store"
          `Quick test_restart_from_store;
        Alcotest.test_case "solve: evaluation error is a grounding error"
          `Quick test_solve_eval_error;
      ] );
  ]
