(* Processes under test: one-shot CLI runs and `cpsrisk serve` daemons.
   Every daemon and temporary directory this process creates is killed or
   removed at exit, on failure too. *)

external wait4 : int -> int * int = "e2e_wait4"

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0)

let read_all fd =
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

type run = { code : int; out : string; wall_s : float; rss_kb : int }

(* Spawn to exit, stdout captured; [code] is minus the signal number when
   the run was killed. *)
let run_cli cli args =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = Clock.now () in
  let pid =
    Unix.create_process cli
      (Array.of_list (cli :: args))
      (Lazy.force devnull) w Unix.stderr
  in
  Unix.close w;
  let out = read_all r in
  Unix.close r;
  let code, rss_kb = wait4 pid in
  { code; out; wall_s = Clock.now () -. t0; rss_kb }

(* --- temporary directories ------------------------------------------ *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let temp_dirs = ref []

(* Sockets are addressed relative to the working directory when the
   directory lies below it: a Unix socket path must stay under 108 bytes,
   however deep the checkout is. *)
let temp_dir prefix =
  let dir = Filename.temp_dir prefix "" in
  temp_dirs := dir :: !temp_dirs;
  let cwd = Sys.getcwd () ^ "/" in
  let n = String.length cwd in
  if String.length dir > n && String.sub dir 0 n = cwd then
    String.sub dir n (String.length dir - n)
  else dir

(* --- daemons ------------------------------------------------------- *)

type daemon = { pid : int; socket : string }

let live = ref []

let reap pid = try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let kill d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap d.pid;
  live := List.filter (fun x -> x.pid <> d.pid) !live

let cleanup () =
  List.iter kill !live;
  List.iter rm_rf !temp_dirs;
  temp_dirs := []

let () = at_exit cleanup

let spawn_daemon cli ~socket ~cache_dir =
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--socket"; socket; "--cache-dir"; cache_dir; "--quiet" |]
      (Lazy.force devnull) (Lazy.force devnull) Unix.stderr
  in
  let d = { pid; socket } in
  live := d :: !live;
  d

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error _ -> true

(* Retry until the daemon accepts; fails if it died or never listened. *)
let connect ?(timeout = 10.0) d =
  let t_end = Clock.now () +. timeout in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.socket) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        if exited d.pid then failwith "cpsrisk serve exited before listening"
        else if Clock.now () > t_end then
          failwith "cpsrisk serve did not accept connections"
        else begin
          Unix.sleepf 0.0005;
          go ()
        end
  in
  go ()

(* One request line, one response line, on a fresh blocking connection
   (so nothing can follow the newline). *)
let call fd line =
  let line = line ^ "\n" in
  let rec write off =
    if off < String.length line then
      write (off + Unix.write_substring fd line off (String.length line - off))
  in
  write 0;
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> failwith "connection closed by cpsrisk serve"
    | n -> (
        match Bytes.index_from_opt chunk 0 '\n' with
        | Some j when j < n ->
            Buffer.add_subbytes buf chunk 0 j;
            Buffer.contents buf
        | _ ->
            Buffer.add_subbytes buf chunk 0 n;
            go ())
  in
  go ()

let request d json =
  let fd = connect d in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      match Serve.Json.parse (call fd (Serve.Json.to_string json)) with
      | Ok r -> r
      | Error e -> failwith ("malformed response: " ^ e))

(* Peak resident set of a live process, KiB. *)
let vm_hwm_kb pid =
  In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> 0
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d" Fun.id
        | Some _ -> go ()
      in
      go ())

(* Orderly shutdown (the daemon persists its store manifest), SIGKILL if
   it does not exit in time. Every other connection must be closed first:
   the daemon finishes its open connections before it exits. *)
let stop d =
  (try ignore (request d (Serve.Protocol.request_to_json Serve.Protocol.Shutdown))
   with Failure _ | Unix.Unix_error _ -> ());
  let t_end = Clock.now () +. 10.0 in
  let rec wait () =
    if exited d.pid then live := List.filter (fun x -> x.pid <> d.pid) !live
    else if Clock.now () > t_end then kill d
    else begin
      Unix.sleepf 0.002;
      wait ()
    end
  in
  wait ()
