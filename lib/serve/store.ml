let magic = "cpsrisk-store"

(* Format history:
   1 — original entry format.
   2 — [Asp.Term.t] became a hash-consed record; marshalled payloads
       containing terms changed layout, so every v1 entry is unreadable
       as the new type. Reading a v1 entry as v2 would not fail Marshal
       (the type is erased) — it would produce garbage — hence the bump:
       v1 entries are classified stale and deleted on first touch.
   3 — payloads hold job models projected on the backend's [#show]
       predicates (answer-sized values); a v2 entry reads as a clean miss
       and is deleted.
   4 — the grounder stats record in a job value gained a [decided]
       counter, so a v3 payload no longer has the value's layout; v3
       entries are clean misses. *)
let version = 4
let manifest_magic = "cpsrisk-manifest"
let manifest_name = "manifest"
let entry_suffix = ".ent"
let tmp_prefix = "tmp-"

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable stored : int;
  mutable evicted : int;
  mutable corrupt : int;
}

type meta = { size : int; mutable stamp : int }

type 'a t = {
  dir : string;
  max_bytes : int option;
  index : (string, meta) Hashtbl.t;  (* fingerprint hex -> meta *)
  lock : Mutex.t;
  stats : stats;
  mutable clock : int;  (* logical LRU clock, persisted via the manifest *)
  mutable bytes : int;
  mutable tmp_seq : int;
  mutable closed : bool;
}

let entry_path t hex = Filename.concat t.dir (hex ^ entry_suffix)
let manifest_path t = Filename.concat t.dir manifest_name

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ------------------------------------------------------------------ *)
(* Low-level entry IO                                                  *)
(* ------------------------------------------------------------------ *)

(* One entry file is a single header line

     cpsrisk-store <version> <ocaml-version> <fp-hex> <payload-len> <md5-hex>

   followed by exactly <payload-len> bytes of marshalled payload. The
   OCaml version participates because the Marshal format is tied to the
   compiler: entries written by another runtime are stale, not readable.
   A stale entry (another format version or runtime) is an expected
   upgrade leftover, a clean miss; anything else that fails to verify is
   damage, counted as corrupt. *)

let write_entry_file path hex payload =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc "%s %d %s %s %d %s\n" magic version Sys.ocaml_version
        hex (String.length payload)
        (Digest.to_hex (Digest.string payload));
      output_string oc payload)

type read_outcome = Value of string | Stale | Corrupt of string | Missing

let read_entry_file path hex =
  match open_in_bin path with
  | exception Sys_error _ -> Missing
  | ic -> (
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match input_line ic with
          | exception End_of_file -> Corrupt "empty file"
          | header -> (
              match String.split_on_char ' ' header with
              | [ m; v; ocaml; fp; len; digest ] -> (
                  if m <> magic then Corrupt "bad magic"
                  else if v <> string_of_int version || ocaml <> Sys.ocaml_version
                  then Stale
                  else if fp <> hex then Corrupt "fingerprint mismatch"
                  else
                    match int_of_string_opt len with
                    | None -> Corrupt "bad payload length"
                    | Some len -> (
                        match really_input_string ic len with
                        | exception End_of_file -> Corrupt "truncated payload"
                        | payload ->
                            if pos_in ic <> in_channel_length ic then
                              Corrupt "trailing bytes"
                            else if
                              Digest.to_hex (Digest.string payload) <> digest
                            then Corrupt "checksum mismatch"
                            else Value payload))
              | _ -> Corrupt "bad header")))

(* ------------------------------------------------------------------ *)
(* Manifest                                                            *)
(* ------------------------------------------------------------------ *)

(* The manifest is an index + LRU-recency snapshot, not a source of
   truth: open_ reconciles it against the entry files actually on disk,
   so a missing or stale manifest only loses access-recency, never
   entries. Lines: "<fp-hex> <size> <stamp>". *)

let write_manifest_unlocked t =
  let tmp =
    Filename.concat t.dir
      (Printf.sprintf "%s%d-manifest" tmp_prefix (Unix.getpid ()))
  in
  let oc = open_out_bin tmp in
  (match
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () ->
         Printf.fprintf oc "%s %d\n" manifest_magic version;
         Hashtbl.iter
           (fun hex m -> Printf.fprintf oc "%s %d %d\n" hex m.size m.stamp)
           t.index)
   with
  | () -> ()
  | exception Sys_error _ -> ());
  try Sys.rename tmp (manifest_path t) with Sys_error _ -> ()

let read_manifest dir =
  let path = Filename.concat dir manifest_name in
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match input_line ic with
          | exception End_of_file -> None
          | header ->
              if header <> Printf.sprintf "%s %d" manifest_magic version then
                None
              else begin
                let entries = Hashtbl.create 64 in
                (try
                   while true do
                     let line = input_line ic in
                     match String.split_on_char ' ' line with
                     | [ hex; size; stamp ] -> (
                         match
                           (int_of_string_opt size, int_of_string_opt stamp)
                         with
                         | Some size, Some stamp ->
                             Hashtbl.replace entries hex { size; stamp }
                         | _ -> ())
                     | _ -> ()
                   done
                 with End_of_file -> ());
                Some entries
              end)

(* ------------------------------------------------------------------ *)
(* Opening                                                             *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_ ?max_bytes dir =
  mkdir_p dir;
  let manifest = read_manifest dir in
  let index = Hashtbl.create 64 in
  (* scan the directory: leftover tmp files are debris of a killed writer
     (the rename never happened) and are deleted; entry files are the
     truth the manifest is reconciled against *)
  Array.iter
    (fun name ->
      let path = Filename.concat dir name in
      if String.length name >= String.length tmp_prefix
         && String.sub name 0 (String.length tmp_prefix) = tmp_prefix
      then (try Sys.remove path with Sys_error _ -> ())
      else if Filename.check_suffix name entry_suffix then begin
        let hex = Filename.chop_suffix name entry_suffix in
        let size = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
        let stamp =
          match Option.bind manifest (fun m -> Hashtbl.find_opt m hex) with
          | Some m -> m.stamp
          | None -> 0
        in
        Hashtbl.replace index hex { size; stamp }
      end)
    (try Sys.readdir dir with Sys_error _ -> [||]);
  let clock = Hashtbl.fold (fun _ m acc -> max acc m.stamp) index 0 in
  let bytes = Hashtbl.fold (fun _ m acc -> acc + m.size) index 0 in
  {
    dir;
    max_bytes;
    index;
    lock = Mutex.create ();
    stats = { hits = 0; misses = 0; stored = 0; evicted = 0; corrupt = 0 };
    clock;
    bytes;
    tmp_seq = 0;
    closed = false;
  }

(* ------------------------------------------------------------------ *)
(* Eviction                                                            *)
(* ------------------------------------------------------------------ *)

let evict_until_unlocked t budget =
  (* drop least-recently-used entries until [bytes <= budget] *)
  while t.bytes > budget && Hashtbl.length t.index > 0 do
    let victim =
      Hashtbl.fold
        (fun hex m acc ->
          match acc with
          | Some (_, best) when best.stamp <= m.stamp -> acc
          | _ -> Some (hex, m))
        t.index None
    in
    match victim with
    | None -> ()
    | Some (hex, m) ->
        Hashtbl.remove t.index hex;
        t.bytes <- t.bytes - m.size;
        t.stats.evicted <- t.stats.evicted + 1;
        (try Sys.remove (entry_path t hex) with Sys_error _ -> ())
  done

(* Forget an entry that cannot be served and delete its file; the
   caller counts the miss (and, for damage, the corruption). *)
let drop_unlocked t hex =
  (match Hashtbl.find_opt t.index hex with
  | Some m ->
      Hashtbl.remove t.index hex;
      t.bytes <- t.bytes - m.size
  | None -> ());
  t.stats.misses <- t.stats.misses + 1;
  try Sys.remove (entry_path t hex) with Sys_error _ -> ()

let drop_corrupt_unlocked t hex =
  t.stats.corrupt <- t.stats.corrupt + 1;
  drop_unlocked t hex

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)
(* ------------------------------------------------------------------ *)

let find t key =
  let hex = Engine.Fingerprint.to_hex key in
  match read_entry_file (entry_path t hex) hex with
  | Missing ->
      locked t (fun () ->
          (* the index may be stale (another handle evicted the file) *)
          (match Hashtbl.find_opt t.index hex with
          | Some m ->
              Hashtbl.remove t.index hex;
              t.bytes <- t.bytes - m.size
          | None -> ());
          t.stats.misses <- t.stats.misses + 1);
      None
  | Stale ->
      locked t (fun () -> drop_unlocked t hex);
      None
  | Corrupt _ ->
      locked t (fun () -> drop_corrupt_unlocked t hex);
      None
  | Value payload -> (
      match Marshal.from_string payload 0 with
      | v ->
          locked t (fun () ->
              t.stats.hits <- t.stats.hits + 1;
              t.clock <- t.clock + 1;
              match Hashtbl.find_opt t.index hex with
              | Some m -> m.stamp <- t.clock
              | None ->
                  (* written by another handle on the same directory *)
                  Hashtbl.replace t.index hex
                    { size = String.length payload; stamp = t.clock };
                  t.bytes <- t.bytes + String.length payload);
          Some v
      | exception _ ->
          locked t (fun () -> drop_corrupt_unlocked t hex);
          None)

let store t key v =
  let hex = Engine.Fingerprint.to_hex key in
  let payload = Marshal.to_string v [] in
  let path = entry_path t hex in
  let header_overhead = 80 (* magic + versions + digest, roughly *) in
  let size = String.length payload + header_overhead in
  let admit =
    match t.max_bytes with Some b -> size <= b | None -> true
  in
  if admit then begin
    let tmp =
      locked t (fun () ->
          t.tmp_seq <- t.tmp_seq + 1;
          Filename.concat t.dir
            (Printf.sprintf "%s%d-%d-%s" tmp_prefix (Unix.getpid ()) t.tmp_seq
               hex))
    in
    match
      write_entry_file tmp hex payload;
      Sys.rename tmp path
    with
    | () ->
        let size = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> size in
        locked t (fun () ->
            t.clock <- t.clock + 1;
            (match Hashtbl.find_opt t.index hex with
            | Some m -> t.bytes <- t.bytes - m.size
            | None -> ());
            Hashtbl.replace t.index hex { size; stamp = t.clock };
            t.bytes <- t.bytes + size;
            t.stats.stored <- t.stats.stored + 1;
            (match t.max_bytes with
            | Some budget -> evict_until_unlocked t budget
            | None -> ());
            write_manifest_unlocked t)
    | exception Sys_error _ ->
        (* a failed write must never poison the store: drop the debris *)
        (try Sys.remove tmp with Sys_error _ -> ())
  end

let mem t key =
  Sys.file_exists (entry_path t (Engine.Fingerprint.to_hex key))

let entries t = locked t (fun () -> Hashtbl.length t.index)
let total_bytes t = locked t (fun () -> t.bytes)
let max_bytes t = t.max_bytes
let dir t = t.dir

let stats t =
  locked t (fun () ->
      {
        hits = t.stats.hits;
        misses = t.stats.misses;
        stored = t.stats.stored;
        evicted = t.stats.evicted;
        corrupt = t.stats.corrupt;
      })

let flush t = locked t (fun () -> write_manifest_unlocked t)

let close t =
  locked t (fun () ->
      if not t.closed then begin
        t.closed <- true;
        write_manifest_unlocked t
      end)

let persist ?rehydrate t =
  let rehydrate = Option.value ~default:Fun.id rehydrate in
  {
    Engine.Cache.load = (fun key -> Option.map rehydrate (find t key));
    Engine.Cache.store =
      (fun key v -> try store t key v with _ -> ());
  }

let stats_to_json (s : stats) =
  Json.Obj
    [
      ("hits", Json.Int s.hits);
      ("misses", Json.Int s.misses);
      ("stored", Json.Int s.stored);
      ("evicted", Json.Int s.evicted);
      ("corrupt", Json.Int s.corrupt);
    ]
