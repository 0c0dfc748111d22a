module Table = Hashtbl.Make (struct
  type t = Fingerprint.t

  let equal = Fingerprint.equal
  let hash = Fingerprint.hash
end)

type source = Memory | Disk | Fresh

let source_to_string = function
  | Memory -> "memory"
  | Disk -> "disk"
  | Fresh -> "fresh"

type 'a persist = {
  load : Fingerprint.t -> 'a option;
  store : Fingerprint.t -> 'a -> unit;
}

type 'a slot = Pending | Done of 'a

type 'a t = {
  table : 'a slot Table.t;
  persist : 'a persist option;
  lock : Mutex.t;
  settled : Condition.t;
  mutable hits : int;
  mutable disk_hits : int;
  mutable misses : int;
}

let create ?persist () =
  {
    table = Table.create 256;
    persist;
    lock = Mutex.create ();
    settled = Condition.create ();
    hits = 0;
    disk_hits = 0;
    misses = 0;
  }

let find_or_compute_src t key compute =
  let settle v =
    Mutex.lock t.lock;
    Table.replace t.table key (Done v);
    Condition.broadcast t.settled;
    Mutex.unlock t.lock
  in
  let release e =
    let bt = Printexc.get_raw_backtrace () in
    Mutex.lock t.lock;
    Table.remove t.table key;
    Condition.broadcast t.settled;
    Mutex.unlock t.lock;
    Printexc.raise_with_backtrace e bt
  in
  let rec claim () =
    (* called with [t.lock] held *)
    match Table.find_opt t.table key with
    | Some (Done v) ->
        t.hits <- t.hits + 1;
        Mutex.unlock t.lock;
        (v, Memory)
    | Some Pending ->
        (* another domain is solving this very program: wait, then re-check
           (the computer may have failed and released the key) *)
        Condition.wait t.settled t.lock;
        claim ()
    | None -> (
        Table.replace t.table key Pending;
        Mutex.unlock t.lock;
        (* consult the persistent tier, if any, before computing: a disk
           hit promotes the entry to the in-memory table but is counted
           apart so callers can tell warm-disk from warm-memory serving *)
        match
          match t.persist with None -> None | Some p -> p.load key
        with
        | Some v ->
            settle v;
            Mutex.lock t.lock;
            t.disk_hits <- t.disk_hits + 1;
            Mutex.unlock t.lock;
            (v, Disk)
        | None -> (
            match compute () with
            | v ->
                settle v;
                Mutex.lock t.lock;
                t.misses <- t.misses + 1;
                Mutex.unlock t.lock;
                (match t.persist with
                | None -> ()
                | Some p -> p.store key v);
                (v, Fresh)
            | exception e -> release e)
        | exception e -> release e)
  in
  Mutex.lock t.lock;
  claim ()

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let length t =
  locked t (fun () ->
      Table.fold
        (fun _ slot n -> match slot with Done _ -> n + 1 | Pending -> n)
        t.table 0)

let hits t = locked t (fun () -> t.hits)
let disk_hits t = locked t (fun () -> t.disk_hits)
let misses t = locked t (fun () -> t.misses)
