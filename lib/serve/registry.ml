type value = Engine.Job.answer

type entry = {
  name : string;
  backend : Cpsrisk.Backend.t;
  prepared : Engine.Job.prepared;
  cache : value Engine.Cache.t;
  frontier : Mitigation.Frontier.t option;
  loaded_at : float;
  mutable sweeps : int;
  mutable jobs_served : int;
  mutable mitigations : int;
}

type t = {
  store : value Store.t option;
  table : (string, entry) Hashtbl.t;
  lock : Mutex.t;
  mutable loads : int;
}

let create ?store () =
  { store; table = Hashtbl.create 8; lock = Mutex.create (); loads = 0 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let load t ~name (target : Cpsrisk.Backend.target) =
  (* preparing (fingerprint + base grounding) is the expensive part and is
     done outside the lock: a slow load must not block lookups *)
  let prepared = Engine.Job.prepare target.Cpsrisk.Backend.spec in
  (* disk-promoted values went through Marshal, which bypasses the term
     arena: re-intern their models so they share structure (and the O(1)
     equality fast paths) with atoms built by this process *)
  let rehydrate (models, ss, gs) =
    (List.map Asp.Model.rehydrate models, ss, gs)
  in
  let cache =
    Engine.Cache.create
      ?persist:(Option.map (Store.persist ~rehydrate) t.store)
      ()
  in
  let entry =
    {
      name;
      backend = target.Cpsrisk.Backend.backend;
      prepared;
      cache;
      frontier =
        (match target.Cpsrisk.Backend.frontier with
        | Some f -> Some (f ~cache prepared)
        | None -> None);
      loaded_at = Unix.gettimeofday ();
      sweeps = 0;
      jobs_served = 0;
      mitigations = 0;
    }
  in
  locked t (fun () ->
      t.loads <- t.loads + 1;
      Hashtbl.replace t.table name entry);
  entry

let find t name = locked t (fun () -> Hashtbl.find_opt t.table name)

let list t =
  locked t (fun () -> Hashtbl.fold (fun _ e acc -> e :: acc) t.table [])
  |> List.sort (fun a b -> String.compare a.name b.name)

let evict t name =
  locked t (fun () ->
      if Hashtbl.mem t.table name then begin
        Hashtbl.remove t.table name;
        true
      end
      else false)

let count t = locked t (fun () -> Hashtbl.length t.table)
let loads t = locked t (fun () -> t.loads)
let store t = t.store

let base_atoms e = Engine.Job.base_atoms e.prepared

let entry_to_json e =
  Json.Obj
    [
      ("name", Json.String e.name);
      ("backend", Json.String (Cpsrisk.Backend.name e.backend));
      ("base_atoms", Json.Int (base_atoms e));
      ("sweeps", Json.Int e.sweeps);
      ("jobs_served", Json.Int e.jobs_served);
      ("mitigations", Json.Int e.mitigations);
      ("cache_entries", Json.Int (Engine.Cache.length e.cache));
      ("cache_hits", Json.Int (Engine.Cache.hits e.cache));
      ("cache_disk_hits", Json.Int (Engine.Cache.disk_hits e.cache));
      ("cache_misses", Json.Int (Engine.Cache.misses e.cache));
      ("loaded_for_s", Json.Float (Unix.gettimeofday () -. e.loaded_at));
    ]
