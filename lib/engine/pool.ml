let default_jobs () = Domain.recommended_domain_count ()

let map ?(oversubscribe = false) ?jobs f n =
  let jobs =
    match jobs with Some j -> max 1 j | None -> default_jobs ()
  in
  (* more domains than cores buys no parallelism and pays the multi-domain
     GC synchronization barrier on every minor collection *)
  let jobs = if oversubscribe then jobs else min jobs (default_jobs ()) in
  if n <= 0 then [||]
  else if jobs <= 1 || n = 1 then Array.init n f
  else begin
    let slots = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (* one writer per slot; Domain.join publishes the writes *)
          (slots.(i) <-
            (match f i with
            | v -> Some (Ok v)
            | exception e -> Some (Error (e, Printexc.get_raw_backtrace ()))));
          loop ()
        end
      in
      loop ()
    in
    let spawned = Array.init (min jobs n - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join spawned;
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false (* every index below [n] was claimed *))
      slots
  end
