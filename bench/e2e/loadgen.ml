(* Open-loop load from one thread. Requests leave when they are due,
   whatever happened to earlier ones, pipelined over a few connections;
   readiness comes from [Unix.select]. A latency runs from the moment the
   request was due, not from when it was sent, so a stall in the server
   (or in this generator) also charges every request queued behind it. *)

(* Poisson arrivals: [n] due offsets in seconds from the phase start. *)
let poisson ~seed ~rate n =
  let st = Random.State.make [| seed; 0x9055 |] in
  let t = ref 0.0 in
  Array.init n (fun _ ->
      t := !t -. (log (1.0 -. Random.State.float st 1.0) /. rate);
      !t)

(* [n] ranks of [0, universe) drawn Zipf(s): P(k) is proportional to
   1 / (k+1)^s. *)
let zipf ~seed ~s ~universe n =
  let cdf = Array.make universe 0.0 in
  let acc = ref 0.0 in
  for k = 0 to universe - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (k + 1)) s);
    cdf.(k) <- !acc
  done;
  let st = Random.State.make [| seed; 0x21bf |] in
  Array.init n (fun _ ->
      let u = Random.State.float st !acc in
      let lo = ref 0 and hi = ref (universe - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cdf.(mid) > u then hi := mid else lo := mid + 1
      done;
      !lo)

type result = {
  due : float array;  (** absolute due times *)
  sent : float array;
  recv : float array;  (** [nan]: never answered *)
  conn : int array;  (** connection each request went out on *)
  responses : string array;
  backlog_end : int;  (** requests unanswered when the last one was sent *)
}

let latency r i =
  if Float.is_nan r.recv.(i) then infinity else r.recv.(i) -. r.due.(i)

let lateness r i = r.sent.(i) -. r.due.(i)

(* Send [lines.(i)] at [start + due.(i)] on the connection with the fewest
   requests outstanding; a response line answers the oldest outstanding
   request of its connection (the server answers each connection in
   order). Sockets are non-blocking, so a server that stops reading
   while its answers pile up cannot wedge the generator. Gives up
   [drain_s] after the last request was due. *)
let run ?(start_delay = 0.01) ?(drain_s = 10.0) conns ~due lines =
  let n = Array.length lines in
  let k = Array.length conns in
  Array.iter Unix.set_nonblock conns;
  let start = Clock.now () +. start_delay in
  let due = Array.map (fun d -> start +. d) due in
  let sent = Array.make n nan and recv = Array.make n nan in
  let conn = Array.make n (-1) and responses = Array.make n "" in
  let fifo = Array.init k (fun _ -> Queue.create ()) in
  let pending = Array.init k (fun _ -> Buffer.create 4096) in
  let unsent = Array.make k "" and unsent_off = Array.make k 0 in
  let alive = Array.make k true in
  let chunk = Bytes.create 65536 in
  let next = ref 0 and answered = ref 0 and backlog_end = ref 0 in
  let deadline = (if n = 0 then start else due.(n - 1)) +. drain_s in
  let close_conn c =
    alive.(c) <- false;
    Queue.clear fifo.(c);
    unsent.(c) <- ""
  in
  let flush c =
    let s = unsent.(c) in
    let rec go () =
      if unsent_off.(c) < String.length s then
        match
          Unix.write_substring conns.(c) s unsent_off.(c)
            (String.length s - unsent_off.(c))
        with
        | w ->
            unsent_off.(c) <- unsent_off.(c) + w;
            go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
        | exception Unix.Unix_error _ -> close_conn c
    in
    go ();
    if unsent_off.(c) >= String.length unsent.(c) then begin
      unsent.(c) <- "";
      unsent_off.(c) <- 0
    end
  in
  let send i =
    let best = ref (-1) in
    for c = 0 to k - 1 do
      if
        alive.(c)
        && (!best < 0 || Queue.length fifo.(c) < Queue.length fifo.(!best))
      then best := c
    done;
    (match !best with
    | -1 -> ()
    | c ->
        let rest =
          String.sub unsent.(c) unsent_off.(c)
            (String.length unsent.(c) - unsent_off.(c))
        in
        unsent.(c) <- rest ^ lines.(i) ^ "\n";
        unsent_off.(c) <- 0;
        Queue.push i fifo.(c);
        conn.(i) <- c;
        flush c);
    sent.(i) <- Clock.now ()
  in
  let receive c =
    match Unix.read conns.(c) chunk 0 (Bytes.length chunk) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | 0 | (exception Unix.Unix_error _) -> close_conn c
    | got ->
        let t = Clock.now () in
        let buf = pending.(c) in
        let from = ref 0 in
        for j = 0 to got - 1 do
          if Bytes.get chunk j = '\n' then begin
            Buffer.add_subbytes buf chunk !from (j - !from);
            from := j + 1;
            match Queue.take_opt fifo.(c) with
            | Some i ->
                recv.(i) <- t;
                responses.(i) <- Buffer.contents buf;
                incr answered;
                Buffer.clear buf
            | None -> Buffer.clear buf
          end
        done;
        Buffer.add_subbytes buf chunk !from (got - !from)
  in
  let outstanding () = Array.fold_left (fun a q -> a + Queue.length q) 0 fifo in
  let fds pred = List.filter_map (fun c -> if pred c then Some conns.(c) else None) in
  let all = List.init k Fun.id in
  while !answered < n && Clock.now () < deadline && Array.exists Fun.id alive do
    let now = Clock.now () in
    while !next < n && due.(!next) <= now do
      send !next;
      incr next;
      if !next = n then backlog_end := outstanding ()
    done;
    let timeout =
      if !next < n then Float.max 0.0 (due.(!next) -. Clock.now ())
      else Float.min 0.05 (deadline -. now)
    in
    match
      Unix.select
        (fds (fun c -> not (Queue.is_empty fifo.(c))) all)
        (fds (fun c -> unsent.(c) <> "") all)
        [] timeout
    with
    | readable, writable, _ ->
        List.iter
          (fun c ->
            if List.mem conns.(c) writable then flush c;
            if List.mem conns.(c) readable then receive c)
          all
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  { due; sent; recv; conn; responses; backlog_end = !backlog_end }
