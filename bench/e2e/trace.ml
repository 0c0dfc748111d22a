(* In-memory spans around the calls the benchmark makes into each layer,
   written at exit as Chrome trace-event JSON (Perfetto and about:tracing
   open it). Every domain records into its own buffer; a span's parent
   is the innermost open span of its domain, or, on a worker domain with
   nothing open, the fan-out span that handed it the work. With tracing
   off, [with_span] is a direct call. *)

type span = {
  id : int;
  name : string;
  t0 : float;
  t1 : float;
  parent : int;  (** -1: top level *)
  req : int;  (** request or job index, -1 when none *)
  tid : int;  (** recording domain, or connection for async spans *)
  async : bool;  (** may overlap its siblings on one track (pipelining) *)
}

let enabled = ref false
let next_id = Atomic.make 0
let ambient = Atomic.make (-1)

type buffer = { dom : int; mutable stack : int list; mutable spans : span list }

let buffers = ref []
let buffers_lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let b = { dom = (Domain.self () :> int); stack = []; spans = [] } in
      Mutex.protect buffers_lock (fun () -> buffers := b :: !buffers);
      b)

let fresh_id () = Atomic.fetch_and_add next_id 1

let current () =
  match (Domain.DLS.get key).stack with
  | id :: _ -> id
  | [] -> Atomic.get ambient

let add b s = b.spans <- s :: b.spans

(* [fan_out] marks a span whose work may run on other domains: while it
   is open, spans opened on an idle domain hang below it. *)
let with_span ?(fan_out = false) ?(req = -1) name f =
  if not !enabled then f ()
  else begin
    let b = Domain.DLS.get key in
    let id = fresh_id () in
    let parent = current () in
    let saved = Atomic.get ambient in
    if fan_out then Atomic.set ambient id;
    b.stack <- id :: b.stack;
    let t0 = Clock.now () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Clock.now () in
        b.stack <- List.tl b.stack;
        if fan_out then Atomic.set ambient saved;
        add b { id; name; t0; t1; parent; req; tid = b.dom; async = false })
  end

(* A span measured by the caller, below the current one. *)
let record ?(req = -1) ?tid ?(async = false) name t0 t1 =
  if !enabled then begin
    let b = Domain.DLS.get key in
    let tid = Option.value tid ~default:b.dom in
    add b
      { id = fresh_id (); name; t0; t1; parent = current (); req; tid; async }
  end

(* Every span recorded so far, by start time; the buffers are emptied. *)
let drain () =
  Mutex.protect buffers_lock (fun () ->
      let all = List.concat_map (fun b -> b.spans) !buffers in
      List.iter (fun b -> b.spans <- []) !buffers;
      List.sort (fun a b -> Float.compare a.t0 b.t0) all)

let dur s = s.t1 -. s.t0

(* Self time: duration minus the part of it that child spans cover. *)
let self_times spans =
  let kids = Hashtbl.create 256 in
  List.iter
    (fun s -> if s.parent >= 0 && not s.async then Hashtbl.add kids s.parent s)
    spans;
  List.map
    (fun s ->
      let ivs =
        Hashtbl.find_all kids s.id
        |> List.map (fun c -> (Float.max c.t0 s.t0, Float.min c.t1 s.t1))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, hi) (a, b) ->
            if b <= hi then (acc, hi)
            else (acc +. (b -. Float.max a hi), b))
          (0.0, neg_infinity) ivs
      in
      (s, dur s -. covered))
    spans

let write_chrome path spans =
  let origin = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
  let us t = Serve.Json.Float (Float.round ((t -. origin) *. 1e7) /. 10.0) in
  let args s =
    ( "args",
      Serve.Json.Obj
        [
          ("id", Serve.Json.Int s.id);
          ("parent", Serve.Json.Int s.parent);
          ("req", Serve.Json.Int s.req);
        ] )
  in
  let common s =
    [
      ("name", Serve.Json.String s.name);
      ("cat", Serve.Json.String "e2e");
      ("pid", Serve.Json.Int 1);
      ("tid", Serve.Json.Int s.tid);
    ]
  in
  let event s =
    if s.async then
      let edge ph t =
        Serve.Json.Obj
          (common s
          @ [
              ("ph", Serve.Json.String ph);
              ("id", Serve.Json.Int s.id);
              ("ts", us t);
              args s;
            ])
      in
      [ edge "b" s.t0; edge "e" s.t1 ]
    else
      [
        Serve.Json.Obj
          (common s
          @ [
              ("ph", Serve.Json.String "X");
              ("ts", us s.t0);
              ("dur", Serve.Json.Float (Float.round (dur s *. 1e7) /. 10.0));
              args s;
            ]);
      ]
  in
  let json =
    Serve.Json.Obj
      [
        ("displayTimeUnit", Serve.Json.String "ms");
        ("traceEvents", Serve.Json.List (List.concat_map event spans));
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Serve.Json.to_string json);
      output_char oc '\n')
