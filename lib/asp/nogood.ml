(* Conflict-driven clause store and propagator: the CDCL kernel under the
   CDNL solver. Keeps the assignment trail with decision levels,
   two-watched-literal unit propagation, 1-UIP conflict analysis with
   activity bumping (VSIDS), non-chronological backjumping, and
   activity-based deletion of learned clauses.

   Literals use the {!Completion} encoding: [2v] asserts variable [v]
   true, [2v+1] asserts it false. The kernel is agnostic to what the
   variables mean; the solver layers the ASP semantics (lazy aggregate
   and bound propagators, unfounded-set checks) on top via
   {!add_dynamic} and the trail accessors. *)

type clause = {
  mutable lits : int array;
  mutable act : float;
  learnt : bool;
  local : bool;
      (* path-local clause (blocking nogood, bound prune): valid only
         under this solver's assumptions — resolvents over it must never
         be exported to other guiding-path domains *)
  cid : int;  (* creation stamp: deterministic tie-break for deletion *)
}

(* growable clause vector with in-place compaction *)
type cvec = { mutable data : clause array; mutable sz : int }

let dummy_clause =
  { lits = [||]; act = 0.; learnt = false; local = false; cid = -1 }
let cvec_create () = { data = [||]; sz = 0 }

let cvec_push v c =
  if v.sz = Array.length v.data then begin
    let cap = max 4 (2 * Array.length v.data) in
    let b = Array.make cap dummy_clause in
    Array.blit v.data 0 b 0 v.sz;
    v.data <- b
  end;
  v.data.(v.sz) <- c;
  v.sz <- v.sz + 1

type t = {
  nvars : int;
  branchable : int;  (* vars below this bound live in the decision heap *)
  mutable stats : Solver_stats.t;
  value : int array;  (* var -> 0 undef / 1 true / -1 false *)
  vlevel : int array;
  reason : clause option array;
  trail : int array;
  mutable trail_sz : int;
  trail_lim : int array;
  mutable n_levels : int;
  mutable qhead : int;
  watches : cvec array;  (* indexed by watched literal *)
  learnts : cvec;
  activity : float array;
  mutable var_inc : float;
  mutable cla_inc : float;
  phase : bool array;  (* saved phase: last value the variable took *)
  seen : Bytes.t;
  prov : Bytes.t;
      (* per var: assigned at level 0 after [seal] — provisional, taken
         back by [reset] *)
  heap : int array;  (* binary max-heap of branchable vars by activity *)
  hpos : int array;  (* var -> heap slot, -1 when absent *)
  mutable hsz : int;
  mutable next_cid : int;
  mutable undo_hook : int -> unit;
  mutable analyze_local : bool;
      (* last analysis resolved over a path-local clause *)
  mutable unsat : bool;  (* conflict at level 0: no model at all *)
  mutable sealed : bool;  (* [seal] ran: later level-0 facts are provisional *)
  mutable mark : int;  (* level-0 trail prefix [reset] keeps *)
  mutable n_local : int;  (* path-local clauses created since [reset] *)
}

let create ?branchable ~nvars ~stats () =
  let n = max nvars 1 in
  let branchable = Option.value ~default:nvars branchable in
  let s =
    {
      nvars;
      branchable;
      stats;
      value = Array.make n 0;
      vlevel = Array.make n 0;
      reason = Array.make n None;
      trail = Array.make n 0;
      trail_sz = 0;
      trail_lim = Array.make (n + 1) 0;
      n_levels = 0;
      qhead = 0;
      watches = Array.init (2 * n) (fun _ -> cvec_create ());
      learnts = cvec_create ();
      activity = Array.make n 0.;
      var_inc = 1.;
      cla_inc = 1.;
      phase = Array.make n false;
      seen = Bytes.make n '\000';
      prov = Bytes.make n '\000';
      heap = Array.init branchable (fun i -> i);
      hpos = Array.init n (fun v -> if v < branchable then v else -1);
      hsz = branchable;
      next_cid = 0;
      undo_hook = (fun _ -> ());
      analyze_local = false;
      unsat = false;
      sealed = false;
      mark = 0;
      n_local = 0;
    }
  in
  (* all activities are zero, so the ascending id order is a valid heap
     under the (activity desc, id asc) ranking *)
  s

(* heap ranking: highest activity first, lowest id on ties — exactly the
   pick the former linear scan made, so branching stays deterministic *)
let ranks_above s v w =
  s.activity.(v) > s.activity.(w)
  || (s.activity.(v) = s.activity.(w) && v < w)

let sift_up s i =
  let i = ref i in
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    ranks_above s s.heap.(!i) s.heap.(p)
  do
    let p = (!i - 1) / 2 in
    let v = s.heap.(!i) and w = s.heap.(p) in
    s.heap.(!i) <- w;
    s.heap.(p) <- v;
    s.hpos.(w) <- !i;
    s.hpos.(v) <- p;
    i := p
  done

let sift_down s i =
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let best = ref !i in
    if l < s.hsz && ranks_above s s.heap.(l) s.heap.(!best) then best := l;
    if r < s.hsz && ranks_above s s.heap.(r) s.heap.(!best) then best := r;
    if !best = !i then continue := false
    else begin
      let v = s.heap.(!i) and w = s.heap.(!best) in
      s.heap.(!i) <- w;
      s.heap.(!best) <- v;
      s.hpos.(w) <- !i;
      s.hpos.(v) <- !best;
      i := !best
    end
  done

let heap_insert s v =
  if v < s.branchable && s.hpos.(v) < 0 then begin
    s.heap.(s.hsz) <- v;
    s.hpos.(v) <- s.hsz;
    s.hsz <- s.hsz + 1;
    sift_up s (s.hsz - 1)
  end

let set_undo_hook s f = s.undo_hook <- f
let set_stats s stats = s.stats <- stats
let unsat s = s.unsat
let level s = s.n_levels
let trail_size s = s.trail_sz
let trail_get s i = s.trail.(i)
let value_var s v = s.value.(v)

let value_lit s l =
  let v = s.value.(l lsr 1) in
  if l land 1 = 0 then v else -v

let var_level s v = s.vlevel.(v)
let n_learnts s = s.learnts.sz

let n_global_learnts s =
  let n = ref 0 in
  for i = 0 to s.learnts.sz - 1 do
    if not s.learnts.data.(i).local then incr n
  done;
  !n

(* the decision literal that opened level [l] (1-based) *)
let decision_lit s l = s.trail.(s.trail_lim.(l - 1))

let enqueue s lit reason =
  let v = lit lsr 1 in
  s.value.(v) <- (if lit land 1 = 0 then 1 else -1);
  s.vlevel.(v) <- s.n_levels;
  if s.n_levels = 0 then
    Bytes.set s.prov v (if s.sealed then '\001' else '\000');
  s.reason.(v) <- reason;
  s.phase.(v) <- lit land 1 = 0;
  s.trail.(s.trail_sz) <- lit;
  s.trail_sz <- s.trail_sz + 1;
  s.stats.Solver_stats.firings <- s.stats.Solver_stats.firings + 1

let decide s lit =
  s.stats.Solver_stats.guesses <- s.stats.Solver_stats.guesses + 1;
  s.trail_lim.(s.n_levels) <- s.trail_sz;
  s.n_levels <- s.n_levels + 1;
  enqueue s lit None

(* pop the trail down to [bound] entries *)
let pop_to s bound =
  (* trail_sz shrinks before each hook call so the hook can tell the
     popped literal's position from the current trail size *)
  while s.trail_sz > bound do
    s.trail_sz <- s.trail_sz - 1;
    let lit = s.trail.(s.trail_sz) in
    let v = lit lsr 1 in
    s.value.(v) <- 0;
    s.reason.(v) <- None;
    heap_insert s v;
    s.undo_hook lit
  done;
  s.qhead <- bound

let cancel_until s lvl =
  if s.n_levels > lvl then begin
    pop_to s s.trail_lim.(lvl);
    s.n_levels <- lvl
  end

let mk_clause ?(local = false) s lits learnt =
  let c = { lits; act = 0.; learnt; local; cid = s.next_cid } in
  s.next_cid <- s.next_cid + 1;
  if local then s.n_local <- s.n_local + 1;
  c

let attach s c =
  cvec_push s.watches.(c.lits.(0)) c;
  cvec_push s.watches.(c.lits.(1)) c

let detach s c =
  let remove l =
    let ws = s.watches.(l) in
    let j = ref 0 in
    for i = 0 to ws.sz - 1 do
      if ws.data.(i) != c then begin
        ws.data.(!j) <- ws.data.(i);
        incr j
      end
    done;
    ws.sz <- !j
  in
  remove c.lits.(0);
  remove c.lits.(1)

(* initial (level-0) clause: simplified against the current top-level
   assignment — satisfied clauses dropped, false literals removed *)
let add_initial s lits =
  if not s.unsat then begin
    let lits = Array.to_list lits in
    let sat = ref false in
    let seen_pos = Hashtbl.create 8 in
    let kept =
      List.filter
        (fun l ->
          if value_lit s l = 1 then sat := true;
          if Hashtbl.mem seen_pos (l lxor 1) then sat := true (* tautology *);
          let fresh = not (Hashtbl.mem seen_pos l) in
          Hashtbl.replace seen_pos l ();
          fresh && value_lit s l = 0)
        lits
    in
    if not !sat then
      match kept with
      | [] -> s.unsat <- true
      | [ l ] -> enqueue s l None
      | _ :: _ :: _ -> attach s (mk_clause s (Array.of_list kept) false)
  end

(* preprocessed clause: already simplified (>= 2 literals, no duplicates,
   nothing assigned), attach without re-checking *)
let add_clean s lits =
  if not s.unsat then attach s (mk_clause s lits false)

(* assert a literal made unit by chronological backtracking: the clause
   was attached by [add_dynamic] but re-gained exactly one unassigned
   literal through trail pops, which event-driven propagation never sees *)
let force s lit c = enqueue s lit (Some c)

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    (* uniform rescale preserves the heap order *)
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  if s.hpos.(v) >= 0 then sift_up s s.hpos.(v)

let bump_clause s c =
  c.act <- c.act +. s.cla_inc;
  if c.act > 1e100 then begin
    for i = 0 to s.learnts.sz - 1 do
      s.learnts.data.(i).act <- s.learnts.data.(i).act *. 1e-20
    done;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let decay s =
  s.var_inc <- s.var_inc /. 0.95;
  s.cla_inc <- s.cla_inc /. 0.999

let propagate s =
  let confl = ref None in
  while !confl = None && s.qhead < s.trail_sz do
    let p = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    let fl = p lxor 1 in
    (* every clause watching [fl] must find a new watch, propagate, or
       conflict *)
    let ws = s.watches.(fl) in
    let n = ws.sz in
    let j = ref 0 in
    let i = ref 0 in
    while !i < n do
      let c = ws.data.(!i) in
      incr i;
      if !confl <> None then begin
        ws.data.(!j) <- c;
        incr j
      end
      else begin
        let lits = c.lits in
        if lits.(0) = fl then begin
          lits.(0) <- lits.(1);
          lits.(1) <- fl
        end;
        let first = lits.(0) in
        if value_lit s first = 1 then begin
          ws.data.(!j) <- c;
          incr j
        end
        else begin
          let len = Array.length lits in
          let k = ref 2 in
          let found = ref (-1) in
          while !found < 0 && !k < len do
            if value_lit s lits.(!k) <> -1 then found := !k;
            incr k
          done;
          if !found >= 0 then begin
            let nw = lits.(!found) in
            lits.(!found) <- fl;
            lits.(1) <- nw;
            cvec_push s.watches.(nw) c
          end
          else begin
            ws.data.(!j) <- c;
            incr j;
            if value_lit s first = -1 then confl := Some c
            else enqueue s first (Some c)
          end
        end
      end
    done;
    ws.sz <- !j
  done;
  !confl

(* 1-UIP conflict analysis. Returns the learnt clause (asserting literal
   first) — [learn] below performs the backjump and attachment. *)
let analyze s confl =
  s.stats.Solver_stats.conflicts <- s.stats.Solver_stats.conflicts + 1;
  s.analyze_local <- false;
  let tail = ref [] in
  let pathc = ref 0 in
  let p = ref (-1) in
  let idx = ref (s.trail_sz - 1) in
  let c = ref confl in
  let to_clear = ref [] in
  let looping = ref true in
  while !looping do
    let cl = !c in
    if cl.local then s.analyze_local <- true;
    if cl.learnt then bump_clause s cl;
    let lits = cl.lits in
    let start = if !p = -1 then 0 else 1 in
    for k = start to Array.length lits - 1 do
      let q = lits.(k) in
      let v = q lsr 1 in
      if Bytes.get s.seen v = '\000' && s.vlevel.(v) > 0 then begin
        Bytes.set s.seen v '\001';
        to_clear := v :: !to_clear;
        bump_var s v;
        if s.vlevel.(v) >= s.n_levels then incr pathc
        else tail := q :: !tail
      end
      else if s.vlevel.(v) = 0 && Bytes.get s.prov v = '\001' then
        (* a provisional level-0 fact left out of the clause may rest on a
           path-local clause: the resolvent holds on this path only *)
        s.analyze_local <- true
    done;
    while Bytes.get s.seen (s.trail.(!idx) lsr 1) = '\000' do
      decr idx
    done;
    p := s.trail.(!idx);
    decr idx;
    let v = !p lsr 1 in
    Bytes.set s.seen v '\000';
    decr pathc;
    if !pathc <= 0 then looping := false
    else
      c :=
        (match s.reason.(v) with
        | Some r -> r
        | None -> invalid_arg "Nogood.analyze: decision inside resolution")
  done;
  List.iter (fun v -> Bytes.set s.seen v '\000') !to_clear;
  Array.of_list ((!p lxor 1) :: !tail)

let analyzed_local s = s.analyze_local

(* backjump as far as the learnt clause allows (never above [root]),
   attach it and assert its first literal *)
let learn s ~root lits =
  s.stats.Solver_stats.learned <- s.stats.Solver_stats.learned + 1;
  let len = Array.length lits in
  let bj =
    if len = 1 then 0
    else begin
      let best = ref 1 in
      for k = 2 to len - 1 do
        if s.vlevel.(lits.(k) lsr 1) > s.vlevel.(lits.(!best) lsr 1) then
          best := k
      done;
      let tmp = lits.(1) in
      lits.(1) <- lits.(!best);
      lits.(!best) <- tmp;
      s.vlevel.(lits.(1) lsr 1)
    end
  in
  let target = max bj root in
  let skipped = s.n_levels - 1 - target in
  if skipped > 0 then
    s.stats.Solver_stats.backjumped <-
      s.stats.Solver_stats.backjumped + skipped;
  cancel_until s target;
  if len = 1 then enqueue s lits.(0) None
  else begin
    (* a resolvent over a path-local clause is itself path-local: it must
       carry the taint so later analyses over it stay unshareable *)
    let c = mk_clause ~local:s.analyze_local s lits true in
    attach s c;
    cvec_push s.learnts c;
    bump_clause s c;
    enqueue s lits.(0) (Some c)
  end;
  decay s

type dyn_result = Sat | Unit | Conflict of clause | Empty

(* add a clause discovered during search (lazy aggregate/bound
   explanations, loop nogoods, blocking nogoods, bound prunes): the
   current assignment decides whether it is silent, propagating, or
   conflicting. A unit clause (size 1 after inspection) is asserted with
   itself as reason but left unattached: once the search retracts below
   the asserting level, the lazy check that produced it fires again. *)
let add_dynamic ?(local = false) s ~learnt lits =
  let len = Array.length lits in
  if len = 0 then begin
    s.unsat <- true;
    Empty
  end
  else begin
    (* order: a satisfying literal first if any, else the undefined ones,
       else the highest-level false literals *)
    let keyof l =
      match value_lit s l with
      | 1 -> (2, max_int)
      | 0 -> (1, max_int)
      | _ -> (0, s.vlevel.(l lsr 1))
    in
    Array.sort
      (fun a b -> compare (keyof b) (keyof a))
      lits;
    let c = mk_clause ~local s lits learnt in
    if len >= 2 then begin
      attach s c;
      if learnt then begin
        cvec_push s.learnts c;
        bump_clause s c
      end
    end;
    match value_lit s lits.(0) with
    | 1 -> Sat
    | 0 ->
        if len = 1 || value_lit s lits.(1) = -1 then begin
          enqueue s lits.(0) (Some c);
          Unit
        end
        else Sat
    | _ -> Conflict c
  end

(* delete the coldest half of the learned clauses; reasons and short
   clauses survive. Deterministic: activity then creation stamp. *)
let reduce_db s =
  let ls = s.learnts in
  if ls.sz > 0 then begin
    let arr = Array.sub ls.data 0 ls.sz in
    Array.sort
      (fun a b ->
        match compare a.act b.act with 0 -> compare a.cid b.cid | n -> n)
      arr;
    let locked c =
      Array.length c.lits > 0
      &&
      match s.reason.(c.lits.(0) lsr 1) with
      | Some r -> r == c
      | None -> false
    in
    let limit = ls.sz / 2 in
    let kept = ref [] in
    Array.iteri
      (fun i c ->
        if i < limit && Array.length c.lits > 2 && not (locked c) then
          detach s c
        else kept := c :: !kept)
      arr;
    ls.sz <- 0;
    List.iter (fun c -> cvec_push ls c) (List.rev !kept)
  end

(* deterministic VSIDS pick: the unassigned branchable variable with the
   highest activity, lowest id on ties — popped from the heap instead of
   scanned linearly; assigned entries are discarded lazily and re-enter
   the heap when the trail pops them. Saved-phase polarity (variables
   start out false, biasing enumeration towards small models first). *)
let rec pick_branch s =
  if s.hsz = 0 then None
  else begin
    let v = s.heap.(0) in
    s.hsz <- s.hsz - 1;
    s.hpos.(v) <- -1;
    if s.hsz > 0 then begin
      let w = s.heap.(s.hsz) in
      s.heap.(0) <- w;
      s.hpos.(w) <- 0;
      sift_down s 0
    end;
    if s.value.(v) = 0 then
      Some (if s.phase.(v) then 2 * v else (2 * v) + 1)
    else pick_branch s
  end

let seal s =
  s.mark <- s.trail_sz;
  s.sealed <- true

(* keep only the clauses [keep] accepts, in order *)
let filter_cvec v keep =
  let j = ref 0 in
  for i = 0 to v.sz - 1 do
    let c = v.data.(i) in
    if keep c then begin
      v.data.(!j) <- c;
      incr j
    end
  done;
  v.sz <- !j

(* back to the sealed level-0 assignment, minus every path-local clause:
   what is left is the program's clauses and the resolvents that rest on
   them alone *)
let reset s =
  pop_to s s.mark;
  s.n_levels <- 0;
  if s.n_local > 0 then begin
    let global c = not c.local in
    Array.iter (fun ws -> filter_cvec ws global) s.watches;
    filter_cvec s.learnts global;
    s.n_local <- 0
  end
