(* Search statistics of the CDNL solver (Solver), also filled by the
   test-only pruned-DFS oracle. Every [solve_*_with_stats] entry point
   allocates a fresh record per call, so re-entrant and repeated solves
   never accumulate into each other's counters or wall times. *)

type t = {
  mutable guesses : int;
  mutable pruned : int;
  mutable firings : int;
  mutable leaves : int;
  mutable models : int;
  mutable conflicts : int;
  mutable learned : int;
  mutable restarts : int;
  mutable model_blocks : int;
  mutable backjumped : int;
  mutable unfounded_checks : int;
  mutable unfounded_sets : int;
  mutable pre_units : int;
  mutable pre_equivs : int;
  mutable cheap : bool;
  mutable wall_s : float;
}

let create () =
  {
    guesses = 0;
    pruned = 0;
    firings = 0;
    leaves = 0;
    models = 0;
    conflicts = 0;
    learned = 0;
    restarts = 0;
    model_blocks = 0;
    backjumped = 0;
    unfounded_checks = 0;
    unfounded_sets = 0;
    pre_units = 0;
    pre_equivs = 0;
    cheap = false;
    wall_s = 0.;
  }

let accumulate dst src =
  dst.guesses <- dst.guesses + src.guesses;
  dst.pruned <- dst.pruned + src.pruned;
  dst.firings <- dst.firings + src.firings;
  dst.leaves <- dst.leaves + src.leaves;
  dst.models <- dst.models + src.models;
  dst.conflicts <- dst.conflicts + src.conflicts;
  dst.learned <- dst.learned + src.learned;
  dst.restarts <- dst.restarts + src.restarts;
  dst.model_blocks <- dst.model_blocks + src.model_blocks;
  dst.backjumped <- dst.backjumped + src.backjumped;
  dst.unfounded_checks <- dst.unfounded_checks + src.unfounded_checks;
  dst.unfounded_sets <- dst.unfounded_sets + src.unfounded_sets;
  dst.pre_units <- dst.pre_units + src.pre_units;
  dst.pre_equivs <- dst.pre_equivs + src.pre_equivs;
  dst.cheap <- dst.cheap || src.cheap;
  dst.wall_s <- dst.wall_s +. src.wall_s

let to_string s =
  Printf.sprintf
    "guesses=%d pruned=%d firings=%d leaves=%d models=%d conflicts=%d \
     learned=%d restarts=%d blocks=%d backjumped=%d unfounded=%d/%d \
     pre=%d/%d tier=%s wall=%.6fs"
    s.guesses s.pruned s.firings s.leaves s.models s.conflicts s.learned
    s.restarts s.model_blocks s.backjumped s.unfounded_sets
    s.unfounded_checks s.pre_units s.pre_equivs
    (if s.cheap then "cheap" else "full")
    s.wall_s

let pp ppf s = Format.pp_print_string ppf (to_string s)
