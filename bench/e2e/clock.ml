(* Monotonic seconds: latencies, lateness and spans must not jump with
   wall-clock adjustments. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* A loop of [steps] similar steps began at [start]: does one more, as
   long as their mean, still end within [seconds]? Always true before
   the first step, so a run measures at least one. *)
let another_fits ~start ~seconds ~steps =
  steps = 0
  ||
  let elapsed = now () -. start in
  elapsed +. (elapsed /. float_of_int steps) <= seconds
