(* The benchmark's own machinery: seeded inputs repeat, the percentile
   helper refuses thin tails, and open-loop latency runs from the due
   time. *)

open E2e_bench

let same_seed_same_schedule () =
  let a = Loadgen.poisson ~seed:7 ~rate:100.0 500 in
  Alcotest.(check (array (float 0.0))) "poisson" a
    (Loadgen.poisson ~seed:7 ~rate:100.0 500);
  Alcotest.(check bool) "another seed differs" false
    (a = Loadgen.poisson ~seed:8 ~rate:100.0 500);
  let mean_gap = a.(499) /. 500.0 in
  Alcotest.(check bool) "mean gap near 1/rate" true
    (mean_gap > 0.008 && mean_gap < 0.012);
  let z = Loadgen.zipf ~seed:7 ~s:1.0 ~universe:4096 2000 in
  Alcotest.(check (array int)) "zipf" z (Loadgen.zipf ~seed:7 ~s:1.0 ~universe:4096 2000);
  let count k = Array.fold_left (fun a x -> if x = k then a + 1 else a) 0 z in
  Alcotest.(check bool) "rank 0 about twice rank 1" true
    (count 0 > count 1 && count 0 < 4 * count 1)

let same_seed_same_inputs () =
  let t = Inputs.topology ~seed:3 ~components:40 ~edges:80 in
  Alcotest.(check string) "model" t.Inputs.model_src
    (Inputs.topology ~seed:3 ~components:40 ~edges:80).Inputs.model_src;
  Alcotest.(check bool) "universe" true
    (Inputs.universe ~seed:3 ~size:64 t = Inputs.universe ~seed:3 ~size:64 t);
  Alcotest.(check (list string)) "affected includes the injected" [ "c005" ]
    (List.filter (( = ) "c005") (Inputs.affected t [ 5 ]))

let percentile_refuses_thin_tails () =
  let xs n = List.init n float_of_int in
  let opt = Alcotest.(option (float 0.0)) in
  Alcotest.check opt "p99 of 1000" (Some 989.0) (Sample.percentile 0.99 (xs 1000));
  Alcotest.check opt "p99 of 999" None (Sample.percentile 0.99 (xs 999));
  Alcotest.check opt "p90 of 100" (Some 89.0) (Sample.percentile 0.90 (xs 100));
  Alcotest.check opt "p95 of 100" None (Sample.percentile 0.95 (xs 100));
  let q1, q3 = Sample.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (pair (float 1e-12) (float 1e-12)))
    "quartiles as Python's statistics.quantiles" (2.75, 8.25) (q1, q3)

let self_time_subtracts_children () =
  let span id parent t0 t1 =
    { Trace.id; name = "s"; t0; t1; parent; req = -1; tid = 0; async = false }
  in
  let selfs =
    Trace.self_times [ span 0 (-1) 0.0 10.0; span 1 0 1.0 3.0; span 2 0 2.0 5.0 ]
  in
  Alcotest.(check (float 1e-12)) "overlapping children counted once" 6.0
    (List.assoc 0 (List.map (fun ((s : Trace.span), v) -> (s.Trace.id, v)) selfs))

(* A server that stalls 50 ms before its first answer: every request due
   meanwhile still leaves on time, and is charged the stall from its due
   time on. *)
let latency_from_due_time () =
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let stall = 0.05 in
  let serve () =
    let ic = Unix.in_channel_of_descr server in
    let oc = Unix.out_channel_of_descr server in
    let first = ref true in
    try
      while true do
        let line = input_line ic in
        if !first then Thread.delay stall;
        first := false;
        output_string oc (line ^ "\n");
        flush oc
      done
    with End_of_file | Sys_error _ -> ()
  in
  let th = Thread.create serve () in
  let n = 10 in
  let due = Array.init n (fun i -> 0.002 *. float_of_int i) in
  let r =
    Loadgen.run [| client |] ~due (Array.init n (Printf.sprintf "{\"i\":%d}"))
  in
  Unix.shutdown client Unix.SHUTDOWN_SEND;
  Thread.join th;
  Unix.close client;
  Unix.close server;
  for i = 0 to n - 1 do
    Alcotest.(check string) "answers in order" (Printf.sprintf "{\"i\":%d}" i)
      r.Loadgen.responses.(i);
    Alcotest.(check bool) "sent before the stall ended" true
      (r.Loadgen.sent.(i) < r.Loadgen.due.(0) +. stall);
    Alcotest.(check (float 1e-9)) "latency is receipt minus due"
      (r.Loadgen.recv.(i) -. r.Loadgen.due.(i)) (Loadgen.latency r i);
    Alcotest.(check bool) "charged the stall" true
      (Loadgen.latency r i >= stall -. due.(i) -. 0.001)
  done

let () =
  Alcotest.run "e2e"
    [
      ( "generator",
        [
          Alcotest.test_case "same seed, same schedule and trace" `Quick
            same_seed_same_schedule;
          Alcotest.test_case "same seed, same inputs" `Quick same_seed_same_inputs;
          Alcotest.test_case "percentile refuses thin tails" `Quick
            percentile_refuses_thin_tails;
          Alcotest.test_case "self time" `Quick self_time_subtracts_children;
          Alcotest.test_case "latency from the due time" `Quick latency_from_due_time;
        ] );
    ]
