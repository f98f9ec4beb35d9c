(* Unit tests of the benchmark's pure helpers (acebench/kit.ml). *)

let close = Alcotest.float 1e-12
let triple = Alcotest.(triple close close close)

let test_quartiles () =
  (* reference values: Python statistics.quantiles(xs, n=4) *)
  Alcotest.check triple "two values" (0.5, 2.0, 3.5) (Kit.quartiles [ 1.0; 3.0 ]);
  Alcotest.check triple "five" (1.5, 3.0, 4.5) (Kit.quartiles [ 1.; 2.; 3.; 4.; 5. ]);
  Alcotest.check triple "ten" (2.75, 5.5, 8.25) (Kit.quartiles (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check triple "unsorted" (1.75, 3.5, 6.0) (Kit.quartiles [ 5.; 1.; 4.; 2.; 3.; 9. ]);
  Alcotest.check close "median even" 3.5 (Kit.median [ 5.; 1.; 4.; 2.; 3.; 9. ]);
  Alcotest.check close "spread" 1.0 (Kit.rel_spread [ 1.; 2.; 3.; 4.; 5. ])

let test_percentile () =
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "p50 nearest rank" 50.0 (Kit.percentile a 0.5);
  Alcotest.check close "p99" 99.0 (Kit.percentile a 0.99);
  Alcotest.check close "p100" 100.0 (Kit.percentile a 1.0);
  let rank = Alcotest.(option (float 0.0)) in
  (* the highest percentile with at least ten samples beyond it *)
  Alcotest.check rank "99 samples: none" None (Kit.tail_rank 99);
  Alcotest.check rank "100: p90" (Some 0.9) (Kit.tail_rank 100);
  Alcotest.check rank "199: still p90" (Some 0.9) (Kit.tail_rank 199);
  Alcotest.check rank "200: p95" (Some 0.95) (Kit.tail_rank 200);
  Alcotest.check rank "1000: p99" (Some 0.99) (Kit.tail_rank 1000);
  Alcotest.check rank "9999: p99" (Some 0.99) (Kit.tail_rank 9999);
  Alcotest.check rank "10000: p99.9" (Some 0.999) (Kit.tail_rank 10000);
  let pair = Alcotest.(pair close close) in
  Alcotest.check pair "few samples: median" (0.5, 2.0) (Kit.tail [ (0., 1.); (1., 7.); (2., 2.) ]);
  (* 1000 samples, five windows of 200: p95 of each, then the median *)
  let ramp = List.init 1000 (fun i -> (float_of_int i, float_of_int (i mod 200))) in
  Alcotest.check pair "windowed p95" (0.95, 189.0) (Kit.tail ramp);
  (* a stall inflating one window does not move the median of five *)
  let stalled = List.map (fun (t, v) -> (t, if t < 200.0 then v +. 1000.0 else v)) ramp in
  Alcotest.check pair "one stalled window" (0.95, 189.0) (Kit.tail stalled)

let test_schedule () =
  let s1 = Kit.poisson_schedule ~seed:7 ~rate:150.0 ~duration:15.0 in
  let s2 = Kit.poisson_schedule ~seed:7 ~rate:150.0 ~duration:15.0 in
  let s3 = Kit.poisson_schedule ~seed:8 ~rate:150.0 ~duration:15.0 in
  Alcotest.(check bool) "same seed, same schedule" true (s1 = s2);
  Alcotest.(check bool) "another seed, another schedule" false (s1 = s3);
  Alcotest.(check int) "count fixed by rate and duration" 2250 (Array.length s1);
  Alcotest.(check int) "rounded count" 3 (Array.length (Kit.poisson_schedule ~seed:1 ~rate:2.5 ~duration:1.0));
  Array.iteri
    (fun i t ->
      if t < 0.0 || t >= 15.0 || (i > 0 && t < s1.(i - 1)) then
        Alcotest.failf "offset %d = %f out of order or range" i t)
    s1

let test_classify () =
  let v = Alcotest.testable (Fmt.of_to_string Kit.verdict_name) ( = ) in
  let base = [ 1.00; 1.01; 0.99; 1.00; 1.02; 0.98 ] in
  let c ?(lower = true) change = Kit.classify ~lower_is_better:lower ~bound:0.1 ~base ~change in
  Alcotest.check v "same" Kit.Unchanged (c [ 1.01; 1.00; 0.99; 1.02; 1.00 ]);
  Alcotest.check v "worse within bound" Kit.Unchanged (c [ 1.05; 1.06; 1.04; 1.05 ]);
  Alcotest.check v "worse beyond bound" Kit.Regressed (c [ 1.20; 1.21; 1.19; 1.20 ]);
  Alcotest.check v "better" Kit.Improved (c [ 0.80; 0.81; 0.79; 0.80 ]);
  Alcotest.check v "higher is better: lower regresses" Kit.Regressed
    (c ~lower:false [ 0.80; 0.81; 0.79; 0.80 ]);
  Alcotest.check v "noisy change" Kit.Unresolved (c [ 0.6; 1.4; 1.0; 0.7; 1.3 ]);
  Alcotest.check v "noisy but every run better" Kit.Improved
    (Kit.classify ~lower_is_better:true ~bound:0.1 ~base:[ 2.0; 3.0; 2.5; 2.2 ]
       ~change:[ 1.0; 1.5; 1.2; 1.9 ])

(* Two flush windows of a daemon, as ACE_METRICS_PATH receives them. *)
let canned =
  [
    {|{"schema_version":2,"ts":100.25,"pid":41,"seq":0,"dropped_events":0,"metrics":{"serve.admitted":{"count":5},"request.latency":{"count":0,"sketch":{"count":1,"sum":0.080000000000000002,"min":0.080000000000000002,"max":0.080000000000000002,"b":[[455,1]]}}}}|};
    "";
    {|{"schema_version":2,"ts":100.5,"pid":41,"seq":1,"dropped_events":2,"metrics":{"serve.admitted":{"count":3},"request.latency":{"count":0,"sketch":{"count":3,"sum":0.070000000000000007,"min":0.01,"max":0.040000000000000001,"b":[[407,1],[423,1],[439,1]]}}}}|};
  ]

let test_jsonl () =
  let m, dropped = Kit.merge_jsonl canned in
  Alcotest.(check int) "dropped events summed" 2 dropped;
  Alcotest.(check int) "counter summed" 8 (Kit.flushed_count m "serve.admitted");
  Alcotest.(check int) "samples merged" 4 (Kit.flushed_count m "request.latency");
  Alcotest.check close "sum merged" 0.15 (Kit.flushed_sum m "request.latency");
  Alcotest.check (Alcotest.float 1e-9) "merged p99 is the 0.08 sample's bucket" 0.079315684824483326
    (Kit.flushed_quantile m "request.latency" 0.99);
  Alcotest.check close "absent metric" 0.0 (Kit.flushed_quantile m "serve.queue_depth" 0.5);
  let m, dropped = Kit.merge_jsonl ~since:100.25 canned in
  Alcotest.(check int) "since skips the first window" 3 (Kit.flushed_count m "serve.admitted");
  Alcotest.(check int) "and its drops" 2 dropped;
  Alcotest.check_raises "not a flush line" (Failure "flush line without ts") (fun () ->
      ignore (Kit.merge_jsonl [ {|{"metrics":{}}|} ]))

let test_cpu_list () =
  Alcotest.(check (list int)) "ranges" [ 0; 1; 4; 6; 7 ] (Kit.cpu_list "0-1,4,6-7");
  Alcotest.(check (list int)) "single" [ 3 ] (Kit.cpu_list "3")

let () =
  Alcotest.run "acebench"
    [
      ( "kit",
        [
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "percentiles and tail rank" `Quick test_percentile;
          Alcotest.test_case "seeded Poisson schedule" `Quick test_schedule;
          Alcotest.test_case "compare classification" `Quick test_classify;
          Alcotest.test_case "daemon metrics JSONL" `Quick test_jsonl;
          Alcotest.test_case "CPU affinity list" `Quick test_cpu_list;
        ] );
    ]
