(* Observability layer: span recording and Chrome-JSON emission, the
   domain-safe metric merge that fixed Cost's racy counters, histogram
   quantiles, the ciphertext flight recorder, and the contract that
   turning tracing on cannot change what the runtime computes. *)
module Telemetry = Ace_telemetry.Telemetry
module Qsketch = Ace_telemetry.Qsketch
module Json = Ace_telemetry.Json_lite
module Domain_pool = Ace_util.Domain_pool
module Pipeline = Ace_driver.Pipeline
module Param_select = Ace_ckks_ir.Param_select
module Fhe = Ace_fhe
module Rns_poly = Ace_rns.Rns_poly
module Import = Ace_nn.Import
module Builder = Ace_onnx.Builder
module Rng = Ace_util.Rng

let with_domains n f =
  Domain_pool.set_num_domains n;
  Fun.protect ~finally:(fun () -> Domain_pool.set_num_domains 1) f

let with_tracing f =
  Telemetry.reset_trace ();
  Telemetry.set_tracing true;
  Fun.protect ~finally:(fun () -> Telemetry.set_tracing false) f

(* ---- spans ---- *)

let test_span_nesting () =
  with_tracing @@ fun () ->
  let v =
    Telemetry.span ~cat:"outer" "a" (fun () ->
        Telemetry.span ~cat:"inner" "b" (fun () -> ());
        Telemetry.span ~cat:"inner" "c" (fun () -> 41) + 1)
  in
  Alcotest.(check int) "span returns value" 42 v;
  (match Telemetry.events () with
  | [ a; b; c ] ->
    (* sorted by start time: the parent opens before its children *)
    Alcotest.(check string) "parent first" "a" a.Telemetry.ev_name;
    Alcotest.(check string) "first child" "b" b.Telemetry.ev_name;
    Alcotest.(check string) "second child" "c" c.Telemetry.ev_name;
    let contains outer inner =
      outer.Telemetry.ev_ts_us <= inner.Telemetry.ev_ts_us
      && inner.Telemetry.ev_ts_us +. inner.Telemetry.ev_dur_us
         <= outer.Telemetry.ev_ts_us +. outer.Telemetry.ev_dur_us +. 1e-3
    in
    Alcotest.(check bool) "a contains b" true (contains a b);
    Alcotest.(check bool) "a contains c" true (contains a c);
    Alcotest.(check bool) "b before c" true (b.Telemetry.ev_ts_us <= c.Telemetry.ev_ts_us)
  | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs));
  Telemetry.reset_trace ()

let test_span_closes_on_exception () =
  with_tracing @@ fun () ->
  (try Telemetry.span "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "span recorded despite raise" 1 (List.length (Telemetry.events ()));
  Telemetry.reset_trace ()

let test_disabled_records_nothing () =
  Telemetry.reset_trace ();
  Telemetry.set_tracing false;
  Telemetry.span "ghost" (fun () -> ());
  Telemetry.emit_span ~name:"ghost2" ~t0:(Unix.gettimeofday ()) ~dur:0.001 ();
  Alcotest.(check int) "no events while disabled" 0 (List.length (Telemetry.events ()))

(* ---- Chrome trace JSON: parse it back ---- *)

let test_trace_json_well_formed () =
  with_tracing @@ fun () ->
  Telemetry.span ~cat:"fhe" ~args:[ ("k", "v\"quoted\"") ] "x" (fun () ->
      Telemetry.span "y" (fun () -> ()));
  let doc = Json.parse (Telemetry.trace_json ()) in
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.Arr evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check int) "two events" 2 (List.length events);
  List.iter
    (fun ev ->
      (match Json.member "ph" ev with
      | Some (Json.Str "X") -> ()
      | _ -> Alcotest.fail "ph must be X");
      (match Json.member "name" ev with
      | Some (Json.Str _) -> ()
      | _ -> Alcotest.fail "name must be a string");
      match (Json.member "ts" ev, Json.member "dur" ev, Json.member "tid" ev) with
      | Some (Json.Num _), Some (Json.Num _), Some (Json.Num _) -> ()
      | _ -> Alcotest.fail "ts/dur/tid must be numbers")
    events;
  (* the escaped attribute round-trips *)
  let has_arg =
    List.exists
      (fun ev ->
        match Json.member "args" ev with
        | Some args -> Json.member "k" args = Some (Json.Str "v\"quoted\"")
        | None -> false)
      events
  in
  Alcotest.(check bool) "args round-trip through escaping" true has_arg;
  Telemetry.reset_trace ()

(* ---- domain-safe counter merge ---- *)

let counted_work domains =
  with_domains domains @@ fun () ->
  Telemetry.reset_metrics ();
  let m = Telemetry.metric "test.merge" in
  Domain_pool.parallel_for 1000 (fun _ ->
      Telemetry.incr m;
      Telemetry.observe m 1.0);
  (Telemetry.count_of m, Telemetry.sum_of m)

let test_counter_merge_across_domains () =
  let c1, s1 = counted_work 1 in
  let c4, s4 = counted_work 4 in
  Alcotest.(check int) "count at 1 domain" 1000 c1;
  Alcotest.(check int) "count identical at 4 domains" c1 c4;
  (* integer-valued samples: the merged sum is exact in both layouts *)
  Alcotest.(check (float 0.0)) "sum bit-identical" s1 s4

let test_cost_facade_merge () =
  with_domains 4 @@ fun () ->
  Telemetry.reset_metrics ();
  Domain_pool.parallel_for 500 (fun _ -> Ace_fhe.Cost.count Ace_fhe.Cost.Rotate);
  Alcotest.(check int) "Cost counters survive multicore" 500
    (Ace_fhe.Cost.get_count Ace_fhe.Cost.Rotate);
  Ace_fhe.Cost.add_phase_time "conv" 0.25;
  Ace_fhe.Cost.add_phase_time "conv" 0.25;
  Alcotest.(check (float 1e-12)) "phase accumulation" 0.5 (Ace_fhe.Cost.phase_time "conv");
  Alcotest.(check bool) "phase_names lists conv" true
    (List.mem "conv" (Ace_fhe.Cost.phase_names ()));
  Telemetry.reset_metrics ()

(* ---- histogram quantiles ---- *)

let test_histogram_quantiles () =
  Telemetry.reset_metrics ();
  let m = Telemetry.metric "test.histo" in
  for i = 1 to 1000 do
    Telemetry.observe m (float_of_int i)
  done;
  let snap = Telemetry.snapshot () in
  let st =
    match Telemetry.find_stats snap "test.histo" with
    | Some s -> s
    | None -> Alcotest.fail "metric missing from snapshot"
  in
  Alcotest.(check int) "count" 1000 st.Telemetry.st_count;
  Alcotest.(check (float 0.0)) "sum" 500500.0 st.Telemetry.st_total;
  Alcotest.(check (float 0.0)) "min" 1.0 st.Telemetry.st_min;
  Alcotest.(check (float 0.0)) "max" 1000.0 st.Telemetry.st_max;
  (* reservoir of 512 over a uniform stream: generous sanity bands *)
  Alcotest.(check bool)
    (Printf.sprintf "p50 = %.0f in [350, 650]" st.Telemetry.st_p50)
    true
    (st.Telemetry.st_p50 >= 350.0 && st.Telemetry.st_p50 <= 650.0);
  Alcotest.(check bool)
    (Printf.sprintf "p99 = %.0f in [900, 1000]" st.Telemetry.st_p99)
    true
    (st.Telemetry.st_p99 >= 900.0 && st.Telemetry.st_p99 <= 1000.0);
  Alcotest.(check bool) "p50 <= p99" true (st.Telemetry.st_p50 <= st.Telemetry.st_p99);
  (* to_json parses back and carries the stats *)
  let doc = Json.parse (Telemetry.to_json ()) in
  (match Json.member "metrics" doc with
  | Some metrics -> (
    match Json.member "test.histo" metrics with
    | Some entry ->
      Alcotest.(check bool) "json count" true (Json.member "count" entry = Some (Json.Num 1000.0))
    | None -> Alcotest.fail "test.histo missing from to_json")
  | None -> Alcotest.fail "no metrics object in to_json");
  Telemetry.reset_metrics ()

(* ---- tracing on/off cannot change results ---- *)

let gemv () =
  let b = Builder.create "gemv" in
  Builder.input b "x" [| 16 |];
  Builder.init_normal b "w" [| 4; 16 |] ~seed:3 ~std:0.2;
  Builder.init_normal b "bias" [| 4 |] ~seed:4 ~std:0.05;
  Builder.node b ~op:"Gemm" ~inputs:[ "x"; "w"; "bias" ] "y";
  Builder.output b "y" [| 4 |];
  Builder.finish b

let run_inference () =
  let c = Pipeline.compile Pipeline.ace (Import.import (gemv ())) in
  let keys = Pipeline.make_keys c ~seed:5 in
  let rng = Rng.create 6 in
  let x = Array.init 16 (fun _ -> Rng.float rng 1.0 -. 0.5) in
  let ct = Pipeline.encrypt_input c keys ~seed:7 x in
  Pipeline.run_encrypted c keys ~seed:8 ct

let test_tracing_identical_ciphertexts () =
  let plain = run_inference () in
  let traced =
    with_tracing @@ fun () ->
    Telemetry.set_flight true;
    Fun.protect ~finally:(fun () -> Telemetry.set_flight false) run_inference
  in
  Alcotest.(check int) "size" (Fhe.Ciphertext.size plain) (Fhe.Ciphertext.size traced);
  Alcotest.(check (float 0.0))
    "scale" plain.Fhe.Ciphertext.ct_scale traced.Fhe.Ciphertext.ct_scale;
  Array.iteri
    (fun i p ->
      Alcotest.(check bool)
        (Printf.sprintf "poly %d bit-identical" i)
        true
        (Rns_poly.equal p traced.Fhe.Ciphertext.polys.(i)))
    plain.Fhe.Ciphertext.polys;
  Alcotest.(check bool) "traced run recorded spans" true (Telemetry.events () <> []);
  Telemetry.reset_trace ();
  Telemetry.reset_flight ()

(* Compiling stops at the CKKS function: POLY lowering and the C and
   weight exports run only through [Pipeline.emit_c] and the C backend. *)
let test_compile_records_no_export_spans () =
  let names =
    with_tracing @@ fun () ->
    ignore (Pipeline.compile Pipeline.ace (Import.import (gemv ())));
    List.map (fun e -> e.Telemetry.ev_name) (Telemetry.events ())
  in
  Telemetry.reset_trace ();
  Alcotest.(check bool) "compile.ckks recorded" true (List.mem "compile.ckks" names);
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " not recorded") false (List.mem n names))
    [ "compile.poly"; "compile.other" ]

(* ---- flight recorder: depth-10 tower ---- *)

let test_flight_recorder_tower () =
  let depth = 10 in
  let ctx = Param_select.execution_context ~depth ~slots:64 () in
  let keys = Fhe.Keys.generate ctx ~rng:(Rng.create 9) ~rotations:[] in
  let scale = Fhe.Context.scale ctx in
  let msg = Array.init (Fhe.Context.slots ctx) (fun i -> 0.5 +. (0.001 *. float_of_int i)) in
  Telemetry.reset_flight ();
  Telemetry.set_flight true;
  Fun.protect ~finally:(fun () -> Telemetry.set_flight false) @@ fun () ->
  let pt = Fhe.Encoder.encode ctx ~level:depth ~scale msg in
  let ct = ref (Fhe.Eval.encrypt keys ~rng:(Rng.create 10) pt) in
  for _ = 1 to depth do
    let l = Fhe.Ciphertext.level !ct in
    let ones = Array.make (Fhe.Context.slots ctx) 1.0 in
    let mask = Fhe.Encoder.encode ctx ~level:l ~scale ones in
    ct := Fhe.Eval.rescale (Fhe.Eval.mul_plain !ct mask)
  done;
  let records = Telemetry.flight_records () in
  (* encrypt + 10 * (mul_plain + rescale) *)
  Alcotest.(check int) "record count" (1 + (2 * depth)) (List.length records);
  (* the whole run is one op chain on a single ciphertext: the budget
     estimate must never increase (rescale trades modulus for scale
     exactly; mul_plain consumes scale bits) *)
  let rec check_monotone = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool)
        (Printf.sprintf "budget %s(%.1f) >= %s(%.1f)" a.Telemetry.fl_op a.Telemetry.fl_budget_bits
           b.Telemetry.fl_op b.Telemetry.fl_budget_bits)
        true
        (b.Telemetry.fl_budget_bits <= a.Telemetry.fl_budget_bits +. 1e-6);
      check_monotone rest
    | _ -> ()
  in
  check_monotone records;
  (* levels fall from depth to 0; limbs = level + 1 throughout *)
  let first = List.hd records and last = List.nth records (List.length records - 1) in
  Alcotest.(check int) "starts at the top level" depth first.Telemetry.fl_level;
  Alcotest.(check int) "ends at level 0" 0 last.Telemetry.fl_level;
  List.iter
    (fun r -> Alcotest.(check int) "limbs = level + 1" (r.Telemetry.fl_level + 1) r.Telemetry.fl_limbs)
    records;
  (* after each rescale the scale returns to ~ the context scale (primes
     are only approximately 2^scale_bits, so allow a small drift) *)
  Alcotest.(check bool)
    (Printf.sprintf "final scale %.3f bits vs context %.3f" last.Telemetry.fl_scale_bits
       (Float.log2 scale))
    true
    (abs_float (last.Telemetry.fl_scale_bits -. Float.log2 scale) < 1.0);
  Telemetry.reset_flight ()

(* ---- quantile sketch: accuracy, bounded memory, mergeability ---- *)

let exact_quantile sorted q =
  let n = Array.length sorted in
  let rank = int_of_float (ceil (q *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let check_quantile_bound name sketch sorted q =
  let est = Qsketch.quantile sketch q in
  let truth = exact_quantile sorted q in
  let bound = (Qsketch.relative_error *. truth) +. 1e-9 in
  Alcotest.(check bool)
    (Printf.sprintf "%s q%.3f: |%.6g - %.6g| <= %.2f%% rel" name q est truth
       (100.0 *. Qsketch.relative_error))
    true
    (abs_float (est -. truth) <= bound)

let test_qsketch_bounded_memory () =
  (* >= 10^6 samples through one estimator: state stays flat (O(1) per
     metric) and p50/p99 respect the documented relative-error bound. *)
  let n = 1_000_000 in
  let rng = Rng.create 0xacc in
  let q = Qsketch.create () in
  let samples = Array.init n (fun _ -> 1e-4 +. Rng.float rng 10.0) in
  Array.iter (Qsketch.add q) samples;
  let words_mid = Qsketch.live_words q in
  for _ = 1 to 100_000 do
    Qsketch.add q (1e-4 +. Rng.float rng 10.0)
  done;
  let words_end = Qsketch.live_words q in
  Alcotest.(check int) "live words flat after 100k more samples" words_mid words_end;
  Alcotest.(check bool)
    (Printf.sprintf "state small (%d words)" words_end)
    true (words_end < 4096);
  Alcotest.(check int) "count" (n + 100_000) (Qsketch.count q);
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  (* quantiles checked against the first n samples only: re-add the tail's
     effect by querying a fresh sketch of exactly those samples *)
  let q1 = Qsketch.create () in
  Array.iter (Qsketch.add q1) samples;
  List.iter (fun p -> check_quantile_bound "uniform-1e6" q1 sorted p) [ 0.5; 0.99; 0.999 ]

let distribution_samples kind n seed =
  let rng = Rng.create seed in
  Array.init n (fun i ->
      match kind with
      | `Uniform -> 0.5 +. Rng.float rng 99.5
      | `Lognormal -> Float.exp (Rng.gaussian rng 1.0 +. 1.5)
      | `Bimodal ->
        if i mod 2 = 0 then 1.0 +. Rng.float rng 0.5 else 900.0 +. Rng.float rng 200.0)

(* Bucket counts, count, min and max are exactly mergeable (integer sums
   and float min/max); the running [sum] is float addition, whose last
   ulp depends on accumulation order — strip it before the bit-for-bit
   comparison and check it separately to relative precision. *)
let json_sans_sum s =
  let find sub =
    let n = String.length sub and len = String.length s in
    let rec go i =
      if i + n > len then Alcotest.failf "sketch json lacks %s" sub
      else if String.sub s i n = sub then i
      else go (i + 1)
    in
    go 0
  in
  let a = find ",\"sum\":" and b = find ",\"min\":" in
  String.sub s 0 a ^ String.sub s b (String.length s - b)

let test_qsketch_sharded_merge () =
  (* Each distribution streamed round-robin into 1, 4 and 8 shard
     estimators; the merged result must match the single-estimator state
     bit-for-bit regardless of shard count or merge order, and merged
     p50/p99 must stay within the documented bound of the exact value. *)
  let n = 20_000 in
  List.iter
    (fun (name, kind, seed) ->
      let samples = distribution_samples kind n seed in
      let sorted = Array.copy samples in
      Array.sort compare sorted;
      let reference = Qsketch.create () in
      Array.iter (Qsketch.add reference) samples;
      List.iter
        (fun shards ->
          let qs = Array.init shards (fun _ -> Qsketch.create ()) in
          Array.iteri (fun i v -> Qsketch.add qs.(i mod shards) v) samples;
          let merge_in order =
            let dst = Qsketch.create () in
            List.iter (fun i -> Qsketch.merge dst qs.(i)) order;
            dst
          in
          let fwd = merge_in (List.init shards (fun i -> i)) in
          let rev = merge_in (List.rev (List.init shards (fun i -> i))) in
          Alcotest.(check string)
            (Printf.sprintf "%s x%d: merge order invariant (bit-for-bit)" name shards)
            (json_sans_sum (Qsketch.to_json fwd))
            (json_sans_sum (Qsketch.to_json rev));
          Alcotest.(check string)
            (Printf.sprintf "%s x%d: merged = unsharded (bit-for-bit)" name shards)
            (json_sans_sum (Qsketch.to_json reference))
            (json_sans_sum (Qsketch.to_json fwd));
          Alcotest.(check bool)
            (Printf.sprintf "%s x%d: sums agree to float precision" name shards)
            true
            (abs_float (Qsketch.sum fwd -. Qsketch.sum reference)
             <= 1e-9 *. abs_float (Qsketch.sum reference));
          List.iter
            (fun p -> check_quantile_bound (Printf.sprintf "%s x%d" name shards) fwd sorted p)
            [ 0.5; 0.99 ])
        [ 1; 4; 8 ])
    [ ("uniform", `Uniform, 11); ("lognormal", `Lognormal, 12); ("bimodal", `Bimodal, 13) ]

let test_qsketch_json_roundtrip () =
  let samples = distribution_samples `Lognormal 5000 77 in
  let q = Qsketch.create () in
  Array.iter (Qsketch.add q) samples;
  let q' = Qsketch.of_json (Json.parse (Qsketch.to_json q)) in
  Alcotest.(check string) "roundtrip bit-for-bit" (Qsketch.to_json q) (Qsketch.to_json q');
  Alcotest.(check int) "count preserved" (Qsketch.count q) (Qsketch.count q');
  Alcotest.(check (float 1e-9)) "p99 preserved"
    (Qsketch.quantile q 0.99) (Qsketch.quantile q' 0.99)

(* ---- windowed delta snapshots ---- *)

let test_delta_snapshot () =
  Telemetry.reset_metrics ();
  let m = Telemetry.metric "test.window" in
  let c = Telemetry.metric "test.window.count" in
  for i = 1 to 100 do
    Telemetry.observe m (float_of_int i);
    Telemetry.incr c
  done;
  let base = Telemetry.baseline () in
  for i = 101 to 200 do
    Telemetry.observe m (float_of_int i);
    Telemetry.incr c;
    Telemetry.incr c
  done;
  let win = Telemetry.snapshot_since base in
  let full = Telemetry.snapshot () in
  let st snap name =
    match Telemetry.find_stats snap name with
    | Some s -> s
    | None -> Alcotest.failf "%s missing from snapshot" name
  in
  let w = st win "test.window" and f = st full "test.window" in
  Alcotest.(check int) "window sees only post-baseline samples" 100 w.Telemetry.st_count;
  Alcotest.(check int) "full snapshot unaffected" 200 f.Telemetry.st_count;
  Alcotest.(check int) "counter delta" 200 (st win "test.window.count").Telemetry.st_count;
  (* the window is samples 101..200: its p50 must land near 150, far from
     the full stream's p50 near 100 *)
  Alcotest.(check bool)
    (Printf.sprintf "window p50 %.1f in [140, 160]" w.Telemetry.st_p50)
    true
    (w.Telemetry.st_p50 >= 140.0 && w.Telemetry.st_p50 <= 160.0);
  Alcotest.(check bool)
    (Printf.sprintf "window min %.1f ~ 101" w.Telemetry.st_min)
    true
    (abs_float (w.Telemetry.st_min -. 101.0) <= 101.0 *. Qsketch.relative_error +. 1e-9);
  Telemetry.reset_metrics ()

(* ---- JSONL metrics flush: lines parse and sketches re-merge ---- *)

let test_metrics_flush_jsonl () =
  let path = Filename.temp_file "ace_metrics" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) @@ fun () ->
  Telemetry.reset_metrics ();
  Telemetry.metrics_flush ~interval:10.0 ~path;
  Fun.protect ~finally:Telemetry.stop_metrics_flush @@ fun () ->
  let m = Telemetry.metric "test.flush" in
  for i = 1 to 50 do
    Telemetry.incr m;
    Telemetry.observe m (float_of_int i)
  done;
  Telemetry.flush_now ();
  for i = 51 to 80 do
    Telemetry.incr m;
    Telemetry.observe m (float_of_int i)
  done;
  Telemetry.flush_now ();
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  Alcotest.(check int) "two flushed windows" 2 (List.length lines);
  let merged = Qsketch.create () in
  let total = ref 0 in
  List.iter
    (fun line ->
      let doc = Json.parse line in
      (match Json.member "schema_version" doc with
      | Some (Json.Num v) -> Alcotest.(check int) "schema" Telemetry.schema_version (int_of_float v)
      | _ -> Alcotest.fail "no schema_version");
      match Json.member "metrics" doc with
      | Some metrics -> (
        match Json.member "test.flush" metrics with
        | Some entry ->
          (match Json.member "count" entry with
          | Some (Json.Num c) -> total := !total + int_of_float c
          | _ -> Alcotest.fail "no count");
          (match Json.member "sketch" entry with
          | Some sk -> Qsketch.merge merged (Qsketch.of_json sk)
          | None -> Alcotest.fail "no sketch")
        | None -> Alcotest.fail "test.flush missing from line")
      | None -> Alcotest.fail "no metrics object")
    lines;
  (* windows are disjoint: cross-process merge recovers the full stream *)
  Alcotest.(check int) "summed window counts" 80 !total;
  Alcotest.(check int) "merged sketch count" 80 (Qsketch.count merged);
  let sorted = Array.init 80 (fun i -> float_of_int (i + 1)) in
  check_quantile_bound "flush-merge" merged sorted 0.5;
  Telemetry.reset_metrics ()

(* ---- flight recorder through a lazy (degree-2) region ---- *)

let test_flight_lazy_region_monotone () =
  (* encrypt -> mul_raw (Cipher3) -> add -> mod_switch -> relinearize:
     with the s^2-term penalty charged to every degree-2 record AND the
     closing relin, the budget estimate must be monotone non-increasing
     through the whole region (the old recorder jumped UP at the relin,
     hiding the tensor product's true headroom cost). *)
  let depth = 4 in
  let ctx = Param_select.execution_context ~depth ~slots:64 () in
  let keys = Fhe.Keys.generate ctx ~rng:(Rng.create 21) ~rotations:[] in
  let scale = Fhe.Context.scale ctx in
  let msg = Array.init (Fhe.Context.slots ctx) (fun i -> 0.3 +. (0.002 *. float_of_int i)) in
  Telemetry.reset_flight ();
  Telemetry.set_flight true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_flight false;
      Telemetry.reset_flight ())
  @@ fun () ->
  let pt = Fhe.Encoder.encode ctx ~level:depth ~scale msg in
  let a = Fhe.Eval.encrypt keys ~rng:(Rng.create 22) pt in
  let b = Fhe.Eval.encrypt keys ~rng:(Rng.create 23) pt in
  let p = Fhe.Eval.mul_raw a b in
  let s = Fhe.Eval.add p p in
  let t = Fhe.Eval.mod_switch s in
  let r = Fhe.Eval.relinearize keys t in
  ignore (Fhe.Eval.rescale r);
  let records = Telemetry.flight_records () in
  (* encrypt x2, mul, add, mod_switch, relinearize, rescale *)
  Alcotest.(check int) "record count" 7 (List.length records);
  let by_op op = List.find (fun r -> r.Telemetry.fl_op = op) records in
  List.iter
    (fun op ->
      Alcotest.(check int) (op ^ " recorded as degree 2") 2 (by_op op).Telemetry.fl_degree)
    [ "mul"; "add"; "mod_switch" ];
  Alcotest.(check int) "relin result is degree 1" 1 (by_op "relinearize").Telemetry.fl_degree;
  (* monotone through the region INCLUDING the closing relin (the old
     estimate bounced back up there); the rescale after it re-baselines
     and is deliberately outside the checked window *)
  let region =
    List.filter (fun r -> r.Telemetry.fl_op <> "rescale" && r.Telemetry.fl_op <> "encrypt") records
  in
  let rec monotone = function
    | x :: (y :: _ as rest) ->
      Alcotest.(check bool)
        (Printf.sprintf "budget %s(%.2f) >= %s(%.2f)" x.Telemetry.fl_op x.Telemetry.fl_budget_bits
           y.Telemetry.fl_op y.Telemetry.fl_budget_bits)
        true
        (y.Telemetry.fl_budget_bits <= x.Telemetry.fl_budget_bits +. 1e-6);
      monotone rest
    | _ -> ()
  in
  monotone region;
  (* the penalty is visible: the tensor product loses strictly more than
     the doubled scale alone would explain *)
  let enc = by_op "encrypt" and mul = by_op "mul" in
  let scale_loss = mul.Telemetry.fl_scale_bits -. enc.Telemetry.fl_scale_bits in
  Alcotest.(check bool) "mul charged beyond its scale growth" true
    (enc.Telemetry.fl_budget_bits -. mul.Telemetry.fl_budget_bits > scale_loss +. 1.0)

(* ---- per-layer debug runner ---- *)

let test_debug_runner_layers () =
  let c = Pipeline.compile Pipeline.ace (Import.import (gemv ())) in
  let keys = Pipeline.make_keys c ~seed:5 in
  let rng = Rng.create 6 in
  let x = Array.init 16 (fun _ -> Rng.float rng 1.0 -. 0.5) in
  let records = Ace_driver.Debug_runner.run_layers c keys ~seed:7 x in
  Alcotest.(check bool) "records produced" true (records <> []);
  List.iter
    (fun r ->
      let open Ace_driver.Debug_runner in
      Alcotest.(check bool)
        (Printf.sprintf "node %%%d (%s) error %.3e small" r.lr_id r.lr_op r.lr_actual_err)
        true (r.lr_actual_err < 1e-2);
      Alcotest.(check bool) "positive budget" true (r.lr_budget_bits > 0.0))
    records

let () =
  Alcotest.run "telemetry"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting and ordering" `Quick test_span_nesting;
          Alcotest.test_case "closes on exception" `Quick test_span_closes_on_exception;
          Alcotest.test_case "disabled records nothing" `Quick test_disabled_records_nothing;
          Alcotest.test_case "chrome JSON parses back" `Quick test_trace_json_well_formed;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "merge 1 vs 4 domains" `Quick test_counter_merge_across_domains;
          Alcotest.test_case "cost facade multicore" `Quick test_cost_facade_merge;
          Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "delta snapshot window" `Quick test_delta_snapshot;
          Alcotest.test_case "JSONL flush re-merges" `Quick test_metrics_flush_jsonl;
        ] );
      ( "qsketch",
        [
          Alcotest.test_case "bounded memory at 1e6 samples" `Slow test_qsketch_bounded_memory;
          Alcotest.test_case "sharded merge: 3 distributions x {1,4,8}" `Quick
            test_qsketch_sharded_merge;
          Alcotest.test_case "json roundtrip" `Quick test_qsketch_json_roundtrip;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "tracing on/off bit-identical" `Quick
            test_tracing_identical_ciphertexts;
          Alcotest.test_case "per-layer debug runner" `Quick test_debug_runner_layers;
          Alcotest.test_case "compile records no POLY/weights span" `Quick
            test_compile_records_no_export_spans;
        ] );
      ( "flight",
        [
          Alcotest.test_case "depth-10 tower monotone budget" `Quick test_flight_recorder_tower;
          Alcotest.test_case "lazy region monotone incl. closing relin" `Quick
            test_flight_lazy_region_monotone;
        ] );
    ]
