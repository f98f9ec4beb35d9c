(* Benchmark harness: regenerates every quantitative table and figure of
   the paper's evaluation (Section 6) at the documented simulation scale.

     dune exec bench/main.exe                 -- compact sweep of everything
     dune exec bench/main.exe -- fig5         -- compile times + breakdown
     dune exec bench/main.exe -- fig6         -- ACE vs Expert inference
     dune exec bench/main.exe -- fig6-quick   -- two models only
     dune exec bench/main.exe -- fig7         -- memory / evaluation keys
     dune exec bench/main.exe -- table8       -- LoC breakdown of this repo
     dune exec bench/main.exe -- table10      -- selected security parameters
     dune exec bench/main.exe -- table11 -n K -- accuracy under encryption
     dune exec bench/main.exe -- micro        -- Bechamel micro-benchmarks
     dune exec bench/main.exe -- batch        -- slot-batching k-sweep + complex packing
     dune exec bench/main.exe -- serve        -- serving throughput vs concurrent clients

   Expected shapes (EXPERIMENTS.md records measured numbers):
     fig5  : seconds per model; the weight-table export ("Others")
             dominates the breakdown
     fig6  : ACE beats Expert overall, on Conv, and on ReLU; bootstrap is
             additionally compared per-operation (recryption-oracle
             substitution, DESIGN.md)
     fig7  : ACE cuts evaluation-key memory by >80%
     table10: identical parameter rows across models, security-driven N
     table11: encrypted inference preserves cleartext predictions *)

module Pipeline = Ace_driver.Pipeline
module Stats = Ace_driver.Stats
module Resnet = Ace_models.Resnet
module Dataset = Ace_models.Dataset
module Keygen_plan = Ace_ckks_ir.Keygen_plan
module Param_select = Ace_ckks_ir.Param_select
module Cost = Ace_fhe.Cost
module Telemetry = Ace_telemetry.Telemetry
module Rng = Ace_util.Rng
open Ace_ir

let models = Resnet.all_paper_models

let compile_cache : (string, Pipeline.compiled) Hashtbl.t = Hashtbl.create 16

let compiled strategy spec =
  let key = strategy.Pipeline.strategy_name ^ "/" ^ spec.Resnet.model_name in
  match Hashtbl.find_opt compile_cache key with
  | Some c -> c
  | None ->
    let c = Pipeline.compile strategy (Resnet.build_calibrated spec) in
    Hashtbl.add compile_cache key c;
    c

(* Keys are regenerated per use: an expert keyset for one model runs to
   gigabytes, so caching six of them would exhaust memory. *)
let keys_for strategy spec = Pipeline.make_keys (compiled strategy spec) ~seed:77

let hr () = print_endline (String.make 78 '-')

(* ---------- Figure 5: compile times with per-IR breakdown ---------- *)

let fig5 () =
  print_endline "[Figure 5] ANT-ACE compile times (seconds; breakdown per IR level)";
  hr ();
  Printf.printf "%-10s %8s | %6s %6s %6s %6s %6s %6s\n" "model" "total" "NN" "VECTOR" "SIHE"
    "CKKS" "POLY" "Others";
  List.iter
    (fun spec ->
      (* The paper's compile time includes writing the C program and its
         weight table; here both are exports, timed explicitly. *)
      let c, t_compile =
        Telemetry.timed "fig5.compile" (fun () ->
            Pipeline.compile Pipeline.ace (Resnet.build_calibrated spec))
      in
      let _, t_poly = Telemetry.timed "fig5.emit_c" (fun () -> Pipeline.emit_c c) in
      let _, t_other =
        Telemetry.timed "fig5.weights" (fun () ->
            Ace_codegen.C_backend.emit_weights_file c.Pipeline.ckks)
      in
      let total = t_compile +. t_poly +. t_other in
      let level l = List.assoc l c.Pipeline.level_seconds in
      let pct s = 100.0 *. s /. total in
      Printf.printf "%-10s %7.2fs | %5.1f%% %5.1f%% %5.1f%% %5.1f%% %5.1f%% %5.1f%%\n%!"
        spec.Resnet.model_name total (pct (level Level.Nn)) (pct (level Level.Vector))
        (pct (level Level.Sihe)) (pct (level Level.Ckks)) (pct t_poly) (pct t_other);
      Hashtbl.replace compile_cache ("ACE/" ^ spec.Resnet.model_name) c)
    models

(* ---------- Figure 6: per-image inference, ACE vs Expert ---------- *)

type phase_row = {
  total : float;
  conv : float;
  boot : float;
  relu : float;
  boots : int;
  avg_target : float;
}

(* Phase totals come from the telemetry snapshot (merged across domains),
   not per-run gettimeofday bookkeeping: the same numbers the --json
   artifact embeds. *)
let phase_total snap name =
  match Telemetry.find_stats snap ("phase." ^ name) with
  | Some s -> s.Telemetry.st_total
  | None -> 0.0

let run_one strategy spec image =
  let c = compiled strategy spec in
  let keys = keys_for strategy spec in
  Telemetry.reset_metrics ();
  let t0 = Unix.gettimeofday () in
  let _ = Pipeline.infer_encrypted c keys ~seed:55 image in
  let total = Unix.gettimeofday () -. t0 in
  let snap = Telemetry.snapshot () in
  let conv = phase_total snap "conv" +. phase_total snap "gemm" in
  let boot = phase_total snap "bootstrap" in
  let relu = phase_total snap "relu" in
  let boots = Cost.get_count Cost.Bootstrap in
  let targets =
    Irfunc.fold c.Pipeline.ckks ~init:[] ~f:(fun acc n ->
        match n.Irfunc.op with Op.C_bootstrap t -> t :: acc | _ -> acc)
  in
  let avg_target =
    if targets = [] then 0.0
    else float_of_int (List.fold_left ( + ) 0 targets) /. float_of_int (List.length targets)
  in
  { total; conv; boot; relu; boots; avg_target }

let fig6 ?(specs = models) () =
  print_endline
    "[Figure 6] Per-image encrypted inference (seconds): ACE / Expert";
  print_endline
    "  Bootstrap runs through the recryption oracle (DESIGN.md); its per-operation";
  print_endline "  cost scales with the target level, the compiler decision under test.";
  hr ();
  Printf.printf "%-10s | %15s %15s %15s %15s | %11s\n" "model" "Conv+Gemm" "Bootstrap" "ReLU"
    "Total" "boot lvl";
  let sums = ref (0.0, 0.0) in
  List.iter
    (fun spec ->
      let rng = Rng.create 1001 in
      let dims = 3 * spec.Resnet.image_size * spec.Resnet.image_size in
      let image = Array.init dims (fun _ -> Rng.float rng 1.0) in
      let a = run_one Pipeline.ace spec image in
      let e = run_one Pipeline.expert spec image in
      let pair x y = Printf.sprintf "%6.1f/%6.1f" x y in
      Printf.printf "%-10s | %15s %15s %15s %15s | %4.1f/%4.1f\n%!" spec.Resnet.model_name
        (pair a.conv e.conv) (pair a.boot e.boot) (pair a.relu e.relu) (pair a.total e.total)
        a.avg_target e.avg_target;
      Printf.printf "%-10s |   bootstraps %d/%d, per-bootstrap %.0f/%.0f ms\n%!" ""
        a.boots e.boots
        (1000.0 *. a.boot /. float_of_int (max 1 a.boots))
        (1000.0 *. e.boot /. float_of_int (max 1 e.boots));
      let sa, se = !sums in
      sums := (sa +. a.total, se +. e.total))
    specs;
  hr ();
  let sa, se = !sums in
  Printf.printf "Overall speedup ACE vs Expert: %.2fx (paper reports 2.24x)\n" (se /. sa)

(* ---------- Figure 7: memory, evaluation keys highlighted ---------- *)

let fig7 () =
  print_endline "[Figure 7] Memory (MB): ACE / Expert, with the CKKS-keys share";
  hr ();
  Printf.printf "%-10s | %8s %8s | %8s %8s | %6s %6s | %8s\n" "model" "keysA" "totalA" "keysE"
    "totalE" "#rotA" "#rotE" "key cut";
  List.iter
    (fun spec ->
      let mb x = float_of_int x /. 1048576.0 in
      let measure strategy =
        let c = compiled strategy spec in
        let keys = Keygen_plan.evaluation_key_bytes c.Pipeline.context c.Pipeline.key_plan in
        let n = Ace_fhe.Context.ring_degree c.Pipeline.context in
        let limbs = Ace_fhe.Context.max_level c.Pipeline.context + 1 in
        (* Working set: keys + a conv's live ciphertexts + cleartext
           weights/masks kept for on-demand encoding. *)
        let cts = 8 * Cost.ciphertext_bytes ~ring_degree:n ~limbs in
        let weights =
          8
          * List.fold_left
              (fun acc name -> acc + Array.length (Irfunc.const c.Pipeline.ckks name))
              0 (Irfunc.const_names c.Pipeline.ckks)
        in
        (keys, keys + cts + weights, Keygen_plan.key_count c.Pipeline.key_plan)
      in
      let ka, ta, ra = measure Pipeline.ace in
      let ke, te, re = measure Pipeline.expert in
      Printf.printf "%-10s | %7.1fM %7.1fM | %7.1fM %7.1fM | %6d %6d | %7.1f%%\n%!"
        spec.Resnet.model_name (mb ka) (mb ta) (mb ke) (mb te) ra re
        (100.0 *. (1.0 -. (float_of_int ka /. float_of_int ke))))
    models;
  hr ();
  print_endline "(paper: ACE cuts key memory by 84.8% on average via dataflow key pruning)"

(* ---------- Table 8: component LoC breakdown of this repository ---------- *)

let count_dir dir =
  let code = ref 0 and comments = ref 0 in
  let rec walk d =
    Array.iter
      (fun entry ->
        let path = Filename.concat d entry in
        if Sys.is_directory path then walk path
        else if Filename.check_suffix entry ".ml" || Filename.check_suffix entry ".mli" then begin
          let ic = open_in path in
          let in_comment = ref false in
          (try
             while true do
               let line = String.trim (input_line ic) in
               if line <> "" then begin
                 let opens = String.length line >= 2 && String.sub line 0 2 = "(*" in
                 let closes =
                   String.length line >= 2 && String.sub line (String.length line - 2) 2 = "*)"
                 in
                 if !in_comment || opens then incr comments else incr code;
                 if opens && not closes then in_comment := true;
                 if closes then in_comment := false
               end
             done
           with End_of_file -> close_in ic)
        end)
      (Sys.readdir d)
  in
  if Sys.file_exists dir then walk dir;
  (!code, !comments)

let table8 () =
  print_endline "[Table 8] Component breakdown of this reproduction (non-empty LoC)";
  hr ();
  Printf.printf "%-30s %8s %10s\n" "component" "code" "comments";
  let total_c = ref 0 and total_m = ref 0 in
  List.iter
    (fun (label, dir) ->
      let c, m = count_dir dir in
      total_c := !total_c + c;
      total_m := !total_m + m;
      Printf.printf "%-30s %8d %10d\n" label c m)
    [
      ("Infrastructure (ir)", "lib/ir");
      ("Infrastructure (util)", "lib/util");
      ("ONNX frontend", "lib/onnx");
      ("NN IR", "lib/nn");
      ("VECTOR IR", "lib/vector");
      ("SIHE IR", "lib/sihe");
      ("Approximation (Remez/sign)", "lib/approx");
      ("CKKS IR", "lib/ckks_ir");
      ("POLY IR", "lib/poly_ir");
      ("Code generation", "lib/codegen");
      ("Run-time library (ACEfhe)", "lib/fhe");
      ("RNS substrate", "lib/rns");
      ("Driver", "lib/driver");
      ("Model zoo / datasets", "lib/models");
      ("Expert baseline", "lib/expert");
    ];
  let tests_c, tests_m = count_dir "test" in
  let bench_c, bench_m = count_dir "bench" in
  let ex_c, ex_m = count_dir "examples" in
  Printf.printf "%-30s %8d %10d\n" "Tests" tests_c tests_m;
  Printf.printf "%-30s %8d %10d\n" "Benches + examples" (bench_c + ex_c) (bench_m + ex_m);
  Printf.printf "%-30s %8d %10d\n" "Total (libraries)" !total_c !total_m

(* ---------- Table 10: automatically selected security parameters ---------- *)

let table10 () =
  print_endline "[Table 10] Security parameters selected for CKKS (128-bit target)";
  print_endline "  (the selection is what a deployment ships; benches execute at Toy scale)";
  hr ();
  Printf.printf "%-10s | %8s %9s %11s %8s %10s\n" "model" "log2(N)" "log2(Q0)" "log2(Delta)"
    "log2(Q)" "bound";
  List.iter
    (fun spec ->
      let c = compiled Pipeline.ace spec in
      let slots = Ace_fhe.Context.slots c.Pipeline.context in
      let sel =
        Param_select.select
          {
            Param_select.scale_bits = 26;
            q0_bits = 29;
            special_bits = 29;
            depth = Pipeline.ace.Pipeline.chain_depth;
            simd_slots = slots;
            security = Ace_fhe.Security.Bits128;
          }
      in
      Printf.printf "%-10s | %8d %9d %11d %8d %10s\n%!" spec.Resnet.model_name
        sel.Param_select.log2_n sel.Param_select.sel_q0_bits sel.Param_select.sel_scale_bits
        sel.Param_select.log2_q
        (if sel.Param_select.driven_by_security then "security" else "SIMD"))
    models

(* ---------- Table 11: inference accuracy under encryption ---------- *)

let table11 ?(n = 4) ?(clear_n = 256) () =
  Printf.printf
    "[Table 11] Accuracy: unencrypted vs encrypted (%d images encrypted, %d clear)\n" n clear_n;
  print_endline "  Synthetic prototype dataset (DESIGN.md); agreement = argmax match between";
  print_endline "  cleartext and encrypted inference on the same model (the paper's criterion).";
  hr ();
  Printf.printf "%-10s | %11s %10s %10s %8s\n" "model" "unencrypted" "encrypted" "agreement"
    "max err";
  List.iter
    (fun spec ->
      let nn = Resnet.build_calibrated spec in
      let data =
        Dataset.generate ~classes:spec.Resnet.classes ~image_size:spec.Resnet.image_size
          ~count:(max n clear_n) ~noise:0.08 ~seed:(500 + spec.Resnet.seed)
      in
      (* Labels induced by the model's own decision on each class's
         noise-free prototype: accuracy then measures robustness of those
         decisions to sample noise, identically defined for the cleartext
         and encrypted sides. *)
      let labels = Dataset.model_labels (Ace_nn.Nn_interp.run1 nn) data in
      let clear_hits = ref 0 in
      for i = 0 to clear_n - 1 do
        let logits = Ace_nn.Nn_interp.run1 nn data.Dataset.images.(i) in
        if Dataset.argmax logits = labels.(i) then incr clear_hits
      done;
      let c = compiled Pipeline.ace spec in
      let keys = keys_for Pipeline.ace spec in
      let enc_hits = ref 0 and agree = ref 0 and worst = ref 0.0 in
      for i = 0 to n - 1 do
        let img = data.Dataset.images.(i) in
        let clear = Ace_nn.Nn_interp.run1 nn img in
        let enc = Pipeline.infer_encrypted c keys ~seed:(900 + i) img in
        if Dataset.argmax enc = labels.(i) then incr enc_hits;
        if Dataset.argmax enc = Dataset.argmax clear then incr agree;
        Array.iteri (fun j v -> worst := max !worst (abs_float (v -. clear.(j)))) enc
      done;
      Printf.printf "%-10s | %10.1f%% %9.1f%% %9.1f%% %8.4f\n%!" spec.Resnet.model_name
        (100.0 *. float_of_int !clear_hits /. float_of_int clear_n)
        (100.0 *. float_of_int !enc_hits /. float_of_int n)
        (100.0 *. float_of_int !agree /. float_of_int n)
        !worst)
    models

(* ---------- Ablation: isolate each design choice (DESIGN.md) ---------- *)

let ablation () =
  print_endline "[Ablation] One optimization disabled at a time (ResNet-8 mini, one image)";
  hr ();
  let spec =
    { Resnet.resnet20 with Resnet.model_name = "resnet8-abl"; depth = 8 }
  in
  let variants =
    [
      Pipeline.ace;
      { Pipeline.ace with Pipeline.strategy_name = "no-conv-regroup"; conv_regroup = false };
      { Pipeline.ace with Pipeline.strategy_name = "no-gemm-bsgs"; gemm_bsgs = false };
      { Pipeline.ace with Pipeline.strategy_name = "no-lazy-rescale"; lazy_rescale = false };
      { Pipeline.ace with Pipeline.strategy_name = "no-min-bootstrap"; min_level_bootstrap = false };
      { Pipeline.library_default with Pipeline.strategy_name = "pow2-keys" };
      Pipeline.expert;
    ]
  in
  Printf.printf "%-18s | %8s %8s %8s %8s %8s | %8s\n" "variant" "time(s)" "rots" "rescales"
    "boots" "keys" "max err";
  let nn = Resnet.build_calibrated spec in
  let rng = Rng.create 4242 in
  let image = Array.init 192 (fun _ -> Rng.float rng 1.0) in
  let expect = Ace_nn.Nn_interp.run1 nn image in
  List.iter
    (fun strategy ->
      let c = Pipeline.compile strategy nn in
      let keys = Pipeline.make_keys c ~seed:9 in
      let s = Stats.of_compiled c in
      Cost.reset ();
      let t0 = Unix.gettimeofday () in
      let got = Pipeline.infer_encrypted c keys ~seed:10 image in
      let dt = Unix.gettimeofday () -. t0 in
      let err = ref 0.0 in
      Array.iteri (fun i v -> err := max !err (abs_float (v -. expect.(i)))) got;
      Printf.printf "%-18s | %8.1f %8d %8d %8d %8d | %8.4f\n%!"
        strategy.Pipeline.strategy_name dt s.Stats.rotations s.Stats.rescales s.Stats.bootstraps
        (Keygen_plan.key_count c.Pipeline.key_plan)
        !err)
    variants

(* ---------- Bechamel micro-benchmarks (one Test.make per workload) ---------- *)

let micro () =
  let open Bechamel in
  let ctx = Param_select.execution_context ~depth:10 ~slots:1024 () in
  let keys = Ace_fhe.Keys.generate ctx ~rng:(Rng.create 9) ~rotations:[ 1; 7 ] in
  let msg = Array.init (Ace_fhe.Context.slots ctx) (fun i -> float_of_int (i mod 5) /. 5.0) in
  let pt = Ace_fhe.Encoder.encode ctx ~level:10 ~scale:(Ace_fhe.Context.scale ctx) msg in
  let ct = Ace_fhe.Eval.encrypt keys ~rng:(Rng.create 10) pt in
  let gemv () =
    let b = Ace_onnx.Builder.create "gemv" in
    Ace_onnx.Builder.input b "x" [| 32 |];
    Ace_onnx.Builder.init_normal b "w" [| 10; 32 |] ~seed:3 ~std:0.15;
    Ace_onnx.Builder.init_normal b "bias" [| 10 |] ~seed:4 ~std:0.05;
    Ace_onnx.Builder.node b ~op:"Gemm" ~inputs:[ "x"; "w"; "bias" ] "y";
    Ace_onnx.Builder.output b "y" [| 10 |];
    Ace_nn.Import.import (Ace_onnx.Builder.finish b)
  in
  let tests =
    Test.make_grouped ~name:"ace"
      [
        Test.make ~name:"fig5.compile-gemv"
          (Staged.stage (fun () -> ignore (Pipeline.compile Pipeline.ace (gemv ()))));
        Test.make ~name:"fig6.rotate" (Staged.stage (fun () -> ignore (Ace_fhe.Eval.rotate keys ct 1)));
        Test.make ~name:"fig6.mul-relin" (Staged.stage (fun () -> ignore (Ace_fhe.Eval.mul keys ct ct)));
        Test.make ~name:"fig6.mul-plain" (Staged.stage (fun () -> ignore (Ace_fhe.Eval.mul_plain ct pt)));
        Test.make ~name:"fig6.rescale"
          (Staged.stage (fun () -> ignore (Ace_fhe.Eval.rescale (Ace_fhe.Eval.mul_plain ct pt))));
        Test.make ~name:"fig6.bootstrap-refresh"
          (Staged.stage (fun () ->
               ignore (Ace_fhe.Bootstrap.refresh_impl keys ~seed:3 ~ordinal:0 ~target_level:4 ct)));
        Test.make ~name:"table11.encode-decode"
          (Staged.stage (fun () -> ignore (Ace_fhe.Encoder.decode ctx pt)));
      ]
  in
  print_endline "[Bechamel] runtime micro-benchmarks backing the figure harnesses";
  hr ();
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols (Toolkit.Instance.monotonic_clock) raw in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "%-30s %14.0f ns/op\n" name est
      | _ -> Printf.printf "%-30s (no estimate)\n" name)
    results

(* ---------- PR7: cross-request slot batching + complex packing ---------- *)

(* One conv net, ONE execution context sized for the largest batch factor,
   one compiled schedule per k: the homomorphic op multiset is asserted
   identical for every k (batching changes only mask contents), so the
   amortized per-request latency must fall near-linearly in k. Per-request
   outputs at k=8 are asserted against unbatched encrypted runs — the
   throughput may not be bought with wrong answers. The complex-packing
   pair measures requests/s on a pack-friendly (rotation-free) program
   with the pass off and on: two real streams per slot double the
   requests per ciphertext for the same schedule. *)

let make_batch_bench_nn () =
  let f =
    Irfunc.create ~name:"batchnet" ~level:Level.Nn
      ~params:[ ("x", Types.Tensor [| 2; 4; 4 |]) ]
  in
  let x = Irfunc.param f 0 in
  let wname =
    Irfunc.fresh_const f ~prefix:"w" ~dims:[| 4; 2; 3; 3 |]
      (Array.init (4 * 2 * 3 * 3) (fun i -> 0.05 *. float_of_int ((i mod 7) - 3)))
  in
  let bname = Irfunc.fresh_const f ~prefix:"b" [| 0.1; -0.2; 0.05; 0.0 |] in
  let w = Irfunc.add f (Op.Weight wname) [||] (Types.Tensor [| 4; 2; 3; 3 |]) in
  let b = Irfunc.add f (Op.Weight bname) [||] (Types.Tensor [| 4 |]) in
  let conv =
    Irfunc.add f
      (Op.Nn
         (Op.Conv { Op.out_channels = 4; in_channels = 2; kernel = 3; stride = 1; pad = 1 }))
      [| x; w; b |]
      (Types.Tensor [| 4; 4; 4 |])
  in
  let relu = Irfunc.add f (Op.Nn Op.Relu) [| conv |] (Types.Tensor [| 4; 4; 4 |]) in
  let gap = Irfunc.add f (Op.Nn Op.Global_average_pool) [| relu |] (Types.Tensor [| 4 |]) in
  let gw =
    Irfunc.fresh_const f ~prefix:"gw" ~dims:[| 3; 4 |]
      (Array.init 12 (fun i -> 0.3 *. float_of_int ((i mod 5) - 2)))
  in
  let gb = Irfunc.fresh_const f ~prefix:"gb" [| 0.01; 0.02; -0.01 |] in
  let wg = Irfunc.add f (Op.Weight gw) [||] (Types.Tensor [| 3; 4 |]) in
  let bg = Irfunc.add f (Op.Weight gb) [||] (Types.Tensor [| 3 |]) in
  let gemm =
    Irfunc.add f (Op.Nn (Op.Gemm { Op.rows = 3; cols = 4 })) [| gap; wg; bg |]
      (Types.Tensor [| 3 |])
  in
  Irfunc.set_returns f [ gemm ];
  Verify.verify f;
  f

let make_lin_bench_nn ~h ~w () =
  let f =
    Irfunc.create ~name:"lin" ~level:Level.Nn ~params:[ ("x", Types.Tensor [| 1; h; w |]) ]
  in
  let x = Irfunc.param f 0 in
  let wname = Irfunc.fresh_const f ~prefix:"w" ~dims:[| 1; 1; 1; 1 |] [| 0.7 |] in
  let bname = Irfunc.fresh_const f ~prefix:"b" [| 0.25 |] in
  let wt = Irfunc.add f (Op.Weight wname) [||] (Types.Tensor [| 1; 1; 1; 1 |]) in
  let b = Irfunc.add f (Op.Weight bname) [||] (Types.Tensor [| 1 |]) in
  let conv =
    Irfunc.add f
      (Op.Nn
         (Op.Conv { Op.out_channels = 1; in_channels = 1; kernel = 1; stride = 1; pad = 0 }))
      [| x; wt; b |]
      (Types.Tensor [| 1; h; w |])
  in
  Irfunc.set_returns f [ conv ];
  Verify.verify f;
  f

(* Op multiset by category ("CKKS.rotate[5]" and "[3]" are one category). *)
let op_signature c =
  let h = Hashtbl.create 16 in
  Irfunc.iter c.Pipeline.ckks (fun n ->
      let full = Op.name n.Irfunc.op in
      let key =
        match String.index_opt full '[' with Some i -> String.sub full 0 i | None -> full
      in
      Hashtbl.replace h key (1 + Option.value ~default:0 (Hashtbl.find_opt h key)));
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [])

let batch_bench () =
  let time f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  print_endline "[Batch] k requests per ciphertext: shared context, one schedule";
  hr ();
  let nn = make_batch_bench_nn () in
  let kmax = 16 in
  let slots = Pipeline.slots_needed nn * kmax in
  let ctx =
    Param_select.execution_context ~depth:Pipeline.ace.Pipeline.chain_depth ~slots ()
  in
  let input r = Array.init 32 (fun i -> 0.3 *. sin (float_of_int (i + (7 * r)))) in
  let reps = 3 in
  let c1 = Pipeline.compile ~context:ctx ~batch:1 Pipeline.ace nn in
  let keys1 = Pipeline.make_keys c1 ~seed:77 in
  let sig1 = op_signature c1 in
  let op_invariant = ref true in
  let rows =
    List.map
      (fun k ->
        let c = if k = 1 then c1 else Pipeline.compile ~context:ctx ~batch:k Pipeline.ace nn in
        if op_signature c <> sig1 then op_invariant := false;
        let keys = if k = 1 then keys1 else Pipeline.make_keys c ~seed:77 in
        let reqs = Array.init k input in
        let out = ref [||] in
        let (), dt =
          time (fun () ->
              for _ = 1 to reps do
                out := Pipeline.infer_encrypted_batch c keys ~seed:55 reqs
              done)
        in
        let dt = dt /. float_of_int reps in
        Printf.printf "batch k=%-2d  %7.3fs  %8.4fs/request  %5.1f%% of slots carrying data\n%!"
          k dt
          (dt /. float_of_int k)
          (100.0 *. (Stats.of_compiled c).Stats.slot_utilization);
        (k, dt, !out))
      [ 1; 2; 4; 8; kmax ]
  in
  (* accuracy: every k=8 request against its own unbatched encrypted run *)
  let _, _, out8 = List.find (fun (k, _, _) -> k = 8) rows in
  let worst = ref 0.0 in
  Array.iteri
    (fun r img ->
      let solo = Pipeline.infer_encrypted c1 keys1 ~seed:55 img in
      Array.iteri (fun i v -> worst := max !worst (abs_float (v -. out8.(r).(i)))) solo)
    (Array.init 8 input);
  let outputs_ok = !worst < 1e-2 in
  let t_of k =
    let _, t, _ = List.find (fun (k', _, _) -> k' = k) rows in
    t
  in
  let ratio = t_of 8 /. 8.0 /. t_of 1 in
  Printf.printf "k=8: worst |batched - solo| = %.2e; per-request %.3fx of k=1 (bound 0.25)%s\n%!"
    !worst ratio
    (if op_invariant.contents && outputs_ok && ratio <= 0.25 then "" else "  <-- FAIL");
  (* complex packing: two real streams per slot on a rotation-free program *)
  let lin = make_lin_bench_nn ~h:8 ~w:8 () in
  let lctx =
    Param_select.execution_context ~depth:Pipeline.ace.Pipeline.chain_depth
      ~slots:(Pipeline.slots_needed lin * 8) ()
  in
  let cplx_pair =
    List.map
      (fun complex ->
        let c = Pipeline.compile ~context:lctx ~batch:8 ~complex Pipeline.ace lin in
        let keys = Pipeline.make_keys c ~seed:77 in
        let n = Pipeline.requests_per_ct c in
        let reqs =
          Array.init n (fun r -> Array.init 64 (fun i -> 0.4 *. cos (float_of_int (i + r))))
        in
        let (), dt =
          time (fun () ->
              for _ = 1 to reps do
                ignore (Pipeline.infer_encrypted_batch c keys ~seed:55 reqs)
              done)
        in
        let dt = dt /. float_of_int reps in
        Printf.printf "cplx %-3s  %2d requests/ct  %7.3fs  %8.4fs/request\n%!"
          (if complex then "on" else "off")
          n dt
          (dt /. float_of_int n);
        (n, dt))
      [ false; true ]
  in
  let n0, t0, n1, t1 =
    match cplx_pair with [ (n0, t0); (n1, t1) ] -> (n0, t0, n1, t1) | _ -> assert false
  in
  let gain = float_of_int n1 /. t1 /. (float_of_int n0 /. t0) in
  Printf.printf "cplx throughput gain (requests/s, on vs off): %.2fx\n%!" gain;
  let row_json =
    String.concat ", "
      (List.map
         (fun (k, t, _) ->
           Printf.sprintf "{\"batch\": %d, \"seconds\": %.4f, \"per_request_seconds\": %.4f}"
             k t
             (t /. float_of_int k))
         rows)
  in
  let json =
    Printf.sprintf
      "{\"model\": \"batchnet\", \"slots\": %d, \"rows\": [%s], \"op_invariant\": %b, \
       \"k8_per_request_vs_k1\": %.4f, \"bound\": 0.25, \"k8_worst_vs_solo\": %.2e, \
       \"cplx\": {\"model\": \"lin-8x8\", \"batch\": 8, \"plain_requests_per_ct\": %d, \
       \"plain_seconds\": %.4f, \"complex_requests_per_ct\": %d, \"complex_seconds\": %.4f, \
       \"throughput_gain\": %.3f}}"
      slots row_json op_invariant.contents ratio !worst n0 t0 n1 t1 gain
  in
  let per_request = List.map (fun (k, t, _) -> (k, t /. float_of_int k)) rows in
  (json, op_invariant.contents && outputs_ok && ratio <= 0.25, per_request)

(* ---------- --json: machine-readable artifact (BENCH_pr9.json) ---------- *)

(* One JSON blob per run so CI and the growth driver can diff numbers across
   PRs without scraping the human tables. New in pr9: the steady-state GC
   A/B (gc_steady_state) — a resident resnet20 runtime run with the slab
   pool on and off, gated on a >= 5x drop in per-inference major-heap
   words, bit-identical outputs, and a no-worse pooled fhe.add p999/p50
   tail — plus the pool's own hit/miss/drop counters. Carried from pr8:
   per-request amortized latency at k in {1,4,8}, the cost-model
   calibration table, the dropped_events count, the instrumentation-
   overhead gate against BENCH_pr7, the slot-batching k-sweep, the
   domains sweep with efficiency-per-core, lazy-pass rows, and the
   key-switch tail gate. Schema 10 replaced the scheduler sweep and the
   per-domain busy profile with the sequential executor's domains sweep. *)
let json_schema_version = 10

let json_bench ?(path = "BENCH_pr9.json") () =
  let module Domain_pool = Ace_util.Domain_pool in
  let module Json = Ace_telemetry.Json_lite in
  let default_domains = Domain_pool.size () in
  (* On a 1-core host the default pool is 1; still measure a 4-wide pool so
     the overhead (or speedup, on real hardware) is recorded. *)
  let par_domains = if default_domains > 1 then default_domains else 4 in
  let time f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let compile_rows =
    List.map
      (fun spec ->
        let _, dt = time (fun () -> compiled Pipeline.ace spec) in
        Printf.printf "compile %-12s %6.2fs\n%!" spec.Resnet.model_name dt;
        (spec.Resnet.model_name, dt))
      models
  in
  (* Only resnet20/32 are inferred below; keeping all six compiled
     models (resnet110 alone is most of the set) live through the timed
     sections taxes every major-GC slice taken during inference with
     gigabytes of dead-weight marking — measured at >2x wall clock on
     the first timed run. Drop the ones the rest of the bench never
     reads and return the heap to working-set size. *)
  Hashtbl.iter
    (fun key _ ->
      if key <> "ACE/resnet20" && key <> "ACE/resnet32" then
        Hashtbl.remove compile_cache key)
    (Hashtbl.copy compile_cache);
  Gc.compact ();
  (* micro: forward NTT at production ring degree *)
  let ntt_ns =
    let n = 4096 in
    let q = Ace_rns.Primes.ntt_prime_near ~bits:28 ~ring_degree:n ~below:max_int in
    let plan = Ace_rns.Ntt.make ~modulus:q ~ring_degree:n in
    let r = Rng.create 3 in
    let a = Array.init n (fun _ -> Rng.int r q) in
    let iters = 200 in
    let (), dt =
      time (fun () ->
          for _ = 1 to iters do
            let b = Array.copy a in
            Ace_rns.Ntt.forward plan b
          done)
    in
    1e9 *. dt /. float_of_int iters
  in
  (* micro: gadget keyswitch (rotation), sequential vs parallel pool *)
  let ctx = Param_select.execution_context ~depth:10 ~slots:1024 () in
  let batch_steps = Array.init 8 (fun i -> i + 1) in
  let mkeys =
    Ace_fhe.Keys.generate ctx ~rng:(Rng.create 9) ~rotations:(Array.to_list batch_steps)
  in
  let msg = Array.init (Ace_fhe.Context.slots ctx) (fun i -> float_of_int (i mod 5) /. 5.0) in
  let pt = Ace_fhe.Encoder.encode ctx ~level:10 ~scale:(Ace_fhe.Context.scale ctx) msg in
  let ct = Ace_fhe.Eval.encrypt mkeys ~rng:(Rng.create 10) pt in
  let keyswitch_ns_at d =
    Domain_pool.set_num_domains d;
    let iters = 20 in
    let (), dt =
      time (fun () ->
          for _ = 1 to iters do
            ignore (Ace_fhe.Eval.rotate mkeys ct 1)
          done)
    in
    1e9 *. dt /. float_of_int iters
  in
  let ks_seq = keyswitch_ns_at 1 in
  let ks_par = keyswitch_ns_at par_domains in
  (* micro: the PR2 acceptance pair — a batch of 8 rotations through the
     hoisted path (one decompose + NTT of c1, then per-step permute +
     mul-acc + mod-down) vs the same 8 steps as independent [Eval.rotate]
     calls.  Both numbers are ns per rotation. *)
  let rotate_pair_ns =
    Domain_pool.set_num_domains 1;
    let iters = 10 in
    let nrot = Array.length batch_steps in
    let (), dt_seq =
      time (fun () ->
          for _ = 1 to iters do
            Array.iter (fun s -> ignore (Ace_fhe.Eval.rotate mkeys ct s)) batch_steps
          done)
    in
    let (), dt_hoist =
      time (fun () ->
          for _ = 1 to iters do
            ignore (Ace_fhe.Eval.rotate_batch mkeys ct batch_steps)
          done)
    in
    Domain_pool.set_num_domains default_domains;
    let per x = 1e9 *. x /. float_of_int (iters * nrot) in
    let seq = per dt_seq and hoist = per dt_hoist in
    Printf.printf "rotate x%d: sequential %.2f ms/op, hoisted %.2f ms/op (%.2fx)\n%!" nrot
      (seq /. 1e6) (hoist /. 1e6) (seq /. hoist);
    (seq, hoist)
  in
  let rot_seq_ns, rot_hoist_ns = rotate_pair_ns in
  (* end-to-end: per-image inference on the quick models, then the
     domains sweep on the same resnet20 image (determinism means every
     configuration produces identical ciphertexts; only the wall clock may
     differ — which the sweep verifies). *)
  (* Each model is measured in its own window: keygen first, then a
     metrics reset, then the timed inference — so the telemetry snapshot
     (and the key-switch tail gate) covers inference only; the keygen
     warm-up (Eval.warm) exists precisely to keep the one-off
     first-switch costs out of the serving path. One model's keys at a
     time: a second live multi-GB key set would inflate every GC slice
     taken during the timed run (measured as a >2x wall-clock penalty on
     this host) and skew the comparison against earlier artifacts that
     also timed with a single key set resident. *)
  let infer_results =
    List.map
      (fun spec ->
        Domain_pool.set_num_domains default_domains;
        let c = compiled Pipeline.ace spec in
        let keys = Pipeline.make_keys c ~seed:77 in
        Telemetry.reset_metrics ();
        let rng = Rng.create 1001 in
        let dims = 3 * spec.Resnet.image_size * spec.Resnet.image_size in
        let image = Array.init dims (fun _ -> Rng.float rng 1.0) in
        let _, dt = time (fun () -> Pipeline.infer_encrypted c keys ~seed:55 image) in
        Printf.printf "infer %-12s domains=%d %7.2fs\n%!" spec.Resnet.model_name
          default_domains dt;
        (spec.Resnet.model_name, dt, Telemetry.snapshot (), Telemetry.to_json ()))
      [ Resnet.resnet20; Resnet.resnet32 ]
  in
  let infer_rows = List.map (fun (name, dt, _, _) -> (name, dt)) infer_results in
  (* The exported per-category table is resnet20's window — one
     inference workload, no keygen or microbenchmark noise mixed in. *)
  let telemetry_json =
    match infer_results with (_, _, _, tel) :: _ -> tel | [] -> "{}"
  in
  (* Key-switch tail gate: with the keygen warm in place the slowest
     inference-time key switch must stay within [tail_bound] of the
     median. BENCH_pr4 measured 0.178 s max against a 3.6 ms p50 — a 49x
     spike from one-off pool/memo fills that now happen at keygen. The
     residual post-warm spread is structural, not warm-up: a key switch
     costs ~limbs^2 transforms, so the full-width switches at the top of
     the chain sit ~33x over the mid-chain median (measured here after
     the warm landed). The bound is set between the two regimes — it
     trips if the one-off costs ever leak back into the serving path. *)
  let tail_bound = 40.0 in
  let ks_max, ks_p50, ks_ratio =
    (* Worst ratio across the per-model windows. *)
    List.fold_left
      (fun (bm, bp, br) (_, _, snap, _) ->
        match Telemetry.find_stats snap "fhe.key_switch" with
        | Some s
          when s.Telemetry.st_p50 > 0.0
               && s.Telemetry.st_max /. s.Telemetry.st_p50 > br ->
          (s.Telemetry.st_max, s.Telemetry.st_p50, s.Telemetry.st_max /. s.Telemetry.st_p50)
        | _ -> (bm, bp, br))
      (0.0, 0.0, 0.0) infer_results
  in
  Printf.printf "fhe.key_switch tail: max %.4fs p50 %.4fs ratio %.1fx (bound %.0fx)\n%!"
    ks_max ks_p50 ks_ratio tail_bound;
  let stats_json = Stats.to_json (Stats.of_compiled (compiled Pipeline.ace Resnet.resnet20)) in
  (* Cost-model accountability: the VM recorded a measured/predicted
     sample for every node it executed during the resnet20 inference
     window; the folded table says how far Sched.node_ns is from
     reality, per op category. *)
  let calibration =
    match infer_results with
    | (_, _, snap, _) :: _ -> Stats.calibration_of_snapshot snap
    | [] -> { Stats.cal_reference_ratio = 0.0; cal_rows = [] }
  in
  Printf.printf "cost model reference: measured/predicted %.2f across %d categories\n%!"
    calibration.Stats.cal_reference_ratio
    (List.length calibration.Stats.cal_rows);
  List.iter
    (fun (r : Stats.calibration_row) ->
      Printf.printf
        "calib %-12s n=%-5d measured/predicted p50=%8.2f p99=%8.2f mean=%8.2f error-ratio p50=%.2f\n%!"
        r.Stats.cal_category r.Stats.cal_samples r.Stats.cal_ratio_p50
        r.Stats.cal_ratio_p99 r.Stats.cal_ratio_mean r.Stats.cal_error_ratio_p50)
    calibration.Stats.cal_rows;
  let calibration_json = Stats.calibration_to_json calibration in
  (* Instrumentation-overhead gate: the serving-telemetry rebuild (sketch
     observations on every op, calibration samples, request attribution)
     must not make the hot ops measurably slower. Compare rotate/relin
     p50 over the same resnet20 window against the committed BENCH_pr7
     artifact; the allowance is 3% claimed overhead headroom plus the
     sketch's quantile quantization (pr7's reservoir p50 was exact, this
     artifact's is bucketed). *)
  let overhead_bound = 0.03 +. Ace_telemetry.Qsketch.relative_error in
  let pr7_p50s =
    if not (Sys.file_exists "BENCH_pr7.json") then []
    else
      try
        let doc = Json.parse_file "BENCH_pr7.json" in
        match Json.member "telemetry" doc with
        | Some tel -> (
          match Json.member "metrics" tel with
          | Some metrics ->
            List.filter_map
              (fun op ->
                match Json.member op metrics with
                | Some entry -> (
                  match Json.member "p50_s" entry with
                  | Some (Json.Num p) -> Some (op, p)
                  | _ -> None)
                | None -> None)
              [ "fhe.rotate"; "fhe.relinearize" ]
          | None -> [])
        | None -> []
      with Json.Parse_error _ -> []
  in
  let overhead_rows =
    List.filter_map
      (fun (op, pr7) ->
        match infer_results with
        | (_, _, snap, _) :: _ -> (
          match Telemetry.find_stats snap op with
          | Some s when pr7 > 0.0 ->
            let ratio = s.Telemetry.st_p50 /. pr7 in
            Printf.printf "overhead %-16s p50 %.5fs vs pr7 %.5fs (%.3fx, bound %.3f)\n%!" op
              s.Telemetry.st_p50 pr7 ratio (1.0 +. overhead_bound);
            Some (op, pr7, s.Telemetry.st_p50, ratio)
          | _ -> None)
        | [] -> None)
      pr7_p50s
  in
  let overhead_ok =
    List.for_all (fun (_, _, _, ratio) -> ratio <= 1.0 +. overhead_bound) overhead_rows
  in
  (* Lazy-pass op counts per workload. The sign-tower regime (resnet)
     rescales every ct*ct product immediately, so a relin survives at
     each rescale and the counts barely move; the accumulation regime
     (Add trees over products, still at scale Delta^2) collapses to one
     relin per reduction root. Both are recorded — the ratios are the
     honest shape of the optimization, not a single headline number. *)
  let lazy_workloads =
    let gen name cfg seed =
      ( name,
        fun () ->
          Ace_nn.Import.import (Ace_testkit.Graph_gen.generate ~cfg ~seed ()) )
    in
    let act_mlp =
      {
        Ace_testkit.Graph_gen.default with
        Ace_testkit.Graph_gen.max_gemm_layers = 2;
        dims = [| 8 |];
        activation_prob = 1.0;
        residual_prob = 0.0;
        conv_prob = 0.0;
        mul_tree_prob = 0.0;
      }
    in
    [
      ("resnet20", fun () -> Resnet.build_calibrated Resnet.resnet20);
      gen "accum-100" Ace_testkit.Graph_gen.accumulation 100;
      gen "accum-101" Ace_testkit.Graph_gen.accumulation 101;
      gen "act-mlp-7" act_mlp 7;
    ]
  in
  let lazy_rows =
    List.map
      (fun (name, build) ->
        let c =
          match Hashtbl.find_opt compile_cache ("ACE/" ^ name) with
          | Some c -> c
          | None -> Pipeline.compile Pipeline.ace (build ())
        in
        let s = c.Pipeline.lazy_stats in
        let open Ace_ckks_ir.Ckks_lazy in
        let ratio a b = if b = 0 then 1.0 else float_of_int a /. float_of_int b in
        Printf.printf
          "lazy  %-12s relins %d -> %d (%.2fx), rescales %d -> %d (%.2fx), deg2 hw %d\n%!"
          name s.relins_eager s.relins_lazy
          (ratio s.relins_eager s.relins_lazy)
          s.rescales_eager s.rescales_lazy
          (ratio s.rescales_eager s.rescales_lazy)
          s.deg2_high_water;
        Printf.sprintf
          "{\"model\": \"%s\", \"relins_eager\": %d, \"relins_lazy\": %d, \
           \"relin_ratio\": %.3f, \"rescales_eager\": %d, \"rescales_lazy\": %d, \
           \"rescale_ratio\": %.3f, \"deg2_high_water\": %d}"
          name s.relins_eager s.relins_lazy
          (ratio s.relins_eager s.relins_lazy)
          s.rescales_eager s.rescales_lazy
          (ratio s.rescales_eager s.rescales_lazy)
          s.deg2_high_water)
      lazy_workloads
  in
  (* Accumulation end-to-end, lazy on vs off: the regime where the
     eliminated relins are a real fraction of the runtime. *)
  let accum_e2e =
    let nn = Ace_nn.Import.import (Ace_testkit.Graph_gen.generate ~cfg:Ace_testkit.Graph_gen.accumulation ~seed:100 ()) in
    let eager = { Pipeline.ace with Pipeline.strategy_name = "ace-eager"; lazy_passes = false } in
    let run strategy =
      let c = Pipeline.compile strategy nn in
      let keys = Pipeline.make_keys c ~seed:77 in
      let rng = Rng.create 31 in
      let input = Array.init 8 (fun _ -> Rng.float rng 1.6 -. 0.8) in
      let reps = 5 in
      let (), dt =
        time (fun () ->
            for i = 1 to reps do
              ignore (Pipeline.infer_encrypted c keys ~seed:(40 + i) input)
            done)
      in
      dt /. float_of_int reps
    in
    let t_lazy = run Pipeline.ace in
    let t_eager = run eager in
    Printf.printf "accum-100 e2e: lazy %.3fs eager %.3fs (%.2fx)\n%!" t_lazy t_eager
      (t_eager /. t_lazy);
    (t_lazy, t_eager)
  in
  let batch_json, batch_ok, batch_per_request = batch_bench () in
  (* Headline comparison against the committed BENCH_pr4 artifact (same
     model, same domain count — both artifacts record it). *)
  let pr4_resnet20 =
    if not (Sys.file_exists "BENCH_pr4.json") then None
    else
      try
        let doc = Json.parse_file "BENCH_pr4.json" in
        match Json.member "inference_seconds" doc with
        | Some infer -> (
          match (Json.member "resnet20" infer, Json.member "domains_default" doc) with
          | Some (Json.Num s), Some (Json.Num d) -> Some (s, int_of_float d)
          | Some (Json.Num s), None -> Some (s, 1)
          | _ -> None)
        | None -> None
      with Json.Parse_error _ -> None
  in
  (match pr4_resnet20 with
  | Some (baseline, d) ->
    Printf.printf "resnet20 vs BENCH_pr4: %.2fs -> %.2fs (%.2fx) at %d vs %d domains\n%!"
      baseline (List.assoc "resnet20" infer_rows)
      (baseline /. List.assoc "resnet20" infer_rows)
      d default_domains
  | None -> print_endline "BENCH_pr4.json not found; skipping cross-PR comparison");
  (* Domains sweep: resnet20 on the sequential executor at every pool
     width. One encrypted input reused throughout; outputs are checked
     bit-identical across every width (the run aborts loudly if the
     determinism contract ever broke). *)
  let sweep_spec = Resnet.resnet20 in
  let sweep_c = compiled Pipeline.ace sweep_spec in
  let sweep_keys = Pipeline.make_keys sweep_c ~seed:77 in
  let sweep_image =
    let rng = Rng.create 1001 in
    let dims = 3 * sweep_spec.Resnet.image_size * sweep_spec.Resnet.image_size in
    Array.init dims (fun _ -> Rng.float rng 1.0)
  in
  let sweep_ct = Pipeline.encrypt_input sweep_c sweep_keys ~seed:55 sweep_image in
  let reference_out = ref None in
  let sweep_run domains =
    Domain_pool.set_num_domains domains;
    let out, dt =
      time (fun () -> Pipeline.run_encrypted sweep_c sweep_keys ~seed:55 sweep_ct)
    in
    (match !reference_out with
    | None -> reference_out := Some out
    | Some r ->
      if not (Array.for_all2 Ace_rns.Rns_poly.equal r.Ace_fhe.Ciphertext.polys out.Ace_fhe.Ciphertext.polys)
      then failwith "domains sweep: output not bit-identical to reference");
    Printf.printf "sweep resnet20 domains=%d %7.2fs\n%!" domains dt;
    dt
  in
  let host_cores = Domain.recommended_domain_count () in
  let single_core = host_cores <= 1 in
  if single_core then
    prerr_endline
      "bench: warning: domains sweep running on a 1-core host — multi-domain rows \
       measure scheduling overhead, not parallel speedup (host_cores records this)";
  (* Auto-sized to the detected cores: the powers of two up to
     max(8, host_cores), plus host_cores itself when it is not one of
     them — so real hardware always gets a row at its own width. *)
  let sweep_domains =
    List.sort_uniq compare
      (List.filter (fun d -> d >= 1 && d <= 64) [ 1; 2; 4; 8; host_cores ])
  in
  let sweep_rows = List.map (fun d -> (d, sweep_run d)) sweep_domains in
  Domain_pool.set_num_domains default_domains;
  (* PR9 steady-state GC A/B: a resident runtime (cached weight
     plaintexts, persistent VM) re-running the same resnet20 inference is
     the serving steady state; with the slab pool on, every ciphertext
     buffer the run allocates should come back recycled. Gates: per-
     inference major-heap words pooled must be >= [gc_ratio_bound]x
     smaller than unpooled, outputs bit-identical, and the pooled fhe.add
     tail (p999/p50) no worse than unpooled. Sequential at 1 domain — the
     A/B isolates allocator behaviour, not scheduling. *)
  let gc_ratio_bound = 5.0 in
  let gc_reps = 3 in
  let gc_measure ~pooled =
    Ace_rns.Limb_pool.set_enabled pooled;
    Domain_pool.set_num_domains 1;
    let rt = Pipeline.make_runtime sweep_c sweep_keys ~seed:55 in
    (* Warm run: fills the plaintext cache, the pool, and the keygen
       memos, so the measured window is pure steady state. *)
    let out = ref (Pipeline.run_encrypted_rt rt sweep_ct) in
    Telemetry.reset_metrics ();
    Ace_rns.Limb_pool.reset_stats ();
    let g0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to gc_reps do
      out := Pipeline.run_encrypted_rt rt sweep_ct
    done;
    let dt = (Unix.gettimeofday () -. t0) /. float_of_int gc_reps in
    let g1 = Gc.quick_stat () in
    let per d = d /. float_of_int gc_reps in
    let add_tail =
      match Telemetry.find_stats (Telemetry.snapshot ()) "fhe.add" with
      | Some s when s.Telemetry.st_p50 > 0.0 -> s.Telemetry.st_p999 /. s.Telemetry.st_p50
      | _ -> 0.0
    in
    ( !out,
      per (g1.Gc.major_words -. g0.Gc.major_words),
      per (g1.Gc.minor_words -. g0.Gc.minor_words),
      per (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections)),
      dt,
      add_tail )
  in
  let pool_was = Ace_rns.Limb_pool.enabled () in
  let out_on, major_on, minor_on, majcol_on, t_on, tail_on = gc_measure ~pooled:true in
  let pool_stats = Ace_rns.Limb_pool.stats () in
  let out_off, major_off, minor_off, majcol_off, t_off, tail_off =
    gc_measure ~pooled:false
  in
  Ace_rns.Limb_pool.set_enabled pool_was;
  Domain_pool.set_num_domains default_domains;
  let gc_identical =
    Array.for_all2 Ace_rns.Rns_poly.equal out_on.Ace_fhe.Ciphertext.polys
      out_off.Ace_fhe.Ciphertext.polys
  in
  let gc_ratio = if major_on > 0.0 then major_off /. major_on else infinity in
  Printf.printf
    "gc A/B resnet20 (seq x%d): major w/infer on=%.3e off=%.3e (%.1fx, bound %.0fx), \
     minor on=%.3e off=%.3e, major GCs/infer on=%.2f off=%.2f, %.2fs vs %.2fs, \
     fhe.add p999/p50 on=%.2f off=%.2f, identical=%b\n%!"
    gc_reps major_on major_off gc_ratio gc_ratio_bound minor_on minor_off majcol_on
    majcol_off t_on t_off tail_on tail_off gc_identical;
  Printf.printf
    "pool steady state: slab hits=%d misses=%d releases=%d dropped=%d row hits=%d misses=%d\n%!"
    pool_stats.Ace_rns.Limb_pool.slab_hits pool_stats.Ace_rns.Limb_pool.slab_misses
    pool_stats.Ace_rns.Limb_pool.slab_releases pool_stats.Ace_rns.Limb_pool.slab_dropped
    pool_stats.Ace_rns.Limb_pool.row_hits pool_stats.Ace_rns.Limb_pool.row_misses;
  let buf = Buffer.create 2048 in
  let obj rows = String.concat ", " rows in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"bench\": \"pr9-zero-alloc-steady-state\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"schema_version\": %d,\n" json_schema_version);
  Buffer.add_string buf (Printf.sprintf "  \"domains_default\": %d,\n" default_domains);
  Buffer.add_string buf (Printf.sprintf "  \"domains_parallel\": %d,\n" par_domains);
  Buffer.add_string buf (Printf.sprintf "  \"host_cores\": %d,\n" host_cores);
  Buffer.add_string buf
    (Printf.sprintf "  \"sweep_single_core\": %b,\n" single_core);
  Buffer.add_string buf
    (Printf.sprintf "  \"compile_seconds\": {%s},\n"
       (obj (List.map (fun (m, t) -> Printf.sprintf "\"%s\": %.4f" m t) compile_rows)));
  Buffer.add_string buf
    (Printf.sprintf "  \"inference_seconds\": {%s},\n"
       (obj (List.map (fun (m, t) -> Printf.sprintf "\"%s\": %.4f" m t) infer_rows)));
  Buffer.add_string buf
    (Printf.sprintf "  \"lazy\": [%s],\n" (String.concat ", " lazy_rows));
  (let t_lazy, t_eager = accum_e2e in
   Buffer.add_string buf
     (Printf.sprintf
        "  \"accum_e2e\": {\"model\": \"accum-100\", \"lazy_seconds\": %.4f, \
         \"eager_seconds\": %.4f, \"speedup\": %.3f},\n"
        t_lazy t_eager (t_eager /. t_lazy)));
  (match pr4_resnet20 with
  | Some (baseline, d) ->
    Buffer.add_string buf
      (Printf.sprintf
         "  \"baseline_pr4\": {\"resnet20_seconds\": %.4f, \"domains\": %d},\n" baseline d);
    Buffer.add_string buf
      (Printf.sprintf "  \"speedup_vs_pr4_resnet20\": %.3f,\n"
         (baseline /. List.assoc "resnet20" infer_rows))
  | None -> Buffer.add_string buf "  \"baseline_pr4\": null,\n");
  Buffer.add_string buf
    (Printf.sprintf
       "  \"keyswitch_tail\": {\"max_s\": %.5f, \"p50_s\": %.5f, \"ratio\": %.2f, \
        \"bound\": %.1f},\n"
       ks_max ks_p50 ks_ratio tail_bound);
  Buffer.add_string buf (Printf.sprintf "  \"batch_sweep\": %s,\n" batch_json);
  Buffer.add_string buf
    (Printf.sprintf "  \"per_request_amortized\": {%s},\n"
       (obj
          (List.filter_map
             (fun (k, s) ->
               if List.mem k [ 1; 4; 8 ] then
                 Some (Printf.sprintf "\"k%d_seconds\": %.4f" k s)
               else None)
             batch_per_request)));
  Buffer.add_string buf
    (Printf.sprintf "  \"cost_model_calibration\": %s,\n" calibration_json);
  Buffer.add_string buf
    (Printf.sprintf "  \"instrumentation_overhead\": {\"bound_ratio\": %.4f%s},\n"
       (1.0 +. overhead_bound)
       (String.concat ""
          (List.map
             (fun (op, pr7, cur, ratio) ->
               Printf.sprintf ", \"%s\": {\"pr7_p50_s\": %.6f, \"p50_s\": %.6f, \"ratio\": %.4f}"
                 op pr7 cur ratio)
             overhead_rows)));
  Buffer.add_string buf
    (Printf.sprintf "  \"dropped_events\": %d,\n" (Telemetry.dropped_events ()));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"gc_steady_state\": {\"model\": \"resnet20\", \
        \"reps\": %d, \"pooled\": {\"major_words_per_infer\": %.1f, \
        \"minor_words_per_infer\": %.1f, \"major_collections_per_infer\": %.3f, \
        \"seconds_per_infer\": %.4f, \"fhe_add_p999_over_p50\": %.3f}, \
        \"unpooled\": {\"major_words_per_infer\": %.1f, \"minor_words_per_infer\": %.1f, \
        \"major_collections_per_infer\": %.3f, \"seconds_per_infer\": %.4f, \
        \"fhe_add_p999_over_p50\": %.3f}, \"major_words_ratio\": %.2f, \
        \"ratio_bound\": %.1f, \"bit_identical\": %b, \"pool\": {\"slab_hits\": %d, \
        \"slab_misses\": %d, \"slab_releases\": %d, \"slab_dropped\": %d, \
        \"row_hits\": %d, \"row_misses\": %d}},\n"
       gc_reps major_on minor_on majcol_on t_on tail_on major_off minor_off majcol_off
       t_off tail_off gc_ratio gc_ratio_bound gc_identical
       pool_stats.Ace_rns.Limb_pool.slab_hits pool_stats.Ace_rns.Limb_pool.slab_misses
       pool_stats.Ace_rns.Limb_pool.slab_releases
       pool_stats.Ace_rns.Limb_pool.slab_dropped pool_stats.Ace_rns.Limb_pool.row_hits
       pool_stats.Ace_rns.Limb_pool.row_misses);
  Buffer.add_string buf
    (Printf.sprintf "  \"domains_sweep\": [%s],\n"
       (String.concat ", "
          (List.map
             (fun (d, t) ->
               (* efficiency_per_core = t(1)/(d * t(d)): 1.0 is perfect
                  scaling. On a 1-core host (sweep_single_core above)
                  extra domains only add scheduling overhead, so the
                  column honestly degrades. *)
               Printf.sprintf
                 "{\"domains\": %d, \"seconds\": %.4f, \"efficiency_per_core\": %.4f}" d t
                 (List.assoc 1 sweep_rows /. (float_of_int d *. t)))
             sweep_rows)));
  (let seq1 = List.assoc 1 sweep_rows and par = List.assoc host_cores sweep_rows in
   Buffer.add_string buf
     (Printf.sprintf
        "  \"scaling\": {\"model\": \"resnet20\", \"sequential_seconds\": %.4f, \
         \"parallel_seconds\": %.4f, \"parallel_domains\": %d, \"parallel_speedup\": %.3f},\n"
        seq1 par host_cores (seq1 /. par)));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"micro\": {\"ntt_forward_n4096_ns_per_op\": %.0f, \
        \"keyswitch_rotate_seq_ns_per_op\": %.0f, \"keyswitch_rotate_par_ns_per_op\": %.0f, \
        \"rotate_ns_per_op\": %.0f, \"rotate_hoisted_ns_per_op\": %.0f, \
        \"hoisting_speedup\": %.3f},\n"
       ntt_ns ks_seq ks_par rot_seq_ns rot_hoist_ns (rot_seq_ns /. rot_hoist_ns));
  Buffer.add_string buf (Printf.sprintf "  \"stats_resnet20\": %s,\n" stats_json);
  Buffer.add_string buf (Printf.sprintf "  \"telemetry\": %s" (String.trim telemetry_json));
  Buffer.add_string buf "\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n%!" path;
  (* Tail regression gate: fail the bench (artifact already on disk for
     inspection) if the worst inference-time key switch blew past the
     bound — the keygen warm is supposed to have absorbed that spike. *)
  if ks_p50 > 0.0 && ks_ratio > tail_bound then begin
    Printf.eprintf
      "bench: key-switch tail regression: max/p50 = %.1f exceeds bound %.1f\n%!"
      ks_ratio tail_bound;
    exit 1
  end;
  (* Batching acceptance gate: op multiset identical across k, per-request
     outputs within crypto tolerance of unbatched runs, and k=8 amortized
     per-request latency at most 0.25x the k=1 latency. *)
  if not batch_ok then begin
    prerr_endline "bench: batch throughput/invariance gate failed (see [Batch] rows above)";
    exit 1
  end;
  (* Accountability gates: the calibration table must have real samples
     (an empty table means the VM stopped reporting), and the hot-op p50s
     must stay within the instrumentation-overhead allowance of pr7. *)
  if calibration.Stats.cal_rows = [] then begin
    prerr_endline "bench: cost-model calibration table is empty — VM calib metrics missing";
    exit 1
  end;
  if not overhead_ok then begin
    Printf.eprintf
      "bench: instrumentation overhead gate failed: rotate/relin p50 drifted beyond %.1f%% \
       of BENCH_pr7 (see overhead rows above)\n%!"
      (100.0 *. overhead_bound);
    exit 1
  end;
  (* Zero-allocation steady-state gates: recycling must actually bite
     (major-heap words per inference down by the bound), must not change a
     single bit of the output, and must not buy memory with latency tail
     (pooled fhe.add p999/p50 no worse than unpooled, plus sketch
     quantization slack). *)
  if not gc_identical then begin
    prerr_endline "bench: pooled and unpooled outputs are not bit-identical";
    exit 1
  end;
  if gc_ratio < gc_ratio_bound then begin
    Printf.eprintf
      "bench: GC gate failed: pooled major words only %.2fx lower than unpooled \
       (bound %.1fx)\n%!"
      gc_ratio gc_ratio_bound;
    exit 1
  end;
  let tail_slack = 1.0 +. (2.0 *. Ace_telemetry.Qsketch.relative_error) in
  if tail_on > 0.0 && tail_off > 0.0 && tail_on > tail_off *. tail_slack then begin
    Printf.eprintf
      "bench: pooled fhe.add tail regressed: p999/p50 %.2f vs unpooled %.2f\n%!" tail_on
      tail_off;
    exit 1
  end

(* ---------- driver ---------- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let get_n default =
    let rec go = function
      | "-n" :: v :: _ -> int_of_string v
      | _ :: rest -> go rest
      | [] -> default
    in
    go args
  in
  let cmds = List.filter (fun a -> a <> "-n" && int_of_string_opt a = None) args in
  let run = function
    | "--json" | "json" -> json_bench ()
    | "fig5" -> fig5 ()
    | "fig6" -> fig6 ()
    | "fig6-quick" -> fig6 ~specs:[ Resnet.resnet20; Resnet.resnet32 ] ()
    | "fig7" -> fig7 ()
    | "table8" -> table8 ()
    | "table10" -> table10 ()
    | "table11" -> table11 ~n:(get_n 4) ()
    | "micro" -> micro ()
    | "batch" ->
      let _, _, _ = batch_bench () in
      ()
    | "ablation" -> ablation ()
    | other -> Printf.eprintf "unknown benchmark %s\n" other
  in
  match cmds with
  | [] ->
    (* Cheap artifacts first so a truncated run still yields most tables. *)
    fig5 ();
    print_newline ();
    table8 ();
    print_newline ();
    table10 ();
    print_newline ();
    fig7 ();
    print_newline ();
    table11 ~n:(get_n 2) ();
    print_newline ();
    fig6 ()
  | cmds -> List.iter run cmds
