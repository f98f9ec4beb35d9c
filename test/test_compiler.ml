(* End-to-end compiler tests: SIHE/CKKS lowering, VM execution of compiled
   models under real encryption, strategy comparisons, POLY/C backends. *)
module Pipeline = Ace_driver.Pipeline
module Stats = Ace_driver.Stats
module Lower_nn = Ace_vector.Lower_nn
module Lower_vec = Ace_sihe.Lower_vec
module Sihe_interp = Ace_sihe.Sihe_interp
module Vec_interp = Ace_vector.Vec_interp
module Nn_interp = Ace_nn.Nn_interp
module Layout = Ace_vector.Layout
module Import = Ace_nn.Import
module Builder = Ace_onnx.Builder
module Model = Ace_onnx.Model
module Param_select = Ace_ckks_ir.Param_select
module Lower_sihe = Ace_ckks_ir.Lower_sihe
module Verifier = Ace_verify.Verifier
module Diagnostic = Ace_verify.Diagnostic
module Ckks_fusion = Ace_ckks_ir.Ckks_fusion
module Keygen_plan = Ace_ckks_ir.Keygen_plan
module Poly_ir = Ace_poly_ir.Poly_ir
module Rng = Ace_util.Rng
open Ace_ir

let max_err a b =
  let e = ref 0.0 in
  Array.iteri (fun i x -> e := max !e (abs_float (x -. b.(i)))) a;
  !e

let gemv_graph () =
  let b = Builder.create "gemv" in
  Builder.input b "x" [| 32 |];
  Builder.init_normal b "w" [| 10; 32 |] ~seed:3 ~std:0.15;
  Builder.init_normal b "bias" [| 10 |] ~seed:4 ~std:0.05;
  Builder.node b ~op:"Gemm" ~inputs:[ "x"; "w"; "bias" ] "y";
  Builder.output b "y" [| 10 |];
  Builder.finish b

let conv_relu_graph () =
  let b = Builder.create "convrelu" in
  Builder.input b "x" [| 2; 4; 4 |];
  Builder.init_normal b "w" [| 2; 2; 3; 3 |] ~seed:5 ~std:0.15;
  Builder.init_normal b "bias" [| 2 |] ~seed:6 ~std:0.05;
  Builder.node b ~op:"Conv" ~attrs:[ ("pads", Model.A_ints [ 1; 1; 1; 1 ]) ]
    ~inputs:[ "x"; "w"; "bias" ] "c";
  Builder.node b ~op:"Relu" ~inputs:[ "c" ] "r";
  Builder.output b "r" [| 2; 4; 4 |];
  Builder.finish b

let random_input f seed =
  let rng = Rng.create seed in
  let n = Types.tensor_elems (snd (Irfunc.params f).(0)) in
  Array.init n (fun _ -> Rng.float rng 1.0 -. 0.5)

(* --- SIHE level --- *)

let test_sihe_lowering_matches_vector () =
  let f = Import.import (conv_relu_graph ()) in
  let cfg = { Lower_nn.slots = 32; batch = 1; conv_regroup = true; gemm_bsgs = true } in
  let vf, _ = Lower_nn.lower cfg f in
  let sf = Lower_vec.lower { Lower_vec.relu_alpha = 5 } vf in
  Verify.verify sf;
  let lay = Lower_nn.input_layout cfg f in
  let x = random_input f 7 in
  let packed = Layout.vector_of_tensor lay x in
  let exact = Vec_interp.run1 vf packed in
  let approx = Sihe_interp.run1 sf packed in
  (* Difference is only the ReLU polynomial approximation. *)
  let e = max_err exact approx in
  if e > 0.15 then Alcotest.failf "SIHE approximation error too large: %.3f" e;
  if e = 0.0 then Alcotest.fail "expected a nonzero approximation error"

let test_sihe_rejects_unknown_nonlinear () =
  let f = Irfunc.create ~name:"bad" ~level:Level.Vector ~params:[ ("x", Types.Vec 8) ] in
  let n = Irfunc.add f (Op.V_nonlinear "gelu") [| Irfunc.param f 0 |] (Types.Vec 8) in
  Irfunc.set_returns f [ n ];
  try
    ignore (Lower_vec.lower Lower_vec.default f);
    Alcotest.fail "expected Unsupported"
  with Lower_vec.Unsupported _ -> ()

(* --- CKKS lowering invariants --- *)

let compile_gemv strategy =
  let nn = Import.import (gemv_graph ()) in
  Pipeline.compile strategy nn

(* The verifier's CKKS abstract interpretation must accept [f] with no
   diagnostic at all. *)
let ckks_clean ctx f =
  match Verifier.ckks ~pass:"test" ctx f with
  | [] -> ()
  | ds -> Alcotest.failf "unexpected diagnostics: %s" (Verifier.errors_to_string ds)

(* ... and must reject it with a [kind] diagnostic naming node [id]. *)
let ckks_rejects ~what kind id ctx f =
  let ds = Verifier.ckks ~pass:"test" ctx f in
  if
    not
      (List.exists
         (fun d -> d.Diagnostic.d_kind = kind && d.Diagnostic.d_node = Some id)
         ds)
  then
    Alcotest.failf "%s: wanted [%s] naming node %%%d, got: %s" what
      (Diagnostic.kind_name kind) id
      (if ds = [] then "no diagnostics" else Verifier.errors_to_string ds)

let test_ckks_scales_validate () =
  let c = compile_gemv Pipeline.ace in
  ckks_clean c.Pipeline.context c.Pipeline.ckks
(* compile itself checks, but be explicit *)

let test_ckks_fusion_composes_rotations () =
  let ctx = Param_select.execution_context ~slots:32 () in
  let f = Irfunc.create ~name:"rr" ~level:Level.Ckks ~params:[ ("x", Types.Cipher) ] in
  let p = Irfunc.param f 0 in
  (Irfunc.node f p).Irfunc.scale <- Ace_fhe.Context.scale ctx;
  (Irfunc.node f p).Irfunc.node_level <- Ace_fhe.Context.max_level ctx;
  let r1 = Irfunc.add f (Op.C_rotate 3) [| p |] Types.Cipher in
  let r2 = Irfunc.add f (Op.C_rotate 5) [| r1 |] Types.Cipher in
  List.iter
    (fun id ->
      (Irfunc.node f id).Irfunc.scale <- Ace_fhe.Context.scale ctx;
      (Irfunc.node f id).Irfunc.node_level <- Ace_fhe.Context.max_level ctx)
    [ r1; r2 ];
  Irfunc.set_returns f [ r2 ];
  let g = Ckks_fusion.run f in
  let rots =
    Irfunc.fold g ~init:[] ~f:(fun acc n ->
        match n.Irfunc.op with Op.C_rotate k -> k :: acc | _ -> acc)
  in
  Alcotest.(check (list int)) "one composed rotation" [ 8 ] rots;
  ckks_clean ctx g

(* Verifier edge cases: the CKKS check must keep working on the IR the
   batching fusion pass actually produces, and must accept legal
   non-minimum bootstrap targets while rejecting out-of-range ones. *)

let annotate f id ~scale ~level =
  (Irfunc.node f id).Irfunc.scale <- scale;
  (Irfunc.node f id).Irfunc.node_level <- level

let test_verifier_rescale_after_batching () =
  let ctx = Param_select.execution_context ~slots:32 () in
  let delta = Ace_fhe.Context.scale ctx and chain = Ace_fhe.Context.max_level ctx in
  let f = Irfunc.create ~name:"batched" ~level:Level.Ckks ~params:[ ("x", Types.Cipher) ] in
  let p = Irfunc.param f 0 in
  annotate f p ~scale:delta ~level:chain;
  (* Two rotations of one source: the fusion pass hoists them into a
     C_rotate_batch bundle + C_batch_get reads. *)
  let r1 = Irfunc.add f (Op.C_rotate 3) [| p |] Types.Cipher in
  let r2 = Irfunc.add f (Op.C_rotate 5) [| p |] Types.Cipher in
  let s = Irfunc.add f Op.C_add [| r1; r2 |] Types.Cipher in
  let m = Irfunc.add f Op.C_mul [| s; s |] Types.Cipher3 in
  let rl = Irfunc.add f Op.C_relin [| m |] Types.Cipher in
  let rs = Irfunc.add f Op.C_rescale [| rl |] Types.Cipher in
  List.iter (fun id -> annotate f id ~scale:delta ~level:chain) [ r1; r2; s ];
  List.iter (fun id -> annotate f id ~scale:(delta *. delta) ~level:chain) [ m; rl ];
  let q = float_of_int (Ace_rns.Crt.modulus (Ace_fhe.Context.crt ctx) chain) in
  annotate f rs ~scale:(delta *. delta /. q) ~level:(chain - 1);
  Irfunc.set_returns f [ rs ];
  let g = Ckks_fusion.batch_rotations ~min_batch:2 (Ckks_fusion.run f) in
  let batched =
    Irfunc.fold g ~init:false ~f:(fun acc n ->
        match n.Irfunc.op with Op.C_rotate_batch _ -> true | _ -> acc)
  in
  Alcotest.(check bool) "fusion produced a rotate batch" true batched;
  (* Control: the fused function is still well-scaled. *)
  ckks_clean ctx g;
  (* Corrupt the rescale that now follows the batch: its scale claims the
     divide never happened. The verifier must name the node, not pass. *)
  let bad =
    Irfunc.fold g ~init:(-1) ~f:(fun acc n ->
        if n.Irfunc.op = Op.C_rescale then n.Irfunc.id else acc)
  in
  Alcotest.(check bool) "fused function kept its rescale" true (bad >= 0);
  let saved = (Irfunc.node g bad).Irfunc.scale in
  (Irfunc.node g bad).Irfunc.scale <- delta *. delta;
  ckks_rejects ~what:"mismatched rescale after batching" Diagnostic.Scale_mismatch bad ctx g;
  (Irfunc.node g bad).Irfunc.scale <- saved;
  ckks_clean ctx g

let test_verifier_bootstrap_levels () =
  let ctx = Param_select.execution_context ~slots:32 () in
  let delta = Ace_fhe.Context.scale ctx and chain = Ace_fhe.Context.max_level ctx in
  let boot_at target =
    let f = Irfunc.create ~name:"boot" ~level:Level.Ckks ~params:[ ("x", Types.Cipher) ] in
    let p = Irfunc.param f 0 in
    annotate f p ~scale:delta ~level:chain;
    let b = Irfunc.add f (Op.C_bootstrap target) [| p |] Types.Cipher in
    annotate f b ~scale:delta ~level:target;
    Irfunc.set_returns f [ b ];
    (f, b)
  in
  (* A bootstrap may land anywhere inside the chain, not only at the
     minimum level the ACE strategy prefers. *)
  ckks_clean ctx (fst (boot_at (chain - 1)));
  ckks_clean ctx (fst (boot_at 1));
  List.iter
    (fun target ->
      let f, b = boot_at target in
      ckks_rejects
        ~what:(Printf.sprintf "bootstrap target %d (chain %d)" target chain)
        Diagnostic.Bootstrap_range b ctx f)
    [ 0; -1; chain + 1 ]

let test_expert_rotations_are_decomposed () =
  let c = compile_gemv Pipeline.library_default in
  (* Every rotation step must be a key the power-of-two plan owns. *)
  let steps = Lower_sihe.rotation_amounts c.Pipeline.ckks in
  let owned = c.Pipeline.key_plan.Keygen_plan.rotation_steps in
  List.iter
    (fun k ->
      let k' = ((k mod 32) + 32) mod 32 in
      if not (List.mem k' owned) then Alcotest.failf "step %d not in the expert key set" k)
    steps

let test_ace_fewer_rotations_than_expert () =
  let nn () = Import.import (conv_relu_graph ()) in
  let a = Pipeline.compile Pipeline.ace (nn ()) in
  let e = Pipeline.compile Pipeline.expert (nn ()) in
  (* A hoisted batch still performs one key switch per listed step. *)
  let count f =
    Irfunc.fold f ~init:0 ~f:(fun acc n ->
        match n.Irfunc.op with
        | Op.C_rotate _ -> acc + 1
        | Op.C_rotate_batch steps -> acc + Array.length steps
        | _ -> acc)
  in
  if count a.Pipeline.ckks >= count e.Pipeline.ckks then
    Alcotest.failf "ACE %d rotations vs Expert %d" (count a.Pipeline.ckks) (count e.Pipeline.ckks)

let test_ace_fewer_rescales_than_expert () =
  let nn () = Import.import (conv_relu_graph ()) in
  let a = Stats.of_compiled (Pipeline.compile Pipeline.ace (nn ())) in
  let e = Stats.of_compiled (Pipeline.compile Pipeline.expert (nn ())) in
  if a.Stats.rescales >= e.Stats.rescales then
    Alcotest.failf "ACE %d rescales vs Expert %d" a.Stats.rescales e.Stats.rescales

let test_key_plan_sizes () =
  let a = compile_gemv Pipeline.ace in
  let e = compile_gemv Pipeline.library_default in
  let ka = Keygen_plan.key_count a.Pipeline.key_plan in
  let ke = Keygen_plan.key_count e.Pipeline.key_plan in
  Alcotest.(check bool) "ACE generates only used keys" true (ka > 0);
  Alcotest.(check bool) "plans differ" true (ka <> ke)

(* --- end-to-end encrypted inference --- *)

let test_encrypted_gemv_matches_reference () =
  let nn = Import.import (gemv_graph ()) in
  let c = Pipeline.compile Pipeline.ace nn in
  let keys = Pipeline.make_keys c ~seed:42 in
  let x = random_input nn 11 in
  let expect = Nn_interp.run1 nn x in
  let got = Pipeline.infer_encrypted c keys ~seed:12 x in
  let e = max_err expect got in
  if e > 0.02 then Alcotest.failf "encrypted gemv error %.4f" e

let test_encrypted_gemv_expert_matches_too () =
  let nn = Import.import (gemv_graph ()) in
  let c = Pipeline.compile Pipeline.expert nn in
  let keys = Pipeline.make_keys c ~seed:43 in
  let x = random_input nn 13 in
  let expect = Nn_interp.run1 nn x in
  let got = Pipeline.infer_encrypted c keys ~seed:14 x in
  let e = max_err expect got in
  if e > 0.02 then Alcotest.failf "encrypted expert gemv error %.4f" e

let test_encrypted_conv_relu () =
  let nn = Import.import (conv_relu_graph ()) in
  let c = Pipeline.compile Pipeline.ace nn in
  let keys = Pipeline.make_keys c ~seed:44 in
  let x = random_input nn 15 in
  let expect = Nn_interp.run1 nn x in
  let got = Pipeline.infer_encrypted c keys ~seed:16 x in
  let e = max_err expect got in
  (* ReLU approximation dominates the error budget. *)
  if e > 0.15 then Alcotest.failf "encrypted conv+relu error %.4f" e

let test_encrypted_with_forced_bootstrap () =
  (* A shallow chain forces bootstrapping inside the ReLU evaluation. *)
  let nn = Import.import (conv_relu_graph ()) in
  let ctx = Param_select.execution_context ~depth:5 ~slots:32 () in
  let c = Pipeline.compile ~context:ctx Pipeline.ace nn in
  Alcotest.(check bool) "bootstraps present" true
    (Lower_sihe.bootstrap_count c.Pipeline.ckks > 0);
  let keys = Pipeline.make_keys c ~seed:45 in
  let x = random_input nn 17 in
  let expect = Nn_interp.run1 nn x in
  let got = Pipeline.infer_encrypted c keys ~seed:18 x in
  let e = max_err expect got in
  if e > 0.15 then Alcotest.failf "bootstrapped inference error %.4f" e

let test_min_level_bootstrap_targets () =
  let nn = Import.import (conv_relu_graph ()) in
  let ctx () = Param_select.execution_context ~depth:5 ~slots:32 () in
  let a = Pipeline.compile ~context:(ctx ()) Pipeline.ace nn in
  let e = Pipeline.compile ~context:(ctx ()) Pipeline.expert nn in
  let targets f =
    Irfunc.fold f ~init:[] ~f:(fun acc n ->
        match n.Irfunc.op with Op.C_bootstrap t -> t :: acc | _ -> acc)
  in
  let ta = targets a.Pipeline.ckks and te = targets e.Pipeline.ckks in
  Alcotest.(check bool) "both bootstrap" true (ta <> [] && te <> []);
  List.iter (fun t -> Alcotest.(check int) "expert targets full depth" 5 t) te;
  let avg l = float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l) in
  if avg ta >= avg te then
    Alcotest.failf "ACE average target %.1f not below expert %.1f" (avg ta) (avg te)

(* Priced placement: one decision per priced operator, never dearer than
   the rule without a height; every refresh inside the chain and at most
   its operator's height; an operand arriving taller than the height
   keeps its levels (the operator runs from its arrival level down). *)
let check_placement name (c : Pipeline.compiled) =
  let chain = Ace_fhe.Context.max_level c.Pipeline.context in
  let ckks = c.Pipeline.ckks in
  if c.Pipeline.placement = [] then Alcotest.failf "%s: no operator was priced" name;
  List.iter
    (fun (d : Lower_sihe.decision) ->
      if d.ns > d.old_ns then
        Alcotest.failf "%s %s: chosen %.0f ns above the old rule's %.0f ns" name d.origin d.ns
          d.old_ns;
      let top = ref 0 in
      Irfunc.iter ckks (fun n ->
          if n.Irfunc.origin = d.origin then
            match n.Irfunc.op with
            | Op.C_bootstrap t when t > d.height ->
              Alcotest.failf "%s %s: refresh to L%d above height %d" name d.origin t d.height
            | Op.C_bootstrap _ | Op.C_encode -> ()
            | _ -> top := max !top n.Irfunc.node_level);
      if d.entry_level > d.height && !top <> d.entry_level then
        Alcotest.failf "%s %s: arrives at L%d above height %d but runs from L%d" name d.origin
          d.entry_level d.height !top)
    c.Pipeline.placement;
  Irfunc.iter ckks (fun n ->
      match n.Irfunc.op with
      | Op.C_bootstrap t when t < 1 || t > chain ->
        Alcotest.failf "%s: bootstrap target %d outside [1, %d]" name t chain
      | _ -> ())

let spec_nn s =
  match Ace_serve.Model_spec.parse s with Ok m -> Ace_serve.Model_spec.nn m | Error e -> failwith e

let test_priced_placement () =
  List.iter
    (fun name -> check_placement name (Pipeline.compile ~batch:1 Pipeline.ace (spec_nn name)))
    [ "resnet:8:10:8:4"; "resnet20" ]

(* The rule without a height is the full-tower rule as it shipped before
   heights were priced: the first two operators of resnet:8:10:8:4 arrive
   exactly as they did then, and their old-rule prices are the prices of
   the operators that rule emitted (same cost model, same nodes). *)
let test_old_rule_prices () =
  let c = Pipeline.compile ~batch:1 Pipeline.ace (spec_nn "resnet:8:10:8:4") in
  let old_ns origin =
    match List.find_opt (fun (d : Lower_sihe.decision) -> d.origin = origin) c.Pipeline.placement with
    | Some d -> Printf.sprintf "%h" d.old_ns
    | None -> Alcotest.failf "no decision for %s" origin
  in
  Alcotest.(check string) "conv:conv1" "0x1.0c8f625ffffffp+29" (old_ns "conv:conv1");
  Alcotest.(check string) "relu:relu1" "0x1.2f3e3f0cccccdp+28" (old_ns "relu:relu1")

(* Functions that never refresh, and everything the expert strategy
   compiles, lower exactly as before priced placement: the digests are
   those of the CKKS functions the full-tower rule produced. *)
let test_unpriced_functions_unchanged () =
  let digest strategy s =
    match Ace_serve.Model_spec.parse s with
    | Error e -> failwith e
    | Ok m ->
      let c = Pipeline.compile ~batch:1 strategy (Ace_serve.Model_spec.nn m) in
      Digest.to_hex (Digest.string (Ace_ckks_ir.Ir_wire.encode_func c.Pipeline.ckks))
  in
  Alcotest.(check string) "gemv:16:4 (ACE)" "5bba1e3c14e09452a7fae577addd84fa"
    (digest Pipeline.ace "gemv:16:4");
  Alcotest.(check string) "resnet:8:10:8:4 (Expert)" "2b9dfbf1f4700d6a7f6e690ae74e9197"
    (digest Pipeline.expert "resnet:8:10:8:4")

(* --- mini ResNet end to end (slow) --- *)

let test_encrypted_resnet_mini () =
  let spec =
    {
      Ace_models.Resnet.resnet20 with
      Ace_models.Resnet.model_name = "resnet8-mini";
      depth = 8;
      base_channels = 4;
    }
  in
  let nn = Ace_models.Resnet.build_calibrated spec in
  let c = Pipeline.compile Pipeline.ace nn in
  let keys = Pipeline.make_keys c ~seed:46 in
  let rng = Rng.create 19 in
  let x = Array.init (3 * 8 * 8) (fun _ -> Rng.float rng 1.0) in
  let expect = Nn_interp.run1 nn x in
  let got = Pipeline.infer_encrypted c keys ~seed:20 x in
  let e = max_err expect got in
  if e > 0.2 then Alcotest.failf "encrypted resnet-mini error %.4f" e;
  (* Argmax agreement — the Table 11 criterion. *)
  Alcotest.(check int) "argmax preserved" (Ace_models.Dataset.argmax expect)
    (Ace_models.Dataset.argmax got)

(* --- POLY / C backends --- *)

let test_poly_lowering_and_fusion () =
  let c = compile_gemv Pipeline.ace in
  let raw = Ace_poly_ir.Lower_ckks.lower c.Pipeline.ckks in
  let fused = Ace_poly_ir.Loop_fusion.fuse raw in
  Alcotest.(check bool) "loops reduced" true
    (Poly_ir.loop_count fused < Poly_ir.loop_count raw);
  let traffic_before = Poly_ir.memory_traffic raw ~ring_degree:64 ~avg_limbs:8 in
  let traffic_after =
    Poly_ir.memory_traffic (Ace_poly_ir.Op_fusion.fuse fused) ~ring_degree:64 ~avg_limbs:8
  in
  Alcotest.(check bool) "traffic reduced" true (traffic_after <= traffic_before)

let test_op_fusion_creates_fused_ops () =
  let c = compile_gemv Pipeline.ace in
  let raw = Ace_poly_ir.Lower_ckks.lower c.Pipeline.ckks in
  let fused = Ace_poly_ir.Op_fusion.fuse raw in
  Alcotest.(check bool) "fused ops appear" true (Ace_poly_ir.Op_fusion.count_fused fused > 0);
  Alcotest.(check int) "none before" 0 (Ace_poly_ir.Op_fusion.count_fused raw)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_c_backend_emits_runtime_calls () =
  let c = compile_gemv Pipeline.ace in
  let poly, src = Pipeline.emit_c c in
  List.iter
    (fun marker ->
      Alcotest.(check bool) marker true (contains ~needle:marker src))
    [ "#include \"acefhe.h\""; "extern const double *ace_weights"; "Ace_rescale"; "for (int i" ];
  (* The paper's observation: generated C is far smaller than the POLY IR. *)
  Alcotest.(check bool) "C smaller than POLY listing" true
    (Ace_codegen.C_backend.line_count src < Poly_ir.stmt_count poly * 4)

let test_weight_file_roundtrip_size () =
  let c = compile_gemv Pipeline.ace in
  let w = Ace_codegen.C_backend.emit_weights_file c.Pipeline.ckks in
  Alcotest.(check bool) "weights emitted" true (String.length w > 100)

(* --- parameter selection --- *)

let test_param_select_table10_shape () =
  let sel =
    Param_select.select
      {
        Param_select.scale_bits = 26;
        q0_bits = 29;
        special_bits = 29;
        depth = 12;
        simd_slots = 2048;
        security = Ace_fhe.Security.Bits128;
      }
  in
  (* 29 + 12*26 + 29 = 370 bits -> N = 2^14 at 128-bit security. *)
  Alcotest.(check int) "log2 N" 14 sel.Param_select.log2_n;
  Alcotest.(check bool) "security bound" true sel.Param_select.driven_by_security

let test_param_select_simd_bound () =
  let sel =
    Param_select.select
      {
        Param_select.scale_bits = 25;
        q0_bits = 29;
        special_bits = 29;
        depth = 1;
        simd_slots = 32768;
        security = Ace_fhe.Security.Bits128;
      }
  in
  Alcotest.(check int) "log2 N" 16 sel.Param_select.log2_n;
  Alcotest.(check bool) "SIMD bound" true (not sel.Param_select.driven_by_security)

let test_param_select_rejects_impossible () =
  try
    ignore
      (Param_select.select
         {
           Param_select.scale_bits = 40;
           q0_bits = 60;
           special_bits = 60;
           depth = 60;
           simd_slots = 2048;
           security = Ace_fhe.Security.Bits128;
         });
    Alcotest.fail "expected No_parameters"
  with Param_select.No_parameters _ -> ()

let () =
  Alcotest.run "compiler"
    [
      ( "sihe",
        [
          Alcotest.test_case "lowering matches vector modulo approx" `Quick
            test_sihe_lowering_matches_vector;
          Alcotest.test_case "unknown nonlinear rejected" `Quick test_sihe_rejects_unknown_nonlinear;
        ] );
      ( "ckks",
        [
          Alcotest.test_case "scales validate" `Quick test_ckks_scales_validate;
          Alcotest.test_case "rotation fusion" `Quick test_ckks_fusion_composes_rotations;
          Alcotest.test_case "rescale after rotate-batch fusion" `Quick
            test_verifier_rescale_after_batching;
          Alcotest.test_case "bootstrap level range" `Quick test_verifier_bootstrap_levels;
          Alcotest.test_case "expert decomposition" `Quick test_expert_rotations_are_decomposed;
          Alcotest.test_case "ACE fewer rotations" `Quick test_ace_fewer_rotations_than_expert;
          Alcotest.test_case "ACE fewer rescales" `Quick test_ace_fewer_rescales_than_expert;
          Alcotest.test_case "key plans differ" `Quick test_key_plan_sizes;
          Alcotest.test_case "min-level bootstrap targets" `Quick test_min_level_bootstrap_targets;
          Alcotest.test_case "priced placement" `Quick test_priced_placement;
          Alcotest.test_case "old rule priced as it shipped" `Quick test_old_rule_prices;
          Alcotest.test_case "unpriced functions unchanged" `Quick
            test_unpriced_functions_unchanged;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "encrypted gemv (ACE)" `Quick test_encrypted_gemv_matches_reference;
          Alcotest.test_case "encrypted gemv (Expert)" `Quick test_encrypted_gemv_expert_matches_too;
          Alcotest.test_case "encrypted conv+relu" `Quick test_encrypted_conv_relu;
          Alcotest.test_case "forced bootstrap" `Quick test_encrypted_with_forced_bootstrap;
          Alcotest.test_case "encrypted resnet-mini" `Slow test_encrypted_resnet_mini;
        ] );
      ( "poly",
        [
          Alcotest.test_case "loop fusion" `Quick test_poly_lowering_and_fusion;
          Alcotest.test_case "op fusion" `Quick test_op_fusion_creates_fused_ops;
          Alcotest.test_case "C backend" `Quick test_c_backend_emits_runtime_calls;
          Alcotest.test_case "weights file" `Quick test_weight_file_roundtrip_size;
        ] );
      ( "params",
        [
          Alcotest.test_case "table 10 shape" `Quick test_param_select_table10_shape;
          Alcotest.test_case "SIMD bound" `Quick test_param_select_simd_bound;
          Alcotest.test_case "impossible rejected" `Quick test_param_select_rejects_impossible;
        ] );
    ]
