(* POLY IR: structure, fusion legality, C emission details. *)
module Poly_ir = Ace_poly_ir.Poly_ir
module Loop_fusion = Ace_poly_ir.Loop_fusion
module Op_fusion = Ace_poly_ir.Op_fusion
open Poly_ir

let f_of body = { poly_name = "t"; poly_params = [ "x" ]; body; returns = [ "r" ] }

let loop ?(idx = "i") ?(bound = Num_q ("p", 4)) body = For { idx; bound; body }
let hw dst op args = Hw { h_dst = dst; h_op = op; h_args = args }

let test_counts () =
  let f = f_of [ loop [ hw "a" Hw_modadd [ "x"; "y" ] ]; Comment "c" ] in
  Alcotest.(check int) "stmts" 3 (stmt_count f);
  Alcotest.(check int) "loops" 1 (loop_count f)

let test_loop_fusion_same_bound () =
  let f =
    f_of
      [
        loop [ hw "a" Hw_modadd [ "x"; "y" ] ];
        loop ~bound:(Num_q ("q", 4)) [ hw "b" Hw_modmul [ "a"; "z" ] ];
      ]
  in
  let g = Loop_fusion.fuse f in
  Alcotest.(check int) "fused to one loop" 1 (loop_count g);
  Alcotest.(check int) "loops saved" 1 (Loop_fusion.fused_loops f g)

let test_loop_fusion_respects_trip_counts () =
  let f =
    f_of
      [
        loop ~bound:(Num_q ("p", 4)) [ hw "a" Hw_modadd [ "x"; "y" ] ];
        loop ~bound:(Num_q ("q", 7)) [ hw "b" Hw_modmul [ "a"; "z" ] ];
      ]
  in
  Alcotest.(check int) "not fused" 2 (loop_count (Loop_fusion.fuse f))

let test_loop_fusion_skips_non_elementwise () =
  let f =
    f_of
      [
        loop [ hw "a" Hw_modadd [ "x"; "y" ] ];
        loop [ Call { c_dst = "d"; c_op = P_rescale; c_args = [ "a" ] } ];
      ]
  in
  Alcotest.(check int) "not fused" 2 (loop_count (Loop_fusion.fuse f))

let test_loop_fusion_not_adjacent () =
  let f =
    f_of
      [
        loop [ hw "a" Hw_modadd [ "x"; "y" ] ];
        Call { c_dst = "m"; c_op = P_mod_down; c_args = [ "a" ] };
        loop [ hw "b" Hw_modmul [ "m"; "z" ] ];
      ]
  in
  Alcotest.(check int) "separated loops stay" 2 (loop_count (Loop_fusion.fuse f))

let test_loop_fusion_reduces_traffic () =
  let f =
    f_of
      [
        loop [ hw "t" Hw_modadd [ "x"; "y" ] ];
        loop [ hw "r" Hw_modmul [ "t"; "z" ] ];
      ]
  in
  let g = Loop_fusion.fuse f in
  (* Fusion alone keeps the same Hw statements; the win is measured after
     op fusion collapses the chain through the shared loop. *)
  let g = Op_fusion.fuse g in
  Alcotest.(check bool) "traffic reduced" true
    (memory_traffic g ~ring_degree:64 ~avg_limbs:4
    <= memory_traffic f ~ring_degree:64 ~avg_limbs:4)

let test_op_fusion_muladd () =
  let body = [ loop [ hw "t" Hw_modmul [ "a"; "b" ]; hw "r" Hw_modadd [ "t"; "c" ] ] ] in
  let g = Op_fusion.fuse (f_of body) in
  Alcotest.(check int) "one fused op" 1 (Op_fusion.count_fused g);
  (* the fused op must keep all three inputs *)
  (match g.body with
  | [ For { body = [ Hw { h_op = Hw_modmuladd; h_args; _ } ]; _ } ] ->
    Alcotest.(check (list string)) "args" [ "a"; "b"; "c" ] h_args
  | _ -> Alcotest.fail "unexpected shape")

let test_op_fusion_needs_dataflow () =
  (* The add does not consume the mul's result: no fusion. *)
  let body = [ loop [ hw "t" Hw_modmul [ "a"; "b" ]; hw "r" Hw_modadd [ "u"; "c" ] ] ] in
  let g = Op_fusion.fuse (f_of body) in
  Alcotest.(check int) "no fusion" 0 (Op_fusion.count_fused g)

let test_op_fusion_decomp_modup () =
  let body =
    [
      Call { c_dst = "d"; c_op = P_decomp; c_args = [ "x" ] };
      Call { c_dst = "e"; c_op = P_mod_up; c_args = [ "d" ] };
    ]
  in
  let g = Op_fusion.fuse (f_of body) in
  Alcotest.(check int) "fused" 1 (Op_fusion.count_fused g);
  match g.body with
  | [ Call { c_op = P_decomp_modup; c_args = [ "x" ]; c_dst = "e" } ] -> ()
  | _ -> Alcotest.fail "decomp_modup shape"

let test_pretty_printer () =
  let f = f_of [ loop [ hw "a" Hw_modadd [ "x"; "y" ] ] ] in
  let s = to_string f in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "loop header" true (contains "for i < num_q(p)" s);
  Alcotest.(check bool) "hw op" true (contains "hw_modadd" s)

(* Structure produced by the real lowering: rotations must contain the
   key-switch skeleton (decomp -> mod_up -> inner loop -> mod_down). *)
let test_lowered_rotation_has_keyswitch_skeleton () =
  let nn =
    let b = Ace_onnx.Builder.create "g" in
    Ace_onnx.Builder.input b "x" [| 8 |];
    Ace_onnx.Builder.init_normal b "w" [| 4; 8 |] ~seed:1 ~std:0.2;
    Ace_onnx.Builder.init_zeros b "bias" [| 4 |];
    Ace_onnx.Builder.node b ~op:"Gemm" ~inputs:[ "x"; "w"; "bias" ] "y";
    Ace_onnx.Builder.output b "y" [| 4 |];
    Ace_nn.Import.import (Ace_onnx.Builder.finish b)
  in
  let c = Ace_driver.Pipeline.compile Ace_driver.Pipeline.ace nn in
  let raw = Ace_poly_ir.Lower_ckks.lower c.Ace_driver.Pipeline.ckks in
  let count op =
    let rec go acc = function
      | For { body; _ } -> List.fold_left go acc body
      | Call { c_op; _ } when c_op = op -> acc + 1
      | _ -> acc
    in
    List.fold_left go 0 raw.body
  in
  Alcotest.(check bool) "decomp present" true (count P_decomp > 0);
  Alcotest.(check bool) "mod_up present" true (count P_mod_up > 0);
  Alcotest.(check bool) "mod_down present" true (count P_mod_down > 0);
  (* after op fusion, decomp+mod_up pairs become decomp_modup *)
  let fused = Op_fusion.fuse raw in
  let count_fused_in f =
    let rec go acc = function
      | For { body; _ } -> List.fold_left go acc body
      | Call { c_op = P_decomp_modup; _ } -> acc + 1
      | _ -> acc
    in
    List.fold_left go 0 f.body
  in
  Alcotest.(check bool) "decomp_modup after fusion" true (count_fused_in fused > 0)

let test_c_backend_inline_weights () =
  let nn =
    let b = Ace_onnx.Builder.create "g2" in
    Ace_onnx.Builder.input b "x" [| 8 |];
    Ace_onnx.Builder.init_normal b "w" [| 4; 8 |] ~seed:2 ~std:0.2;
    Ace_onnx.Builder.init_zeros b "bias" [| 4 |];
    Ace_onnx.Builder.node b ~op:"Gemm" ~inputs:[ "x"; "w"; "bias" ] "y";
    Ace_onnx.Builder.output b "y" [| 4 |];
    Ace_nn.Import.import (Ace_onnx.Builder.finish b)
  in
  let c = Ace_driver.Pipeline.compile Ace_driver.Pipeline.ace nn in
  let poly, extern = Ace_driver.Pipeline.emit_c c in
  let inline = Ace_codegen.C_backend.emit ~extern_weights:false c.Ace_driver.Pipeline.ckks poly in
  (* The paper's Section 3.4 point: externalising weights shrinks the file. *)
  Alcotest.(check bool) "extern smaller" true (String.length extern < String.length inline)

let () =
  Alcotest.run "poly_ir"
    [
      ( "structure",
        [
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "pretty printer" `Quick test_pretty_printer;
        ] );
      ( "loop fusion",
        [
          Alcotest.test_case "same trip count" `Quick test_loop_fusion_same_bound;
          Alcotest.test_case "different trip counts" `Quick test_loop_fusion_respects_trip_counts;
          Alcotest.test_case "non-elementwise" `Quick test_loop_fusion_skips_non_elementwise;
          Alcotest.test_case "non-adjacent" `Quick test_loop_fusion_not_adjacent;
          Alcotest.test_case "traffic" `Quick test_loop_fusion_reduces_traffic;
        ] );
      ( "op fusion",
        [
          Alcotest.test_case "muladd" `Quick test_op_fusion_muladd;
          Alcotest.test_case "needs dataflow" `Quick test_op_fusion_needs_dataflow;
          Alcotest.test_case "decomp+modup" `Quick test_op_fusion_decomp_modup;
        ] );
      ( "lowering",
        [
          Alcotest.test_case "keyswitch skeleton" `Quick test_lowered_rotation_has_keyswitch_skeleton;
          Alcotest.test_case "extern vs inline weights" `Quick test_c_backend_inline_weights;
        ] );
    ]
