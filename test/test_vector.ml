(* VECTOR-level tests: layouts, lowering vs the NN reference, interpreter. *)
module Layout = Ace_vector.Layout
module Lower_nn = Ace_vector.Lower_nn
module Vec_interp = Ace_vector.Vec_interp
module Nn_interp = Ace_nn.Nn_interp
module Import = Ace_nn.Import
module Builder = Ace_onnx.Builder
module Model = Ace_onnx.Model
module Rng = Ace_util.Rng
open Ace_ir

let max_err a b =
  let e = ref 0.0 in
  Array.iteri (fun i x -> e := max !e (abs_float (x -. b.(i)))) a;
  !e

(* --- layout --- *)

let test_layout_positions () =
  let l = Layout.create ~channels:4 ~height:8 ~width:8 ~slots:2048 in
  Alcotest.(check int) "block" 64 (Layout.block_size l);
  Alcotest.(check int) "pos c0" 0 (Layout.pos l ~c:0 ~h:0 ~w:0);
  Alcotest.(check int) "pos c1" 64 (Layout.pos l ~c:1 ~h:0 ~w:0);
  Alcotest.(check int) "pos hw" ((2 * 64) + (3 * 8) + 5) (Layout.pos l ~c:2 ~h:3 ~w:5)

let test_layout_stride_gap () =
  let l = Layout.create ~channels:4 ~height:8 ~width:8 ~slots:2048 in
  let l2 = Layout.with_stride l 2 in
  Alcotest.(check int) "gap" 2 l2.Layout.gap;
  Alcotest.(check int) "logical h" 4 l2.Layout.height;
  (* logical (1,1) sits at physical (2,2) *)
  Alcotest.(check int) "pos" ((2 * 8) + 2) (Layout.pos l2 ~c:0 ~h:1 ~w:1)

let test_layout_pack_roundtrip () =
  let l = Layout.create ~channels:3 ~height:4 ~width:4 ~slots:512 in
  let rng = Rng.create 3 in
  let t = Array.init (3 * 4 * 4) (fun _ -> Rng.float rng 1.0) in
  let v = Layout.vector_of_tensor l t in
  Alcotest.(check bool) "roundtrip" true (Layout.tensor_of_vector l v = t)

let test_layout_rejects_overflow () =
  try
    ignore (Layout.create ~channels:64 ~height:8 ~width:8 ~slots:2048);
    Alcotest.fail "expected overflow rejection"
  with Invalid_argument _ -> ()

(* --- lowering correctness vs NN reference --- *)

let lower_and_compare ?(tol = 1e-6) ~cfg g =
  let f = Import.import g in
  let vf, out_layouts = Lower_nn.lower cfg f in
  Verify.verify vf;
  let in_layout = Lower_nn.input_layout cfg f in
  let rng = Rng.create 11 in
  let in_elems = Types.tensor_elems (snd (Irfunc.params f).(0)) in
  let x = Array.init in_elems (fun _ -> Rng.float rng 1.0) in
  let expect = Nn_interp.run1 f x in
  let packed = Layout.vector_of_tensor in_layout x in
  let got_vec = Vec_interp.run1 vf packed in
  let got = Layout.tensor_of_vector (List.hd out_layouts) got_vec in
  let e = max_err expect got in
  if e > tol then Alcotest.failf "lowering diverges from NN reference: %.3e" e;
  vf

let cfg_base = { Lower_nn.slots = 2048; batch = 1; conv_regroup = true; gemm_bsgs = true }

let gemv_graph () =
  let b = Builder.create "gemv" in
  Builder.input b "x" [| 32 |];
  Builder.init_normal b "w" [| 10; 32 |] ~seed:3 ~std:0.3;
  Builder.init_normal b "bias" [| 10 |] ~seed:4 ~std:0.1;
  Builder.node b ~op:"Gemm" ~inputs:[ "x"; "w"; "bias" ] "y";
  Builder.output b "y" [| 10 |];
  Builder.finish b

let conv_graph ~in_c ~out_c ~stride () =
  let b = Builder.create "conv" in
  Builder.input b "x" [| in_c; 8; 8 |];
  Builder.init_normal b "w" [| out_c; in_c; 3; 3 |] ~seed:5 ~std:0.2;
  Builder.init_normal b "bias" [| out_c |] ~seed:6 ~std:0.1;
  Builder.node b ~op:"Conv"
    ~attrs:[ ("strides", Model.A_ints [ stride; stride ]); ("pads", Model.A_ints [ 1; 1; 1; 1 ]) ]
    ~inputs:[ "x"; "w"; "bias" ] "y";
  let o = ((8 + 2 - 3) / stride) + 1 in
  Builder.output b "y" [| out_c; o; o |];
  Builder.finish b

let test_lower_gemv_bsgs () = ignore (lower_and_compare ~cfg:cfg_base (gemv_graph ()))

let test_lower_gemv_direct () =
  ignore (lower_and_compare ~cfg:{ cfg_base with Lower_nn.gemm_bsgs = false } (gemv_graph ()))

let test_lower_conv_same_channels () =
  ignore (lower_and_compare ~cfg:cfg_base (conv_graph ~in_c:4 ~out_c:4 ~stride:1 ()))

let test_lower_conv_channel_growth () =
  ignore (lower_and_compare ~cfg:cfg_base (conv_graph ~in_c:4 ~out_c:8 ~stride:1 ()))

let test_lower_conv_direct_form () =
  ignore
    (lower_and_compare ~cfg:{ cfg_base with Lower_nn.conv_regroup = false }
       (conv_graph ~in_c:4 ~out_c:4 ~stride:1 ()))

let test_lower_conv_stride2 () =
  ignore (lower_and_compare ~cfg:cfg_base (conv_graph ~in_c:4 ~out_c:8 ~stride:2 ()))

let test_regroup_uses_fewer_rolls () =
  let count_rolls vf =
    Irfunc.fold vf ~init:0 ~f:(fun acc n ->
        match n.Irfunc.op with Op.V_roll _ -> acc + 1 | _ -> acc)
  in
  let g = conv_graph ~in_c:8 ~out_c:8 ~stride:1 () in
  let on = lower_and_compare ~cfg:cfg_base g in
  let off = lower_and_compare ~cfg:{ cfg_base with Lower_nn.conv_regroup = false } g in
  if count_rolls on >= count_rolls off then
    Alcotest.failf "regrouping did not reduce rolls: %d vs %d" (count_rolls on) (count_rolls off)

let test_bsgs_uses_fewer_rolls () =
  let count_rolls vf =
    Irfunc.fold vf ~init:0 ~f:(fun acc n ->
        match n.Irfunc.op with Op.V_roll _ -> acc + 1 | _ -> acc)
  in
  let g = gemv_graph () in
  let on = lower_and_compare ~cfg:cfg_base g in
  let off = lower_and_compare ~cfg:{ cfg_base with Lower_nn.gemm_bsgs = false } g in
  if count_rolls on >= count_rolls off then
    Alcotest.failf "BSGS did not reduce rolls: %d vs %d" (count_rolls on) (count_rolls off)

let pool_graph () =
  let b = Builder.create "pool" in
  Builder.input b "x" [| 2; 8; 8 |];
  Builder.node b ~op:"AveragePool"
    ~attrs:[ ("kernel_shape", Model.A_ints [ 2; 2 ]); ("strides", Model.A_ints [ 2; 2 ]) ]
    ~inputs:[ "x" ] "y";
  Builder.output b "y" [| 2; 4; 4 |];
  Builder.finish b

let gap_graph () =
  let b = Builder.create "gap" in
  Builder.input b "x" [| 4; 8; 8 |];
  Builder.node b ~op:"GlobalAveragePool" ~inputs:[ "x" ] "y";
  Builder.output b "y" [| 4 |];
  Builder.finish b

let test_lower_average_pool () = ignore (lower_and_compare ~cfg:cfg_base (pool_graph ()))
let test_lower_global_average_pool () = ignore (lower_and_compare ~cfg:cfg_base (gap_graph ()))

let test_lower_relu_and_add () =
  let b = Builder.create "resblock" in
  Builder.input b "x" [| 4; 8; 8 |];
  Builder.init_normal b "w" [| 4; 4; 3; 3 |] ~seed:8 ~std:0.2;
  Builder.init_normal b "bias" [| 4 |] ~seed:9 ~std:0.1;
  Builder.node b ~op:"Conv" ~attrs:[ ("pads", Model.A_ints [ 1; 1; 1; 1 ]) ]
    ~inputs:[ "x"; "w"; "bias" ] "c";
  Builder.node b ~op:"Relu" ~inputs:[ "c" ] "r";
  Builder.node b ~op:"Add" ~inputs:[ "r"; "x" ] "s";
  Builder.output b "s" [| 4; 8; 8 |];
  ignore (lower_and_compare ~cfg:cfg_base (Builder.finish b))

let test_lower_resnet_mini_end_to_end () =
  (* A full miniature ResNet (depth 8) through the lowering. *)
  let spec =
    { Ace_models.Resnet.resnet20 with Ace_models.Resnet.model_name = "resnet8"; depth = 8 }
  in
  let f = Ace_models.Resnet.build_calibrated spec in
  let cfg = cfg_base in
  let vf, out_layouts = Lower_nn.lower cfg f in
  Verify.verify vf;
  let in_layout = Lower_nn.input_layout cfg f in
  let rng = Rng.create 21 in
  let x = Array.init (3 * 8 * 8) (fun _ -> Rng.float rng 1.0) in
  let expect = Nn_interp.run1 f x in
  let got_vec = Vec_interp.run1 vf (Layout.vector_of_tensor in_layout x) in
  let got = Layout.tensor_of_vector (List.hd out_layouts) got_vec in
  let e = max_err expect got in
  if e > 1e-6 then Alcotest.failf "resnet-mini lowering error %.3e" e

(* --- mask dedup --- *)

module Mask_tbl = Hashtbl.Make (Lower_nn.Mask_key)

let test_mask_table_whole_mask () =
  let mask tail = Array.init 256 (fun i -> if i < 64 then 0.0 else tail *. float_of_int i) in
  let a = mask 1.0 and b = mask 2.0 in
  let h = Lower_nn.Mask_key.hash in
  Alcotest.(check bool) "shared 64-float prefix, different hashes" true (h a <> h b);
  let t = Mask_tbl.create 8 in
  Mask_tbl.add t a "a";
  Mask_tbl.add t b "b";
  Alcotest.(check (option string)) "first mask" (Some "a") (Mask_tbl.find_opt t a);
  Alcotest.(check (option string)) "second mask" (Some "b") (Mask_tbl.find_opt t b);
  Alcotest.(check (option string)) "an equal copy finds the same binding" (Some "a")
    (Mask_tbl.find_opt t (Array.copy a));
  (* the same classes [compare] identifies *)
  let neg = Array.map (fun x -> if x = 0.0 then -0.0 else x) a in
  Alcotest.(check bool) "-0.0 hashes as 0.0" true (h neg = h a);
  Alcotest.(check (option string)) "-0.0 mask finds the 0.0 mask" (Some "a")
    (Mask_tbl.find_opt t neg);
  let nan1 = [| Float.nan; 1.0 |] and nan2 = [| -.Float.nan; 1.0 |] in
  Alcotest.(check bool) "NaNs hash alike" true (h nan1 = h nan2);
  Mask_tbl.add t nan1 "nan";
  Alcotest.(check (option string)) "NaN mask found" (Some "nan") (Mask_tbl.find_opt t nan2)

(* Lowering a ResNet: every mask constant is distinct (identical masks
   share one), and some distinct masks share a 64-float prefix. *)
let test_lowering_dedups_masks () =
  let spec =
    { Ace_models.Resnet.resnet20 with Ace_models.Resnet.model_name = "resnet8"; depth = 8 }
  in
  let f = Ace_models.Resnet.build_calibrated spec in
  let vf, _ = Lower_nn.lower cfg_base f in
  let from_nn = Irfunc.const_names f in
  let masks =
    Irfunc.const_names vf
    |> List.filter (fun n -> not (List.mem n from_nn))
    |> List.map (Irfunc.const vf)
    |> List.sort compare
  in
  let rec adjacent_distinct = function
    | a :: (b :: _ as rest) -> compare a b <> 0 && adjacent_distinct rest
    | _ -> true
  in
  Alcotest.(check bool) "many masks" true (List.length masks > 10);
  Alcotest.(check bool) "no two mask constants are equal" true (adjacent_distinct masks);
  let prefix m = Array.sub m 0 64 in
  let prefixes = List.sort_uniq compare (List.map prefix masks) in
  Alcotest.(check bool) "distinct masks share 64-float prefixes" true
    (List.length prefixes < List.length masks)

let test_rotation_amount_analysis () =
  let vf = lower_and_compare ~cfg:cfg_base (conv_graph ~in_c:4 ~out_c:4 ~stride:1 ()) in
  let rots = Lower_nn.rotation_amounts vf in
  Alcotest.(check bool) "non-empty" true (rots <> []);
  List.iter (fun k -> if k = 0 then Alcotest.fail "zero rotation leaked") rots;
  (* sorted unique *)
  let sorted = List.sort_uniq compare rots in
  Alcotest.(check bool) "distinct sorted" true (sorted = rots)

(* --- interpreter op semantics --- *)

let test_interp_roll () =
  let f = Irfunc.create ~name:"roll" ~level:Level.Vector ~params:[ ("x", Types.Vec 8) ] in
  let r = Irfunc.add f (Op.V_roll 3) [| Irfunc.param f 0 |] (Types.Vec 8) in
  Irfunc.set_returns f [ r ];
  let out = Vec_interp.run1 f [| 0.; 1.; 2.; 3.; 4.; 5.; 6.; 7. |] in
  Alcotest.(check bool) "left shift" true (out = [| 3.; 4.; 5.; 6.; 7.; 0.; 1.; 2. |])

let test_interp_slice_tile () =
  let f = Irfunc.create ~name:"st" ~level:Level.Vector ~params:[ ("x", Types.Vec 4) ] in
  let s =
    Irfunc.add f (Op.V_slice { Op.start = 1; slice_len = 2; stride = 2 }) [| Irfunc.param f 0 |]
      (Types.Vec 2)
  in
  let t = Irfunc.add f (Op.V_tile 3) [| s |] (Types.Vec 6) in
  Irfunc.set_returns f [ t ];
  let out = Vec_interp.run1 f [| 10.; 11.; 12.; 13. |] in
  Alcotest.(check bool) "slice+tile" true (out = [| 11.; 11.; 11.; 13.; 13.; 13. |])

let prop_layout_pack_roundtrip =
  QCheck.Test.make ~name:"layout pack/unpack roundtrip" ~count:100
    QCheck.(triple (int_range 1 8) (int_range 0 2) (int_range 0 3))
    (fun (c, hpow, seed) ->
      let h = 1 lsl hpow in
      let l = Layout.create ~channels:c ~height:h ~width:h ~slots:512 in
      let rng = Rng.create seed in
      let t = Array.init (c * h * h) (fun _ -> Rng.float rng 1.0) in
      Layout.tensor_of_vector l (Layout.vector_of_tensor l t) = t)

let prop_roll_composes =
  QCheck.Test.make ~name:"roll composition = roll of sum" ~count:100
    QCheck.(triple (int_range 0 63) (int_range 0 63) (int_range 0 99))
    (fun (a, b, seed) ->
      let n = 64 in
      let rng = Rng.create seed in
      let v = Array.init n (fun _ -> Rng.float rng 1.0) in
      let roll v k = Array.init n (fun i -> v.((i + k) mod n)) in
      roll (roll v a) b = roll v ((a + b) mod n))

let () =
  Alcotest.run "vector"
    [
      ( "layout",
        [
          Alcotest.test_case "positions" `Quick test_layout_positions;
          Alcotest.test_case "stride gap" `Quick test_layout_stride_gap;
          Alcotest.test_case "pack roundtrip" `Quick test_layout_pack_roundtrip;
          Alcotest.test_case "overflow rejected" `Quick test_layout_rejects_overflow;
        ] );
      ( "lowering",
        [
          Alcotest.test_case "gemv bsgs" `Quick test_lower_gemv_bsgs;
          Alcotest.test_case "gemv direct" `Quick test_lower_gemv_direct;
          Alcotest.test_case "conv same channels" `Quick test_lower_conv_same_channels;
          Alcotest.test_case "conv channel growth" `Quick test_lower_conv_channel_growth;
          Alcotest.test_case "conv direct form" `Quick test_lower_conv_direct_form;
          Alcotest.test_case "conv stride 2" `Quick test_lower_conv_stride2;
          Alcotest.test_case "regroup reduces rolls" `Quick test_regroup_uses_fewer_rolls;
          Alcotest.test_case "bsgs reduces rolls" `Quick test_bsgs_uses_fewer_rolls;
          Alcotest.test_case "average pool" `Quick test_lower_average_pool;
          Alcotest.test_case "global average pool" `Quick test_lower_global_average_pool;
          Alcotest.test_case "relu + residual add" `Quick test_lower_relu_and_add;
          Alcotest.test_case "resnet-mini end to end" `Quick test_lower_resnet_mini_end_to_end;
          Alcotest.test_case "rotation analysis" `Quick test_rotation_amount_analysis;
          Alcotest.test_case "mask table hashes whole masks" `Quick test_mask_table_whole_mask;
          Alcotest.test_case "lowering dedups masks" `Quick test_lowering_dedups_masks;
        ] );
      ( "interp",
        [
          Alcotest.test_case "roll" `Quick test_interp_roll;
          Alcotest.test_case "slice/tile" `Quick test_interp_slice_tile;
          QCheck_alcotest.to_alcotest prop_layout_pack_roundtrip;
          QCheck_alcotest.to_alcotest prop_roll_composes;
        ] );
    ]
