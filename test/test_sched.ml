(* Release plan and resumable execution: Sched.plan's release sets on
   hand-built graphs, the VM releasing exactly that plan, the plaintext
   cache's transparency, and interleaved Vm.step executions against
   Vm.run. *)
module Domain_pool = Ace_util.Domain_pool
module Rns_poly = Ace_rns.Rns_poly
module Limb_pool = Ace_rns.Limb_pool
module Sched = Ace_codegen.Sched
module Vm = Ace_codegen.Vm
module Pipeline = Ace_driver.Pipeline
module Param_select = Ace_ckks_ir.Param_select
module Lower_sihe = Ace_ckks_ir.Lower_sihe
module Import = Ace_nn.Import
module Builder = Ace_onnx.Builder
module Model = Ace_onnx.Model
module Rng = Ace_util.Rng
module Fhe = Ace_fhe
open Ace_ir

let with_domains n f =
  Domain_pool.set_num_domains n;
  Fun.protect ~finally:(fun () -> Domain_pool.set_num_domains 1) f

let with_slab_pool f =
  let was = Limb_pool.enabled () in
  Limb_pool.set_enabled true;
  Fun.protect ~finally:(fun () -> Limb_pool.set_enabled was) f

(* ---- the release plan on hand-built graphs ---- *)

let test_diamond () =
  let f = Irfunc.create ~name:"diamond" ~level:Level.Ckks ~params:[ ("x", Types.Vec 8) ] in
  let p = Irfunc.param f 0 in
  let a = Irfunc.add f Op.C_add [| p; p |] (Types.Vec 8) in
  let b = Irfunc.add f Op.C_add [| p; p |] (Types.Vec 8) in
  let j = Irfunc.add f Op.C_add [| a; b |] (Types.Vec 8) in
  Irfunc.set_returns f [ j ];
  let s = Sched.plan f in
  Sched.check f s;
  (* The param dies after its last reader (the second arm), the arms
     after the join; the returned join is never released. *)
  let free = Sched.free_after s in
  Alcotest.(check (array int)) "param freed after the second arm" [| p |] free.(b);
  Alcotest.(check (array int)) "nothing freed after the first arm" [||] free.(a);
  Alcotest.(check (array int)) "arms freed after join" [| a; b |] free.(j);
  Alcotest.(check bool) "return never freed" true
    (not (Array.exists (Array.exists (( = ) j)) free))

(* ---- bit-identity and slab accounting ---- *)

let gemv_graph () =
  let b = Builder.create "gemv" in
  Builder.input b "x" [| 16 |];
  Builder.init_normal b "w" [| 4; 16 |] ~seed:3 ~std:0.2;
  Builder.init_normal b "bias" [| 4 |] ~seed:4 ~std:0.05;
  Builder.node b ~op:"Gemm" ~inputs:[ "x"; "w"; "bias" ] "y";
  Builder.output b "y" [| 4 |];
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

let check_ct_equal what (a : Ace_fhe.Ciphertext.ct) (b : Ace_fhe.Ciphertext.ct) =
  Alcotest.(check int) (what ^ ": size") (Ace_fhe.Ciphertext.size a) (Ace_fhe.Ciphertext.size b);
  Alcotest.(check (float 0.0))
    (what ^ ": scale") a.Ace_fhe.Ciphertext.ct_scale b.Ace_fhe.Ciphertext.ct_scale;
  Array.iteri
    (fun i pa ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: poly %d bit-identical" what i)
        true
        (Rns_poly.equal pa b.Ace_fhe.Ciphertext.polys.(i)))
    a.Ace_fhe.Ciphertext.polys

let run_with c keys x =
  let ct = Pipeline.encrypt_input c keys ~seed:7 x in
  Pipeline.run_encrypted c keys ~seed:8 ct

(* The resident runtime's plaintext-encode cache must be transparent at
   both pool widths: first and second inference bit-identical to the
   throwaway-VM path. *)
let test_pt_cache_identity () =
  let c = Pipeline.compile Pipeline.ace (Import.import (gemv_graph ())) in
  let keys = Pipeline.make_keys c ~seed:5 in
  let rng = Rng.create 9 in
  let x = Array.init 16 (fun _ -> Rng.float rng 1.0 -. 0.5) in
  let reference = with_domains 1 (fun () -> run_with c keys x) in
  List.iter
    (fun domains ->
      with_domains domains @@ fun () ->
      let rt = Pipeline.make_runtime c keys ~seed:8 in
      let ct () = Pipeline.encrypt_input c keys ~seed:7 x in
      let first = Pipeline.run_encrypted_rt rt (ct ()) in
      let second = Pipeline.run_encrypted_rt rt (ct ()) in
      let what = Printf.sprintf "pt-cache at %d domains" domains in
      check_ct_equal (what ^ " first") reference first;
      check_ct_equal (what ^ " second (cache hit)") reference second)
    [ 1; 2 ]

(* The VM frees exactly Sched.plan: a rotation batch with one view that
   nothing reads is released after its last read view's reader, so every
   slab the run takes comes back. (A VM that treated the unread view as
   pinning its batch would leak the batch's slabs.) *)
let test_unread_view_releases_batch () =
  with_slab_pool @@ fun () ->
  let ctx = Param_select.execution_context ~slots:32 () in
  let delta = Fhe.Context.scale ctx and chain = Fhe.Context.max_level ctx in
  let f = Irfunc.create ~name:"unread-view" ~level:Level.Ckks ~params:[ ("x", Types.Cipher) ] in
  let annotate id =
    (Irfunc.node f id).Irfunc.scale <- delta;
    (Irfunc.node f id).Irfunc.node_level <- chain
  in
  let p = Irfunc.param f 0 in
  let rb = Irfunc.add f (Op.C_rotate_batch [| 1; 2 |]) [| p |] Types.Cipher in
  let v0 = Irfunc.add f (Op.C_batch_get 0) [| rb |] Types.Cipher in
  let unread = Irfunc.add f (Op.C_batch_get 1) [| rb |] Types.Cipher in
  let out = Irfunc.add f Op.C_add [| v0; p |] Types.Cipher in
  List.iter annotate [ p; rb; v0; unread; out ];
  Irfunc.set_returns f [ out ];
  let s = Sched.plan f in
  Sched.check f s;
  Alcotest.(check bool) "plan releases the batch after the read view's reader" true
    (Array.mem rb (Sched.free_after s).(out));
  let keys = Fhe.Keys.generate ctx ~rng:(Rng.create 3) ~rotations:[ 1; 2 ] in
  let x = Array.init (Fhe.Context.slots ctx) (fun i -> float_of_int (i mod 7) /. 7.0) in
  let ct =
    Fhe.Eval.encrypt keys ~rng:(Rng.create 4)
      (Fhe.Encoder.encode ctx ~level:chain ~scale:delta x)
  in
  let vm =
    Vm.prepare ~keys ~bootstrap:(fun ~node:_ ~target_level:_ _ -> assert false) f
  in
  Limb_pool.reset_stats ();
  (match Vm.run vm [ ct ] with
  | [ o ] -> Fhe.Ciphertext.release o
  | _ -> Alcotest.fail "expected one output");
  let st = Limb_pool.stats () in
  Alcotest.(check bool) "some slabs were used" true (st.Limb_pool.slab_hits + st.slab_misses > 0);
  Alcotest.(check int) "slab acquires = releases + drops"
    (st.Limb_pool.slab_hits + st.slab_misses)
    (st.slab_releases + st.slab_dropped)

(* ---- resumable execution: Vm.start / Vm.step / Vm.abort ---- *)

let suspensions () = Ace_telemetry.Telemetry.(count_of (metric "vm.node_suspensions"))

(* Two executions of ONE prepared runtime (sharing its plaintext cache),
   stepped alternately one node or key-switch piece at a time (so every
   key switch suspends at every piece boundary), must each equal a plain
   Vm.run on a separate runtime, bit for bit. *)
let check_interleaved_identity what c =
  let keys = Pipeline.make_keys c ~seed:45 in
  let rng = Rng.create 17 in
  let n_in =
    let l = c.Pipeline.input_layout in
    l.Ace_vector.Layout.channels * l.height * l.width
  in
  let cts =
    List.init 2 (fun i ->
        let x = Array.init n_in (fun _ -> Rng.float rng 1.0 -. 0.5) in
        Pipeline.encrypt_input c keys ~seed:(7 + i) x)
  in
  let vm () =
    Pipeline.runtime_vm (Pipeline.make_runtime c keys ~seed:8)
  in
  let reference = List.map (fun ct -> List.hd (Vm.run (vm ()) [ ct ])) cts in
  let shared = vm () in
  let execs = List.map (fun ct -> Vm.start shared [ ct ]) cts in
  (* Exactly the whole-function price: the serve loop's pick rule compares
     the two strictly, so an equal-cost queued request must not read as
     cheaper than a fresh execution. *)
  List.iter
    (fun e ->
      Alcotest.(check bool) (what ^ ": fresh remaining = runtime price") true
        (Vm.remaining e = Pipeline.runtime_exec_ns c))
    execs;
  let suspended0 = suspensions () in
  let outs = Array.make 2 None and steps = Array.make 2 0 in
  while Array.exists Option.is_none outs do
    List.iteri
      (fun i e ->
        if outs.(i) = None then begin
          steps.(i) <- steps.(i) + 1;
          outs.(i) <- Vm.step e ~until:neg_infinity
        end)
      execs
  done;
  (* A deadline in the past ends every step at the first boundary: a
     node, or a piece of a key-switching node. *)
  let nodes = Irfunc.num_nodes c.Pipeline.ckks in
  Array.iteri
    (fun i n ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: execution %d took at most one node per step" what i)
        true (n >= nodes))
    steps;
  Alcotest.(check int) (what ^ ": every extra step is one suspension")
    (suspensions () - suspended0)
    (steps.(0) + steps.(1) - (2 * nodes));
  Alcotest.(check bool) (what ^ ": key switches suspended") true (suspensions () > suspended0);
  List.iteri
    (fun i want ->
      match outs.(i) with
      | Some [ got ] ->
        check_ct_equal (Printf.sprintf "%s: interleaved execution %d" what i) want got
      | _ -> Alcotest.fail "expected one output")
    reference

let test_interleaved_gemv () =
  check_interleaved_identity "gemv" (Pipeline.compile Pipeline.ace (Import.import (gemv_graph ())))

let test_interleaved_bootstrapped () =
  let ctx = Param_select.execution_context ~depth:5 ~slots:32 () in
  let c = Pipeline.compile ~context:ctx Pipeline.ace (Import.import (conv_relu_graph ())) in
  Alcotest.(check bool) "model bootstraps" true (Lower_sihe.bootstrap_count c.Pipeline.ckks > 0);
  check_interleaved_identity "bootstrapped" c

(* An aborted execution returns every slab it took: on a warmed runtime
   (weight plaintexts cached), starting, stepping part-way and aborting
   leaves slab acquires = releases + drops. *)
let test_abort_releases_slabs () =
  with_slab_pool @@ fun () ->
  let ctx = Param_select.execution_context ~depth:5 ~slots:32 () in
  let c = Pipeline.compile ~context:ctx Pipeline.ace (Import.import (conv_relu_graph ())) in
  let keys = Pipeline.make_keys c ~seed:45 in
  let rt = Pipeline.make_runtime c keys ~seed:8 in
  let x = Array.make 32 0.25 in
  ignore (Pipeline.run_encrypted_rt rt (Pipeline.encrypt_input c keys ~seed:7 x));
  let ct = Pipeline.encrypt_input c keys ~seed:7 x in
  let vm = Pipeline.runtime_vm rt in
  Limb_pool.reset_stats ();
  let e = Vm.start vm [ ct ] in
  for _ = 1 to Irfunc.num_nodes c.Pipeline.ckks / 2 do
    Alcotest.(check bool) "not finished half-way" true (Vm.step e ~until:neg_infinity = None)
  done;
  Alcotest.(check bool) "work remains" true (Vm.remaining e > 0.0);
  Vm.abort e;
  Alcotest.(check (float 0.0)) "nothing remains after abort" 0.0 (Vm.remaining e);
  let s = Limb_pool.stats () in
  Alcotest.(check bool) "some slabs were used" true (s.Limb_pool.slab_hits + s.slab_misses > 0);
  Alcotest.(check int) "slab acquires = releases + drops"
    (s.Limb_pool.slab_hits + s.slab_misses)
    (s.slab_releases + s.slab_dropped);
  (* The caller's input survived the abort. *)
  check_ct_equal "input intact" (Pipeline.run_encrypted_rt rt ct)
    (Pipeline.run_encrypted_rt rt (Pipeline.encrypt_input c keys ~seed:7 x))

(* An execution aborted while a key switch is suspended gives back every
   row and slab: the suspended job's accumulators, digits and images go
   through its own release path, the rest through liveness. *)
let test_abort_mid_key_switch () =
  with_slab_pool @@ fun () ->
  let ctx = Param_select.execution_context ~depth:5 ~slots:32 () in
  let c = Pipeline.compile ~context:ctx Pipeline.ace (Import.import (conv_relu_graph ())) in
  let keys = Pipeline.make_keys c ~seed:45 in
  let rt = Pipeline.make_runtime c keys ~seed:8 in
  let x = Array.make 32 0.25 in
  ignore (Pipeline.run_encrypted_rt rt (Pipeline.encrypt_input c keys ~seed:7 x));
  let ct = Pipeline.encrypt_input c keys ~seed:7 x in
  let vm = Pipeline.runtime_vm rt in
  (* Suspend at every boundary, abort at the [k]-th suspension. *)
  List.iter
    (fun k ->
      Limb_pool.reset_stats ();
      let e = Vm.start vm [ ct ] in
      let s0 = suspensions () in
      while suspensions () - s0 < k do
        Alcotest.(check bool) "not finished" true (Vm.step e ~until:neg_infinity = None)
      done;
      Vm.abort e;
      let s = Limb_pool.stats () in
      Alcotest.(check int)
        (Printf.sprintf "abort at suspension %d: slab acquires = releases + drops" k)
        (s.Limb_pool.slab_hits + s.slab_misses)
        (s.slab_releases + s.slab_dropped);
      Alcotest.(check int)
        (Printf.sprintf "abort at suspension %d: row acquires = releases + drops" k)
        (s.Limb_pool.row_hits + s.row_misses)
        (s.row_releases + s.row_dropped))
    [ 1; 2; 3; 5; 8; 13; 40 ];
  check_ct_equal "input intact" (Pipeline.run_encrypted_rt rt ct)
    (Pipeline.run_encrypted_rt rt (Pipeline.encrypt_input c keys ~seed:7 x))

(* The serving daemon's price of a model (Pipeline.runtime_exec_ns) is a
   fresh execution's remainder exactly, at a small ring and a large one:
   the pick rule compares the two strictly. *)
let test_price_is_fresh_remainder () =
  List.iter
    (fun (spec_str, n) ->
      let spec =
        match Ace_serve.Model_spec.parse spec_str with Ok s -> s | Error e -> failwith e
      in
      let c = Pipeline.compile Pipeline.ace (Ace_serve.Model_spec.nn spec) in
      let ctx = c.Pipeline.context in
      let keys = Fhe.Keys.generate ctx ~rng:(Rng.create 3) ~rotations:[] in
      let vm =
        Vm.prepare ~cache_plaintexts:true ~keys
          ~bootstrap:(fun ~node:_ ~target_level:_ x -> x)
          c.Pipeline.ckks
      in
      let e = Vm.start vm [] in
      Alcotest.(check int) (spec_str ^ ": ring degree") n (Fhe.Context.ring_degree ctx);
      Alcotest.(check bool)
        (spec_str ^ ": fresh remainder = price")
        true
        (Vm.remaining e = Pipeline.runtime_exec_ns c))
    [ ("gemv:16:4", 32); ("resnet:8:10:8:4", 2048) ]

(* Sched.plan on a real compiled model: the validator must accept the
   plan the VM executes. *)
let test_compiled_schedule_checks () =
  let nn = Import.import (conv_relu_graph ()) in
  let ctx = Param_select.execution_context ~depth:5 ~slots:32 () in
  let c = Pipeline.compile ~context:ctx Pipeline.ace nn in
  let s = Sched.plan c.Pipeline.ckks in
  Sched.check c.Pipeline.ckks s;
  Alcotest.(check bool) "some values are released" true
    (Array.exists (fun vs -> Array.length vs > 0) (Sched.free_after s))

let () =
  Alcotest.run "sched"
    [
      ( "analysis",
        [
          Alcotest.test_case "diamond release sets" `Quick test_diamond;
          Alcotest.test_case "compiled model schedule validates" `Quick
            test_compiled_schedule_checks;
        ] );
      ( "bit-identity",
        [
          Alcotest.test_case "plaintext cache transparent under both pool widths" `Quick
            test_pt_cache_identity;
        ] );
      ( "release",
        [
          Alcotest.test_case "unread batch view: every slab comes back" `Quick
            test_unread_view_releases_batch;
        ] );
      ( "resumable",
        [
          Alcotest.test_case "gemv: two interleaved executions = Vm.run" `Quick
            test_interleaved_gemv;
          Alcotest.test_case "bootstrapped: two interleaved executions = Vm.run" `Quick
            test_interleaved_bootstrapped;
          Alcotest.test_case "abort returns every slab" `Quick test_abort_releases_slabs;
          Alcotest.test_case "abort mid key switch returns every row and slab" `Quick
            test_abort_mid_key_switch;
          Alcotest.test_case "price = fresh remainder at N = 2^5 and 2^11" `Quick
            test_price_is_fresh_remainder;
        ] );
    ]
