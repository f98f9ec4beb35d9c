(* Wavefront scheduler: dependency analysis unit tests and the
   bit-identity contract of Vm.run_parallel against the sequential
   executor at several pool sizes (with and without bootstraps, with and
   without the plaintext-encode cache). *)
module Domain_pool = Ace_util.Domain_pool
module Rns_poly = Ace_rns.Rns_poly
module Sched = Ace_codegen.Sched
module Vm = Ace_codegen.Vm
module Pipeline = Ace_driver.Pipeline
module Param_select = Ace_ckks_ir.Param_select
module Lower_sihe = Ace_ckks_ir.Lower_sihe
module Import = Ace_nn.Import
module Builder = Ace_onnx.Builder
module Model = Ace_onnx.Model
module Rng = Ace_util.Rng
open Ace_ir

let with_domains n f =
  Domain_pool.set_num_domains n;
  Fun.protect ~finally:(fun () -> Domain_pool.set_num_domains 1) f

let wave_of sched id =
  let w = ref (-1) in
  Array.iteri
    (fun i nodes -> if Array.exists (( = ) id) nodes then w := i)
    (Sched.wavefronts sched);
  !w

(* ---- dependency analysis on hand-built graphs ---- *)

let test_diamond () =
  let f = Irfunc.create ~name:"diamond" ~level:Level.Ckks ~params:[ ("x", Types.Vec 8) ] in
  let p = Irfunc.param f 0 in
  let a = Irfunc.add f Op.C_add [| p; p |] (Types.Vec 8) in
  let b = Irfunc.add f Op.C_add [| p; p |] (Types.Vec 8) in
  let j = Irfunc.add f Op.C_add [| a; b |] (Types.Vec 8) in
  Irfunc.set_returns f [ j ];
  let s = Sched.analyze f in
  Sched.check f s;
  Alcotest.(check int) "three wavefronts" 3 (Array.length (Sched.wavefronts s));
  Alcotest.(check bool) "diamond arms share a wavefront" true (wave_of s a = wave_of s b);
  Alcotest.(check bool) "join strictly after arms" true (wave_of s j > wave_of s a);
  Alcotest.(check int) "max_width is the diamond" 2 (Sched.max_width s);
  (* Release sets: the param dies after the arms' wavefront, the arms after
     the join's; the returned join is immortal. *)
  let free = Sched.free_after s in
  Alcotest.(check bool) "param freed after arms" true
    (Array.exists (( = ) p) free.(wave_of s a));
  Alcotest.(check bool) "arms freed after join" true
    (Array.exists (( = ) a) free.(wave_of s j) && Array.exists (( = ) b) free.(wave_of s j));
  Alcotest.(check bool) "return never freed" true
    (not (Array.exists (Array.exists (( = ) j)) free))

let test_bootstrap_barrier () =
  let f = Irfunc.create ~name:"barrier" ~level:Level.Ckks ~params:[ ("x", Types.Vec 8) ] in
  let p = Irfunc.param f 0 in
  let a = Irfunc.add f Op.C_add [| p; p |] (Types.Vec 8) in
  let bs = Irfunc.add f (Op.C_bootstrap 3) [| a |] (Types.Vec 8) in
  (* [c] depends only on the param — dataflow would allow it beside [a] —
     but it is appended after the bootstrap, so the barrier must push it
     into a strictly later wavefront. *)
  let c = Irfunc.add f Op.C_add [| p; p |] (Types.Vec 8) in
  let j = Irfunc.add f Op.C_add [| bs; c |] (Types.Vec 8) in
  Irfunc.set_returns f [ j ];
  let s = Sched.analyze f in
  Sched.check f s;
  let wb = wave_of s bs in
  Alcotest.(check bool) "bootstrap wavefront is a barrier" true (Sched.is_barrier s wb);
  Alcotest.(check int) "barrier is a singleton" 1 (Array.length (Sched.wavefronts s).(wb));
  Alcotest.(check bool) "pre-barrier node before it" true (wave_of s a < wb);
  Alcotest.(check bool) "post-barrier node after it, despite no data dep" true
    (wave_of s c > wb);
  Alcotest.(check bool) "barrier never Node_parallel" true
    (Sched.decide s wb ~domains:8 = Sched.Sequential)

let test_decide_modes () =
  let f = Irfunc.create ~name:"modes" ~level:Level.Ckks ~params:[ ("x", Types.Vec 8) ] in
  let p = Irfunc.param f 0 in
  let rots = Array.init 8 (fun k -> Irfunc.add f (Op.C_rotate (k + 1)) [| p |] (Types.Vec 8)) in
  let j = Irfunc.add f Op.C_add [| rots.(0); rots.(1) |] (Types.Vec 8) in
  Irfunc.set_returns f [ j ];
  let s = Sched.analyze f in
  Sched.check f s;
  let w = wave_of s rots.(0) in
  Alcotest.(check bool) "8 independent key-switches go node-parallel" true
    (Sched.decide s w ~domains:4 = Sched.Node_parallel);
  Alcotest.(check bool) "domains=1 is always sequential" true
    (Sched.decide s w ~domains:1 = Sched.Sequential);
  Alcotest.(check bool) "singleton wavefront is sequential" true
    (Sched.decide s (wave_of s j) ~domains:4 = Sched.Sequential)

(* ---- bit-identity of run_parallel against run ---- *)

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

let run_with c keys scheduler x =
  let ct = Pipeline.encrypt_input c keys ~seed:7 x in
  Pipeline.run_encrypted ~scheduler c keys ~seed:8 ct

let test_gemv_bit_identical () =
  let c = Pipeline.compile Pipeline.ace (Import.import (gemv_graph ())) in
  let keys = Pipeline.make_keys c ~seed:5 in
  let rng = Rng.create 6 in
  let x = Array.init 16 (fun _ -> Rng.float rng 1.0 -. 0.5) in
  let reference = with_domains 1 (fun () -> run_with c keys Pipeline.Seq x) in
  List.iter
    (fun d ->
      let got = with_domains d (fun () -> run_with c keys Pipeline.Wavefront x) in
      check_ct_equal (Printf.sprintf "wavefront at %d domains" d) reference got)
    [ 1; 2; 4 ]

(* A depth-5 context forces real bootstraps into the compiled function, so
   this exercises the barrier path and the node-seeded recryption rng:
   any order dependence in bootstrap randomness would break equality. *)
let test_bootstrapped_bit_identical () =
  let nn = Import.import (conv_relu_graph ()) in
  let ctx = Param_select.execution_context ~depth:5 ~slots:32 () in
  let c = Pipeline.compile ~context:ctx Pipeline.ace nn in
  Alcotest.(check bool) "model bootstraps" true (Lower_sihe.bootstrap_count c.Pipeline.ckks > 0);
  let keys = Pipeline.make_keys c ~seed:45 in
  let rng = Rng.create 17 in
  let x = Array.init 32 (fun _ -> Rng.float rng 1.0 -. 0.5) in
  let reference = with_domains 1 (fun () -> run_with c keys Pipeline.Seq x) in
  List.iter
    (fun d ->
      let got = with_domains d (fun () -> run_with c keys Pipeline.Wavefront x) in
      check_ct_equal (Printf.sprintf "bootstrapped wavefront at %d domains" d) reference got)
    [ 2; 4 ]

(* The resident runtime's plaintext-encode cache must be transparent under
   both schedulers: first and second inference bit-identical to the
   throwaway-VM path, whatever executor fills the cache. *)
let test_pt_cache_identity () =
  let c = Pipeline.compile Pipeline.ace (Import.import (gemv_graph ())) in
  let keys = Pipeline.make_keys c ~seed:5 in
  let rng = Rng.create 9 in
  let x = Array.init 16 (fun _ -> Rng.float rng 1.0 -. 0.5) in
  let reference = with_domains 1 (fun () -> run_with c keys Pipeline.Seq x) in
  List.iter
    (fun scheduler ->
      with_domains 2 @@ fun () ->
      let rt = Pipeline.make_runtime ~scheduler c keys ~seed:8 in
      let ct () = Pipeline.encrypt_input c keys ~seed:7 x in
      let first = Pipeline.run_encrypted_rt rt (ct ()) in
      let second = Pipeline.run_encrypted_rt rt (ct ()) in
      let what = "pt-cache " ^ Pipeline.scheduler_name scheduler in
      check_ct_equal (what ^ " first") reference first;
      check_ct_equal (what ^ " second (cache hit)") reference second)
    [ Pipeline.Seq; Pipeline.Wavefront ]

(* ---- resumable execution: Vm.start / Vm.step / Vm.abort ---- *)

(* Two executions of ONE prepared runtime (sharing its plaintext cache),
   stepped alternately one node at a time, must each equal a plain
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
    Pipeline.runtime_vm (Pipeline.make_runtime ~scheduler:Pipeline.Seq c keys ~seed:8)
  in
  let reference = List.map (fun ct -> List.hd (Vm.run (vm ()) [ ct ])) cts in
  let shared = vm () in
  let execs = List.map (fun ct -> Vm.start shared [ ct ]) cts in
  (* Exactly the whole-function price: the serve loop's pick rule compares
     the two strictly, so an equal-cost queued request must not read as
     cheaper than a fresh execution. *)
  List.iter
    (fun e ->
      Alcotest.(check bool) (what ^ ": fresh remaining = func_cost") true
        (Vm.remaining e = Sched.func_cost c.Pipeline.ckks))
    execs;
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
  Array.iteri
    (fun i n ->
      Alcotest.(check int)
        (Printf.sprintf "%s: execution %d took one node per step" what i)
        (Irfunc.num_nodes c.Pipeline.ckks) n)
    steps;
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
  let module Limb_pool = Ace_rns.Limb_pool in
  let e0 = Limb_pool.enabled () in
  Limb_pool.set_enabled true;
  Fun.protect ~finally:(fun () -> Limb_pool.set_enabled e0) @@ fun () ->
  let ctx = Param_select.execution_context ~depth:5 ~slots:32 () in
  let c = Pipeline.compile ~context:ctx Pipeline.ace (Import.import (conv_relu_graph ())) in
  let keys = Pipeline.make_keys c ~seed:45 in
  let rt = Pipeline.make_runtime ~scheduler:Pipeline.Seq c keys ~seed:8 in
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

(* Vm.schedule on a real compiled model: the validator must accept the
   schedule the parallel executor will use. *)
let test_compiled_schedule_checks () =
  let nn = Import.import (conv_relu_graph ()) in
  let ctx = Param_select.execution_context ~depth:5 ~slots:32 () in
  let c = Pipeline.compile ~context:ctx Pipeline.ace nn in
  let s = Sched.analyze c.Pipeline.ckks in
  Sched.check c.Pipeline.ckks s;
  Alcotest.(check bool) "some node-level parallelism exists" true (Sched.max_width s > 1)

let () =
  Alcotest.run "sched"
    [
      ( "analysis",
        [
          Alcotest.test_case "diamond wavefronts and release sets" `Quick test_diamond;
          Alcotest.test_case "bootstrap is a barrier" `Quick test_bootstrap_barrier;
          Alcotest.test_case "cost-model mode decisions" `Quick test_decide_modes;
          Alcotest.test_case "compiled model schedule validates" `Quick
            test_compiled_schedule_checks;
        ] );
      ( "bit-identity",
        [
          Alcotest.test_case "gemv: wavefront = seq at 1/2/4 domains" `Quick
            test_gemv_bit_identical;
          Alcotest.test_case "bootstrapped model: wavefront = seq" `Quick
            test_bootstrapped_bit_identical;
          Alcotest.test_case "plaintext cache transparent under both schedulers" `Quick
            test_pt_cache_identity;
        ] );
      ( "resumable",
        [
          Alcotest.test_case "gemv: two interleaved executions = Vm.run" `Quick
            test_interleaved_gemv;
          Alcotest.test_case "bootstrapped: two interleaved executions = Vm.run" `Quick
            test_interleaved_bootstrapped;
          Alcotest.test_case "abort returns every slab" `Quick test_abort_releases_slabs;
        ] );
    ]
