(* Exact CKKS bootstrapping at toy parameters, plus the refresh oracle. *)
module Rng = Ace_util.Rng
open Ace_fhe

let boot_ctx =
  lazy
    (Context.make
       {
         Context.log2_n = 6;
         depth = 18;
         scale_bits = 25;
         q0_bits = 29;
         special_bits = 29;
         security = Security.Toy;
         error_sigma = 3.2;
       })

let boot_keys =
  lazy
    (let ctx = Lazy.force boot_ctx in
     Keys.generate ~secret_hamming:4 ctx ~rng:(Rng.create 4242)
       ~rotations:(Exact_bootstrap.required_rotations ctx))

let msg ctx seed =
  let rng = Rng.create seed in
  Array.init (Context.slots ctx) (fun _ -> Rng.float rng 1.0 -. 0.5)

let encrypt_at ctx keys ~level ~seed m =
  let pt = Encoder.encode ctx ~level ~scale:(Context.scale ctx) m in
  Eval.encrypt keys ~rng:(Rng.create seed) pt

let max_err a b =
  let e = ref 0.0 in
  Array.iteri (fun i x -> e := max !e (abs_float (x -. b.(i)))) a;
  !e

let test_refresh_oracle () =
  let ctx = Lazy.force boot_ctx and keys = Lazy.force boot_keys in
  let m = msg ctx 1 in
  let ct = encrypt_at ctx keys ~level:0 ~seed:2 m in
  let out = Bootstrap.refresh keys ~rng:(Rng.create 3) ~target_level:5 ct in
  Alcotest.(check int) "level" 5 (Ciphertext.level out);
  let got = Encoder.decode ctx (Eval.decrypt keys out) in
  if max_err m got > 1e-2 then Alcotest.failf "refresh error %.4f" (max_err m got)

(* --- the refresh oracle on the ring and chain the resnet models run on --- *)

module Rns_poly = Ace_rns.Rns_poly
module Limb_pool = Ace_rns.Limb_pool
module Domain_pool = Ace_util.Domain_pool

let rt_ctx = lazy (Ace_ckks_ir.Param_select.execution_context ~depth:12 ~slots:1024 ())
let rt_keys = lazy (Keys.generate (Lazy.force rt_ctx) ~rng:(Rng.create 4243) ~rotations:[])

(* Inputs at a scale other than Delta: the oracle must rescale them. *)
let off_scale ctx = Context.scale ctx *. 1.37

let rt_input ~level =
  let ctx = Lazy.force rt_ctx and keys = Lazy.force rt_keys in
  let pt = Encoder.encode ctx ~level ~scale:(off_scale ctx) (msg ctx (50 + level)) in
  Eval.encrypt keys ~rng:(Rng.create (60 + level)) pt

(* A refresh adds to every coefficient the rounding of the rescaled
   value (at most 1/2) and a rounded Gaussian draw (under 6 sigma + 1/2
   for every draw here), so no slot moves by more than N (6 sigma + 1)
   over Delta from the input's own decryption. *)
let fresh_noise_bound ctx =
  let sigma = (Context.params ctx).Context.error_sigma in
  float_of_int (Context.ring_degree ctx) *. ((6.0 *. sigma) +. 1.0) /. Context.scale ctx

let max_err_cplx a b =
  let e = ref 0.0 in
  Array.iteri (fun i (x : Cplx.t) -> e := max !e (Cplx.norm (Cplx.sub x b.(i)))) a;
  !e

let test_refresh_every_level_pair () =
  let ctx = Lazy.force rt_ctx and keys = Lazy.force rt_keys in
  let bound = fresh_noise_bound ctx in
  for input = 0 to 4 do
    let ct = rt_input ~level:input in
    let want = Encoder.decode_complex ctx (Eval.decrypt keys ct) in
    for target = 1 to Context.max_level ctx do
      let out = Bootstrap.refresh_impl keys ~seed:1 ~ordinal:(input * 100 + target) ~target_level:target ct in
      let what = Printf.sprintf "L%d -> L%d" input target in
      Alcotest.(check int) (what ^ " level") target (Ciphertext.level out);
      Alcotest.(check (float 0.0)) (what ^ " scale") (Context.scale ctx) (Ciphertext.scale_of out);
      let e = max_err_cplx want (Encoder.decode_complex ctx (Eval.decrypt keys out)) in
      if e > bound then Alcotest.failf "%s: error %.3e above the fresh-noise bound %.3e" what e bound;
      Ciphertext.release out
    done
  done

let same_ct (a : Ciphertext.ct) (b : Ciphertext.ct) =
  Array.for_all2 Rns_poly.equal a.Ciphertext.polys b.Ciphertext.polys

let test_refresh_randomness_keyed () =
  let keys = Lazy.force rt_keys in
  let ct = rt_input ~level:1 in
  let go ordinal = Bootstrap.refresh_impl keys ~seed:9 ~ordinal ~target_level:3 ct in
  Alcotest.(check bool) "equal (seed, ordinal): equal ciphertexts" true (same_ct (go 5) (go 5));
  Alcotest.(check bool) "another ordinal: another a" false
    (Rns_poly.equal (go 5).Ciphertext.polys.(1) (go 6).Ciphertext.polys.(1))

let test_refresh_domain_invariant () =
  let keys = Lazy.force rt_keys in
  let ct = rt_input ~level:2 in
  let at domains =
    Domain_pool.set_num_domains domains;
    Fun.protect ~finally:(fun () -> Domain_pool.set_num_domains 1) @@ fun () ->
    Bootstrap.refresh_impl keys ~seed:4 ~ordinal:8 ~target_level:12 ct
  in
  Alcotest.(check bool) "1 and 4 domains bit-identical" true (same_ct (at 1) (at 4))

(* Under pool debugging (released slabs poisoned and checked), a refresh
   hands back every slab it takes: with its output released, acquires
   equal releases. *)
let test_refresh_slab_balance () =
  let keys = Lazy.force rt_keys in
  let ct = rt_input ~level:1 in
  let e0 = Limb_pool.enabled () and d0 = Limb_pool.debug () in
  Limb_pool.set_enabled true;
  Limb_pool.set_debug true;
  Fun.protect ~finally:(fun () ->
      Limb_pool.set_enabled e0;
      Limb_pool.set_debug d0)
  @@ fun () ->
  Limb_pool.reset_stats ();
  for target = 1 to 4 do
    Ciphertext.release (Bootstrap.refresh_impl keys ~seed:2 ~ordinal:target ~target_level:target ct)
  done;
  let s = Limb_pool.stats () in
  let acquired = s.Limb_pool.slab_hits + s.Limb_pool.slab_misses
  and released = s.Limb_pool.slab_releases + s.Limb_pool.slab_dropped in
  Alcotest.(check bool) "slabs were taken" true (acquired > 0);
  Alcotest.(check int) "acquired = released" acquired released

let test_exact_bootstrap_roundtrip () =
  let ctx = Lazy.force boot_ctx and keys = Lazy.force boot_keys in
  let m = msg ctx 7 in
  let ct = encrypt_at ctx keys ~level:0 ~seed:8 m in
  let out = Exact_bootstrap.bootstrap keys ~target_level:1 ct in
  Alcotest.(check int) "refreshed level" 1 (Ciphertext.level out);
  let got = Encoder.decode ctx (Eval.decrypt keys out) in
  let e = max_err m got in
  if e > 0.05 then Alcotest.failf "exact bootstrap error %.4f" e

let test_exact_bootstrap_supports_computation () =
  (* The refreshed ciphertext must be usable: square it afterwards. *)
  let ctx = Lazy.force boot_ctx and keys = Lazy.force boot_keys in
  let m = msg ctx 9 in
  let ct = encrypt_at ctx keys ~level:0 ~seed:10 m in
  let out = Exact_bootstrap.bootstrap keys ~target_level:2 ct in
  let sq = Eval.rescale (Eval.mul keys out out) in
  let got = Encoder.decode ctx (Eval.decrypt keys sq) in
  let expect = Array.map (fun x -> x *. x) m in
  let e = max_err expect got in
  if e > 0.08 then Alcotest.failf "post-bootstrap square error %.4f" e

let test_exact_bootstrap_rejects_shallow_chain () =
  let ctx = Lazy.force boot_ctx and keys = Lazy.force boot_keys in
  let m = msg ctx 11 in
  let ct = encrypt_at ctx keys ~level:0 ~seed:12 m in
  try
    ignore (Exact_bootstrap.bootstrap keys ~target_level:10 ct);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_depth_accounting () =
  let d = Exact_bootstrap.depth_needed Exact_bootstrap.default_config in
  Alcotest.(check bool) "positive" true (d > 5);
  let more =
    Exact_bootstrap.depth_needed
      { Exact_bootstrap.default_config with Exact_bootstrap.double_angles = 9 }
  in
  Alcotest.(check int) "three more squarings" (d + 3) more

let () =
  Alcotest.run "bootstrap"
    [
      ( "exact",
        [
          Alcotest.test_case "refresh oracle" `Quick test_refresh_oracle;
          Alcotest.test_case "roundtrip" `Quick test_exact_bootstrap_roundtrip;
          Alcotest.test_case "usable after refresh" `Quick test_exact_bootstrap_supports_computation;
          Alcotest.test_case "shallow chain rejected" `Quick test_exact_bootstrap_rejects_shallow_chain;
          Alcotest.test_case "depth accounting" `Quick test_depth_accounting;
        ] );
      ( "refresh",
        [
          Alcotest.test_case "every level pair" `Quick test_refresh_every_level_pair;
          Alcotest.test_case "randomness keyed" `Quick test_refresh_randomness_keyed;
          Alcotest.test_case "domain invariant" `Quick test_refresh_domain_invariant;
          Alcotest.test_case "slab balance" `Quick test_refresh_slab_balance;
        ] );
    ]
