module Rng = Ace_util.Rng
open Ace_fhe

let test_ctx =
  lazy
    (Context.make
       {
         Context.log2_n = 10;
         depth = 4;
         scale_bits = 25;
         q0_bits = 29;
         special_bits = 29;
         security = Security.Toy;
         error_sigma = 3.2;
       })

let test_keys =
  lazy
    (let ctx = Lazy.force test_ctx in
     Keys.generate ctx ~rng:(Rng.create 1234) ~rotations:[ 1; 2; 3; 5; -1 ])

let random_msg ?(amp = 1.0) rng n = Array.init n (fun _ -> Rng.float rng (2.0 *. amp) -. amp)

let max_err a b =
  let e = ref 0.0 in
  Array.iteri (fun i x -> e := max !e (abs_float (x -. b.(i)))) a;
  !e

let check_close ~eps what a b =
  let e = max_err a b in
  if e > eps then Alcotest.failf "%s: max error %.3e > %.1e" what e eps

(* --- special FFT --- *)

let test_embed_matches_naive () =
  let slots = 16 in
  let plan = Cplx.plan ~slots in
  let rng = Rng.create 2 in
  let v = Array.init slots (fun _ -> Cplx.make (Rng.float rng 2.0 -. 1.0) (Rng.float rng 2.0 -. 1.0)) in
  let fast = Array.copy v in
  Cplx.embed plan fast;
  let naive = Cplx.embed_naive ~slots v in
  Array.iteri
    (fun i f ->
      if Cplx.norm (Cplx.sub f naive.(i)) > 1e-9 then
        Alcotest.failf "slot %d: fast=(%f,%f) naive=(%f,%f)" i f.Cplx.re f.Cplx.im naive.(i).Cplx.re
          naive.(i).Cplx.im)
    fast

let test_embed_roundtrip () =
  let slots = 64 in
  let plan = Cplx.plan ~slots in
  let rng = Rng.create 3 in
  let v = Array.init slots (fun _ -> Cplx.make (Rng.float rng 2.0 -. 1.0) (Rng.float rng 2.0 -. 1.0)) in
  let w = Array.copy v in
  Cplx.embed_inv plan w;
  Cplx.embed plan w;
  Array.iteri
    (fun i x ->
      if Cplx.norm (Cplx.sub x v.(i)) > 1e-9 then Alcotest.failf "slot %d differs" i)
    w

(* --- encoder --- *)

let test_encode_decode () =
  let ctx = Lazy.force test_ctx in
  let rng = Rng.create 4 in
  let msg = random_msg rng (Context.slots ctx) in
  let pt = Encoder.encode ctx ~level:2 ~scale:(Context.scale ctx) msg in
  let back = Encoder.decode ctx pt in
  check_close ~eps:1e-5 "encode/decode roundtrip" msg back

let test_encode_is_slotwise_ring_hom () =
  (* The whole point of the canonical embedding: polynomial multiplication
     of encodings is slot-wise multiplication of messages. *)
  let ctx = Lazy.force test_ctx in
  let rng = Rng.create 5 in
  let n = Context.slots ctx in
  let a = random_msg rng n and b = random_msg rng n in
  let pa = Encoder.encode ctx ~level:3 ~scale:(Context.scale ctx) a in
  let pb = Encoder.encode ctx ~level:3 ~scale:(Context.scale ctx) b in
  let prod =
    {
      Ciphertext.poly = Ace_rns.Rns_poly.mul (Ace_rns.Rns_poly.to_ntt pa.Ciphertext.poly) (Ace_rns.Rns_poly.to_ntt pb.Ciphertext.poly);
      pt_scale = pa.Ciphertext.pt_scale *. pb.Ciphertext.pt_scale;
    }
  in
  let got = Encoder.decode ctx prod in
  let expect = Array.init n (fun i -> a.(i) *. b.(i)) in
  check_close ~eps:1e-4 "plaintext product is slotwise" expect got

(* --- encrypt / decrypt --- *)

let test_encrypt_decrypt () =
  let ctx = Lazy.force test_ctx and keys = Lazy.force test_keys in
  let rng = Rng.create 6 in
  let msg = random_msg rng (Context.slots ctx) in
  let pt = Encoder.encode ctx ~level:(Context.max_level ctx) ~scale:(Context.scale ctx) msg in
  let ct = Eval.encrypt keys ~rng pt in
  let back = Encoder.decode ctx (Eval.decrypt keys ct) in
  check_close ~eps:2e-3 "encrypt/decrypt" msg back

let test_encrypt_at_low_level () =
  let ctx = Lazy.force test_ctx and keys = Lazy.force test_keys in
  let rng = Rng.create 7 in
  let msg = random_msg rng (Context.slots ctx) in
  let pt = Encoder.encode ctx ~level:1 ~scale:(Context.scale ctx) msg in
  let ct = Eval.encrypt keys ~rng pt in
  Alcotest.(check int) "level" 1 (Ciphertext.level ct);
  check_close ~eps:2e-3 "low-level decrypt" msg (Encoder.decode ctx (Eval.decrypt keys ct))

(* Encryption restricts the plaintext's evaluation-domain rows directly;
   the path it replaced went through the coefficient domain and back.
   Both must give the same ciphertext at every level of the ring and
   chain the resnet models execute on. *)
let resnet_ctx = lazy (Ace_ckks_ir.Param_select.execution_context ~depth:12 ~slots:1024 ())
let resnet_keys = lazy (Keys.generate (Lazy.force resnet_ctx) ~rng:(Rng.create 77) ~rotations:[])

let encrypt_via_coeff keys ~rng ~level (pt : Ciphertext.pt) =
  let module P = Ace_rns.Rns_poly in
  let ctx = keys.Keys.context in
  let crt = Context.crt ctx in
  let idx = Context.ciphertext_idx ctx ~level in
  let sigma = (Context.params ctx).Context.error_sigma in
  let pb, pa = keys.Keys.public in
  let pb = P.restrict pb ~chain_idx:idx and pa = P.restrict pa ~chain_idx:idx in
  let u = P.ntt_inplace (P.sample_ternary crt ~chain_idx:idx rng) in
  let e0 = P.ntt_inplace (P.sample_gaussian crt ~chain_idx:idx ~sigma rng) in
  let e1 = P.ntt_inplace (P.sample_gaussian crt ~chain_idx:idx ~sigma rng) in
  let m = P.ntt_inplace (P.restrict (P.to_coeff pt.Ciphertext.poly) ~chain_idx:idx) in
  (P.add (P.add (P.mul pb u) e0) m, P.add (P.mul pa u) e1)

let test_encrypt_restricts_in_eval_domain () =
  let ctx = Lazy.force resnet_ctx and keys = Lazy.force resnet_keys in
  let msg = random_msg (Rng.create 8) (Context.slots ctx) in
  let pt = Encoder.encode ctx ~level:(Context.max_level ctx) ~scale:(Context.scale ctx) msg in
  for level = 0 to Context.max_level ctx do
    let ct = Eval.encrypt_at_level keys ~rng:(Rng.create level) ~level pt in
    let c0, c1 = encrypt_via_coeff keys ~rng:(Rng.create level) ~level pt in
    Alcotest.(check bool)
      (Printf.sprintf "level %d" level)
      true
      (Ace_rns.Rns_poly.equal ct.Ciphertext.polys.(0) c0
      && Ace_rns.Rns_poly.equal ct.Ciphertext.polys.(1) c1)
  done

(* Decoding lifts each coefficient in native ints where it fits and
   falls back to the bignum lift elsewhere; the slots must be the bignum
   decoder's bit for bit at every level of two runtime contexts, for
   plaintexts mixing small coefficients, coefficients around the native
   bound, uniform residues and coefficients next to +-Q/2. *)
let runtime_ctxs =
  lazy (List.map (fun slots -> Ace_ckks_ir.Param_select.execution_context ~slots ()) [ 16; 1024 ])

let bignum_decode ctx (pt : Ciphertext.pt) =
  let module P = Ace_rns.Rns_poly in
  let poly = P.to_coeff pt.Ciphertext.poly in
  let slots = Context.slots ctx in
  let modulus = Ace_rns.Crt.product (Context.crt ctx) ~limbs:(P.num_limbs poly) in
  let coeff i = Ace_util.Bignum.centered_to_float (P.coeff_bignum poly i) ~modulus in
  let vals =
    Array.init slots (fun i ->
        Cplx.make (coeff i /. pt.Ciphertext.pt_scale) (coeff (i + slots) /. pt.Ciphertext.pt_scale))
  in
  Cplx.embed (Context.embed_plan ctx) vals;
  vals

let prop_decode_matches_bignum =
  let module Bignum = Ace_util.Bignum in
  let module Crt = Ace_rns.Crt in
  QCheck.Test.make ~name:"decode = bignum decode at every level of two runtime contexts" ~count:3
    QCheck.small_nat (fun seed ->
      let r = Rng.create (seed + 3) in
      List.for_all
        (fun ctx ->
          let crt = Context.crt ctx and n = Context.ring_degree ctx in
          List.for_all
            (fun level ->
              let limbs = level + 1 in
              let q = Crt.product crt ~limbs in
              let half, _ = Bignum.divmod_int q 2 in
              let coeff i =
                match i mod 5 with
                | 0 -> Bignum.of_int (Rng.int r (1 lsl 40))
                | 1 -> Bignum.sub q (Bignum.of_int (1 + Rng.int r (1 lsl 20)))
                | 2 -> Bignum.of_int ((1 lsl 59) + Rng.int r (1 lsl 61))
                | 3 -> Bignum.add (Bignum.sub half (Bignum.of_int 4)) (Bignum.of_int (Rng.int r 9))
                | _ -> Crt.crt_to_bignum crt ~limbs (fun k -> Rng.int r (Crt.modulus crt k))
              in
              let coeffs = Array.init n coeff in
              let rows =
                Array.init limbs (fun k ->
                    Array.map (fun b -> Bignum.mod_int (Bignum.rem b q) (Crt.modulus crt k)) coeffs)
              in
              let poly =
                Ace_rns.Rns_poly.of_data crt ~chain_idx:(Context.ciphertext_idx ctx ~level)
                  Ace_rns.Rns_poly.Coeff rows
              in
              let pt = { Ciphertext.poly; pt_scale = Context.scale ctx *. 1.37 } in
              let same a b = Int64.bits_of_float a = Int64.bits_of_float b in
              Array.for_all2
                (fun (a : Cplx.t) (b : Cplx.t) -> same a.Cplx.re b.Cplx.re && same a.Cplx.im b.Cplx.im)
                (Encoder.decode_complex ctx pt) (bignum_decode ctx pt))
            (List.init (Context.max_level ctx + 1) Fun.id))
        (Lazy.force runtime_ctxs))

(* --- homomorphic ops --- *)

let enc ?(level = None) msg seed =
  let ctx = Lazy.force test_ctx and keys = Lazy.force test_keys in
  let rng = Rng.create seed in
  let level = Option.value level ~default:(Context.max_level ctx) in
  let pt = Encoder.encode ctx ~level ~scale:(Context.scale ctx) msg in
  Eval.encrypt keys ~rng pt

let dec ct =
  let ctx = Lazy.force test_ctx and keys = Lazy.force test_keys in
  Encoder.decode ctx (Eval.decrypt keys ct)

let test_homomorphic_add () =
  let ctx = Lazy.force test_ctx in
  let rng = Rng.create 8 in
  let n = Context.slots ctx in
  let a = random_msg rng n and b = random_msg rng n in
  let got = dec (Eval.add (enc a 80) (enc b 81)) in
  check_close ~eps:2e-3 "ct+ct" (Array.init n (fun i -> a.(i) +. b.(i))) got;
  let got = dec (Eval.sub (enc a 82) (enc b 83)) in
  check_close ~eps:2e-3 "ct-ct" (Array.init n (fun i -> a.(i) -. b.(i))) got;
  let got = dec (Eval.neg (enc a 84)) in
  check_close ~eps:2e-3 "-ct" (Array.map (fun x -> -.x) a) got

let test_homomorphic_add_plain () =
  let ctx = Lazy.force test_ctx in
  let rng = Rng.create 9 in
  let n = Context.slots ctx in
  let a = random_msg rng n and b = random_msg rng n in
  let pt = Encoder.encode ctx ~level:(Context.max_level ctx) ~scale:(Context.scale ctx) b in
  let got = dec (Eval.add_plain (enc a 90) pt) in
  check_close ~eps:2e-3 "ct+pt" (Array.init n (fun i -> a.(i) +. b.(i))) got

let test_homomorphic_mul_plain_rescale () =
  let ctx = Lazy.force test_ctx in
  let rng = Rng.create 10 in
  let n = Context.slots ctx in
  let a = random_msg rng n and b = random_msg rng n in
  let ct = enc a 100 in
  let pt = Encoder.encode ctx ~level:(Context.max_level ctx) ~scale:(Context.scale ctx) b in
  let prod = Eval.rescale (Eval.mul_plain ct pt) in
  Alcotest.(check int) "level dropped" (Context.max_level ctx - 1) (Ciphertext.level prod);
  check_close ~eps:1e-3 "ct*pt" (Array.init n (fun i -> a.(i) *. b.(i))) (dec prod)

let test_homomorphic_mul () =
  let ctx = Lazy.force test_ctx and keys = Lazy.force test_keys in
  let rng = Rng.create 11 in
  let n = Context.slots ctx in
  let a = random_msg rng n and b = random_msg rng n in
  let prod = Eval.rescale (Eval.mul keys (enc a 110) (enc b 111)) in
  check_close ~eps:1e-3 "ct*ct" (Array.init n (fun i -> a.(i) *. b.(i))) (dec prod)

let test_mul_depth_chain () =
  (* Square repeatedly down the whole modulus chain. *)
  let ctx = Lazy.force test_ctx and keys = Lazy.force test_keys in
  let n = Context.slots ctx in
  let x = 0.9 in
  let msg = Array.make n x in
  let ct = ref (enc msg 120) in
  let expect = ref x in
  for _ = 1 to Context.max_level ctx do
    ct := Eval.rescale (Eval.square keys !ct);
    expect := !expect *. !expect
  done;
  Alcotest.(check int) "bottom level" 0 (Ciphertext.level !ct);
  check_close ~eps:5e-2 "x^(2^depth)" (Array.make n !expect) (dec !ct)

let test_rotate () =
  let ctx = Lazy.force test_ctx in
  let n = Context.slots ctx in
  let msg = Array.init n float_of_int in
  List.iter
    (fun k ->
      let got = dec (Eval.rotate (Lazy.force test_keys) (enc msg (130 + k)) k) in
      let expect = Array.init n (fun i -> float_of_int ((i + k + n) mod n)) in
      check_close ~eps:1e-2 (Printf.sprintf "rotate %d" k) expect got)
    [ 1; 2; 5 ]

let test_rotate_negative () =
  let ctx = Lazy.force test_ctx in
  let n = Context.slots ctx in
  let msg = Array.init n float_of_int in
  let got = dec (Eval.rotate (Lazy.force test_keys) (enc msg 140) (-1)) in
  let expect = Array.init n (fun i -> float_of_int ((i - 1 + n) mod n)) in
  check_close ~eps:1e-2 "rotate -1" expect got

let test_conjugate () =
  let ctx = Lazy.force test_ctx and keys = Lazy.force test_keys in
  let rng = Rng.create 15 in
  let n = Context.slots ctx in
  let msg = Array.init n (fun _ -> Cplx.make (Rng.float rng 2.0 -. 1.0) (Rng.float rng 2.0 -. 1.0)) in
  let pt = Encoder.encode_complex ctx ~level:2 ~scale:(Context.scale ctx) msg in
  let ct = Eval.encrypt keys ~rng pt in
  let got = Encoder.decode_complex ctx (Eval.decrypt keys (Eval.conjugate keys ct)) in
  Array.iteri
    (fun i g ->
      if Cplx.norm (Cplx.sub g (Cplx.conj msg.(i))) > 1e-3 then Alcotest.failf "slot %d" i)
    got

let test_mod_switch () =
  let ctx = Lazy.force test_ctx in
  let rng = Rng.create 16 in
  let n = Context.slots ctx in
  let a = random_msg rng n in
  let ct = Eval.mod_switch_to (enc a 160) ~level:1 in
  Alcotest.(check int) "level" 1 (Ciphertext.level ct);
  check_close ~eps:2e-3 "value preserved" a (dec ct)

let test_upscale () =
  let ctx = Lazy.force test_ctx in
  let rng = Rng.create 17 in
  let n = Context.slots ctx in
  let a = random_msg rng n in
  let ct = enc a 170 in
  let target = Ciphertext.scale_of ct *. 4.0 in
  let up = Eval.upscale ctx ct ~target_scale:target in
  Alcotest.(check (float 1e-6)) "scale" target (Ciphertext.scale_of up);
  check_close ~eps:2e-3 "value preserved" a (dec up)

let test_scale_mismatch_detected () =
  let ctx = Lazy.force test_ctx in
  let rng = Rng.create 18 in
  let n = Context.slots ctx in
  let a = random_msg rng n in
  let ct = enc a 180 in
  let up = Eval.upscale ctx ct ~target_scale:(Ciphertext.scale_of ct *. 2.0) in
  Alcotest.check_raises "mismatch raises"
    (Eval.Scale_mismatch "add: scales 2^25.0000 vs 2^26.0000")
    (fun () -> ignore (Eval.add ct up))

let test_level_mismatch_detected () =
  let ctx = Lazy.force test_ctx in
  let rng = Rng.create 19 in
  let n = Context.slots ctx in
  let a = random_msg rng n in
  let ct = enc a 190 in
  let low = Eval.mod_switch ct in
  (try
     ignore (Eval.add ct low);
     Alcotest.fail "expected Level_mismatch"
   with Eval.Level_mismatch _ -> ());
  ignore ctx

let test_rotation_key_pruning () =
  let keys = Lazy.force test_keys in
  let ct = enc (Array.make (Context.slots (Lazy.force test_ctx)) 1.0) 200 in
  (try
     ignore (Eval.rotate keys ct 7);
     Alcotest.fail "expected missing-key failure"
   with Eval.Missing_rotation_key { step; available } ->
     Alcotest.(check int) "failing step is reported" 7 step;
     Alcotest.(check bool) "some keys are listed" true (available <> []);
     Alcotest.(check bool) "missing step not listed" false (List.mem 7 available))

let test_security_rejects_insecure () =
  (* depth*scale_bits far beyond the 128-bit cap for N=2^10. *)
  let params =
    { Context.default_params with Context.log2_n = 10; depth = 4; security = Security.Bits128 }
  in
  (try
     ignore (Context.make params);
     Alcotest.fail "expected Insecure"
   with Context.Insecure _ -> ())

let test_security_table_monotone () =
  List.iter
    (fun lvl ->
      let rec go prev = function
        | [] -> ()
        | ln :: rest ->
          let cap = Security.max_log2_q lvl ~log2_n:ln in
          if cap < prev then Alcotest.fail "cap not monotone";
          go cap rest
      in
      go 0 [ 10; 11; 12; 13; 14; 15; 16 ])
    [ Security.Bits128; Security.Bits192; Security.Bits256 ]

let prop_add_commutes =
  QCheck.Test.make ~name:"homomorphic add commutes" ~count:5 QCheck.(int_range 0 1000)
    (fun seed ->
      let ctx = Lazy.force test_ctx in
      let rng = Rng.create seed in
      let n = Context.slots ctx in
      let a = random_msg rng n and b = random_msg rng n in
      let x = dec (Eval.add (enc a (seed * 2)) (enc b ((seed * 2) + 1))) in
      let y = dec (Eval.add (enc b ((seed * 2) + 1)) (enc a (seed * 2))) in
      max_err x y < 1e-9)

let prop_mul_matches_cleartext =
  QCheck.Test.make ~name:"homomorphic mul matches cleartext" ~count:5 QCheck.(int_range 0 1000)
    (fun seed ->
      let ctx = Lazy.force test_ctx and keys = Lazy.force test_keys in
      let rng = Rng.create (7000 + seed) in
      let n = Context.slots ctx in
      let a = random_msg rng n and b = random_msg rng n in
      let got = dec (Eval.rescale (Eval.mul keys (enc a (seed * 3)) (enc b ((seed * 3) + 1)))) in
      let expect = Array.init n (fun i -> a.(i) *. b.(i)) in
      max_err got expect < 1e-2)

let () =
  Alcotest.run "fhe"
    [
      ( "embedding",
        [
          Alcotest.test_case "special FFT matches naive" `Quick test_embed_matches_naive;
          Alcotest.test_case "roundtrip" `Quick test_embed_roundtrip;
        ] );
      ( "encoder",
        [
          Alcotest.test_case "roundtrip" `Quick test_encode_decode;
          Alcotest.test_case "slotwise ring hom" `Quick test_encode_is_slotwise_ring_hom;
          QCheck_alcotest.to_alcotest prop_decode_matches_bignum;
        ] );
      ( "scheme",
        [
          Alcotest.test_case "encrypt/decrypt" `Quick test_encrypt_decrypt;
          Alcotest.test_case "encrypt at low level" `Quick test_encrypt_at_low_level;
          Alcotest.test_case "encrypt restricts in the eval domain" `Quick
            test_encrypt_restricts_in_eval_domain;
          Alcotest.test_case "add/sub/neg" `Quick test_homomorphic_add;
          Alcotest.test_case "add plain" `Quick test_homomorphic_add_plain;
          Alcotest.test_case "mul plain + rescale" `Quick test_homomorphic_mul_plain_rescale;
          Alcotest.test_case "mul ct-ct" `Quick test_homomorphic_mul;
          Alcotest.test_case "full-depth squaring" `Quick test_mul_depth_chain;
          Alcotest.test_case "rotate" `Quick test_rotate;
          Alcotest.test_case "rotate negative" `Quick test_rotate_negative;
          Alcotest.test_case "conjugate" `Quick test_conjugate;
          Alcotest.test_case "mod switch" `Quick test_mod_switch;
          Alcotest.test_case "upscale" `Quick test_upscale;
          Alcotest.test_case "rotation keys are pruned" `Quick test_rotation_key_pruning;
          QCheck_alcotest.to_alcotest prop_add_commutes;
          QCheck_alcotest.to_alcotest prop_mul_matches_cleartext;
        ] );
      ( "guards",
        [
          Alcotest.test_case "scale mismatch" `Quick test_scale_mismatch_detected;
          Alcotest.test_case "level mismatch" `Quick test_level_mismatch_detected;
        ] );
      ( "security",
        [
          Alcotest.test_case "insecure params rejected" `Quick test_security_rejects_insecure;
          Alcotest.test_case "table monotone" `Quick test_security_table_monotone;
        ] );
    ]
