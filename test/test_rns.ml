module Rng = Ace_util.Rng
module Bignum = Ace_util.Bignum
open Ace_rns

let small_ctx ?(n = 16) ?(limbs = 3) () =
  let moduli = Array.of_list (Primes.chain ~count:limbs ~bits:28 ~ring_degree:n) in
  Crt.make ~ring_degree:n ~moduli

let test_modarith_basic () =
  let m = 97 in
  Alcotest.(check int) "add wrap" 1 (Modarith.add 50 48 ~modulus:m);
  Alcotest.(check int) "sub wrap" 96 (Modarith.sub 0 1 ~modulus:m);
  Alcotest.(check int) "mul" (50 * 48 mod 97) (Modarith.mul 50 48 ~modulus:m);
  Alcotest.(check int) "neg zero" 0 (Modarith.neg 0 ~modulus:m);
  Alcotest.(check int) "pow" (Modarith.mul 5 (Modarith.mul 5 5 ~modulus:m) ~modulus:m) (Modarith.pow 5 3 ~modulus:m);
  Alcotest.(check int) "reduce negative" (m - 3) (Modarith.reduce (-3) ~modulus:m);
  Alcotest.(check int) "centered high" (-1) (Modarith.centered (m - 1) ~modulus:m)

let prop_modinv =
  QCheck.Test.make ~name:"modular inverse" ~count:300
    QCheck.(int_range 1 1_000_002)
    (fun a ->
      let m = 1_000_003 in
      (* 1000003 is prime *)
      let a = 1 + (a mod (m - 1)) in
      Modarith.mul a (Modarith.inv a ~modulus:m) ~modulus:m = 1)

let test_primes_known () =
  List.iter
    (fun (n, expect) -> Alcotest.(check bool) (string_of_int n) expect (Primes.is_prime n))
    [
      (0, false); (1, false); (2, true); (3, true); (4, false); (97, true);
      (1_000_003, true); (1_000_004, false);
      ((1 lsl 31) - 1, true) (* Mersenne prime 2147483647 *);
      (1_000_000_007, true);
    ]

let test_ntt_prime_properties () =
  let q = Primes.ntt_prime_near ~bits:28 ~ring_degree:1024 ~below:max_int in
  Alcotest.(check bool) "prime" true (Primes.is_prime q);
  Alcotest.(check int) "congruence" 1 (q mod 2048);
  Alcotest.(check bool) "width" true (q < 1 lsl 28)

let test_prime_chain_distinct () =
  let c = Primes.chain ~count:6 ~bits:28 ~ring_degree:256 in
  Alcotest.(check int) "count" 6 (List.length c);
  Alcotest.(check int) "distinct" 6 (List.length (List.sort_uniq compare c));
  List.iter (fun q -> Alcotest.(check int) "ntt friendly" 1 (q mod 512)) c

let test_root_of_unity () =
  let q = Primes.ntt_prime_near ~bits:20 ~ring_degree:64 ~below:max_int in
  let w = Primes.root_of_unity ~order:128 ~modulus:q in
  Alcotest.(check int) "order divides" 1 (Modarith.pow w 128 ~modulus:q);
  Alcotest.(check bool) "primitive" true (Modarith.pow w 64 ~modulus:q <> 1)

(* Schoolbook negacyclic product for validation. *)
let negacyclic_ref q a b =
  let n = Array.length a in
  let out = Array.make n 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let k = i + j in
      let p = Modarith.mul a.(i) b.(j) ~modulus:q in
      if k < n then out.(k) <- Modarith.add out.(k) p ~modulus:q
      else out.(k - n) <- Modarith.sub out.(k - n) p ~modulus:q
    done
  done;
  out

let test_ntt_roundtrip () =
  let n = 64 in
  let q = Primes.ntt_prime_near ~bits:26 ~ring_degree:n ~below:max_int in
  let plan = Ntt.make ~modulus:q ~ring_degree:n in
  let r = Rng.create 5 in
  for _ = 1 to 20 do
    let a = Array.init n (fun _ -> Rng.int r q) in
    let b = Array.copy a in
    Ntt.forward plan b;
    Ntt.inverse plan b;
    Alcotest.(check bool) "roundtrip" true (a = b)
  done

let test_ntt_convolution_matches_schoolbook () =
  let r = Rng.create 17 in
  List.iter
    (fun n ->
      let q = Primes.ntt_prime_near ~bits:26 ~ring_degree:n ~below:max_int in
      let plan = Ntt.make ~modulus:q ~ring_degree:n in
      for _ = 1 to 5 do
        let a = Array.init n (fun _ -> Rng.int r q) in
        let b = Array.init n (fun _ -> Rng.int r q) in
        let fast = Ntt.negacyclic_convolution plan a b in
        let slow = negacyclic_ref q a b in
        Alcotest.(check bool) (Printf.sprintf "n=%d" n) true (fast = slow)
      done)
    [ 4; 8; 32; 128 ]

(* Issue-mandated property sizes: roundtrip and naive-O(n^2) agreement at
   small, medium and production-adjacent ring degrees. *)
let test_ntt_roundtrip_sizes () =
  List.iter
    (fun n ->
      let q = Primes.ntt_prime_near ~bits:28 ~ring_degree:n ~below:max_int in
      let plan = Ntt.make ~modulus:q ~ring_degree:n in
      let r = Rng.create (100 + n) in
      let a = Array.init n (fun _ -> Rng.int r q) in
      let b = Array.copy a in
      Ntt.forward plan b;
      Ntt.inverse plan b;
      Alcotest.(check bool) (Printf.sprintf "roundtrip n=%d" n) true (a = b))
    [ 8; 64; 1024 ]

let test_ntt_negacyclic_sizes () =
  List.iter
    (fun n ->
      let q = Primes.ntt_prime_near ~bits:26 ~ring_degree:n ~below:max_int in
      let plan = Ntt.make ~modulus:q ~ring_degree:n in
      let r = Rng.create (200 + n) in
      let a = Array.init n (fun _ -> Rng.int r q) in
      let b = Array.init n (fun _ -> Rng.int r q) in
      Alcotest.(check bool)
        (Printf.sprintf "negacyclic n=%d" n)
        true
        (Ntt.negacyclic_convolution plan a b = negacyclic_ref q a b))
    [ 8; 64; 1024 ]

let test_ntt_linear () =
  let n = 32 in
  let q = Primes.ntt_prime_near ~bits:24 ~ring_degree:n ~below:max_int in
  let plan = Ntt.make ~modulus:q ~ring_degree:n in
  let r = Rng.create 23 in
  let a = Array.init n (fun _ -> Rng.int r q) in
  let b = Array.init n (fun _ -> Rng.int r q) in
  let sum = Array.init n (fun i -> Modarith.add a.(i) b.(i) ~modulus:q) in
  let fa = Array.copy a and fb = Array.copy b and fs = Array.copy sum in
  Ntt.forward plan fa;
  Ntt.forward plan fb;
  Ntt.forward plan fs;
  let fsum = Array.init n (fun i -> Modarith.add fa.(i) fb.(i) ~modulus:q) in
  Alcotest.(check bool) "NTT is linear" true (fs = fsum)

(* The Barrett constants are per-width (k <= 30 classic, k = 31 special
   case); exercise every supported width against a bignum reference,
   including the worst case (q-1)^2 where the old float quotient lost
   precision above 2^53. *)
let test_barrett_pointwise_mul_widths () =
  let r = Rng.create 97 in
  List.iter
    (fun bits ->
      let n = 64 in
      let q = Primes.ntt_prime_near ~bits ~ring_degree:n ~below:max_int in
      let plan = Ntt.make ~modulus:q ~ring_degree:n in
      for trial = 1 to 10 do
        let a = Array.init n (fun _ -> Rng.int r q) in
        let b = Array.init n (fun _ -> Rng.int r q) in
        if trial = 1 then begin
          (* force extreme operands *)
          a.(0) <- q - 1; b.(0) <- q - 1;
          a.(1) <- q - 1; b.(1) <- 1;
          a.(2) <- 0; b.(2) <- q - 1
        end;
        let dst = Array.make n 0 in
        Ntt.pointwise_mul plan dst a b;
        for i = 0 to n - 1 do
          let expect = Bignum.mod_int (Bignum.mul_int (Bignum.of_int a.(i)) b.(i)) q in
          if dst.(i) <> expect then
            Alcotest.failf "bits=%d: %d * %d mod %d: expected %d, got %d" bits a.(i) b.(i) q
              expect dst.(i)
        done
      done)
    [ 18; 20; 24; 26; 28; 29; 30; 31 ]

let test_barrett_pointwise_mul_acc () =
  let r = Rng.create 101 in
  let n = 32 in
  let q = Primes.ntt_prime_near ~bits:31 ~ring_degree:n ~below:max_int in
  let plan = Ntt.make ~modulus:q ~ring_degree:n in
  let a = Array.init n (fun _ -> Rng.int r q) in
  let b = Array.init n (fun _ -> Rng.int r q) in
  let dst = Array.init n (fun _ -> Rng.int r q) in
  let expect =
    Array.init n (fun i ->
        Bignum.mod_int (Bignum.add_int (Bignum.mul_int (Bignum.of_int a.(i)) b.(i)) dst.(i)) q)
  in
  Ntt.pointwise_mul_acc plan dst a b;
  Alcotest.(check bool) "acc matches bignum" true (dst = expect)

let test_reduce_scalar () =
  let n = 32 in
  let q = Primes.ntt_prime_near ~bits:30 ~ring_degree:n ~below:max_int in
  let plan = Ntt.make ~modulus:q ~ring_degree:n in
  List.iter
    (fun v ->
      let got = Ntt.reduce_scalar plan v in
      Alcotest.(check bool) "range" true (got >= 0 && got < q);
      (* v - got must be a multiple of q; check via symmetric residues *)
      let naive = ((v mod q) + q) mod q in
      Alcotest.(check int) (string_of_int v) naive got)
    [ 0; 1; -1; q; -q; q - 1; (q - 1) * (q - 1); -((q - 1) * (q - 1)); max_int; min_int + 1 ]

let test_crt_recombine () =
  let ctx = small_ctx () in
  let limbs = Crt.num_moduli ctx in
  let x = 123_456_789_012_345 in
  let v = Crt.crt_to_bignum ctx ~limbs (fun i -> x mod Crt.modulus ctx i) in
  Alcotest.(check string) "value" (string_of_int x) (Bignum.to_string v)

let test_crt_qhat_identities () =
  let ctx = small_ctx () in
  let limbs = 3 in
  let invs = Crt.qhat_invs ctx ~limbs in
  for i = 0 to limbs - 1 do
    let qi = Crt.modulus ctx i in
    (* (Q/q_i) mod q_i times its inverse must be 1. *)
    let qhat_mod_qi =
      let acc = ref 1 in
      for j = 0 to limbs - 1 do
        if j <> i then acc := Modarith.mul !acc (Crt.modulus ctx j mod qi) ~modulus:qi
      done;
      !acc
    in
    Alcotest.(check int) "qhat*inv=1" 1 (Modarith.mul qhat_mod_qi invs.(i) ~modulus:qi)
  done

let test_poly_add_sub_neg () =
  let ctx = small_ctx () in
  let idx = Rns_poly.prefix_idx ~limbs:3 in
  let r = Rng.create 31 in
  let a = Rns_poly.sample_uniform ctx ~chain_idx:idx r in
  let b = Rns_poly.sample_uniform ctx ~chain_idx:idx r in
  let open Rns_poly in
  Alcotest.(check bool) "a+b-b=a" true (equal a (sub (add a b) b));
  Alcotest.(check bool) "a+(-a)=0" true (equal (create ctx ~chain_idx:idx Eval) (add a (neg a)))

(* [add]/[sub] against [Modarith] coefficient by coefficient, at every
   prime of two runtime contexts (the chains the compiler executes on). *)
let runtime_crts =
  lazy
    (List.map
       (fun slots ->
         Ace_fhe.Context.crt (Ace_ckks_ir.Param_select.execution_context ~slots ()))
       [ 16; 1024 ])

let prop_add_sub_match_modarith =
  QCheck.Test.make ~name:"Rns_poly.add/sub = Modarith.add/sub at every runtime prime" ~count:10
    QCheck.small_nat (fun seed ->
      List.for_all
        (fun ctx ->
          let idx = Rns_poly.prefix_idx ~limbs:(Crt.num_moduli ctx) in
          let r = Rng.create (seed + 1) in
          let a = Rns_poly.sample_uniform ctx ~chain_idx:idx r in
          let b = Rns_poly.sample_uniform ctx ~chain_idx:idx r in
          let sum = (Rns_poly.add a b :> Rns_poly.t).data
          and diff = (Rns_poly.sub a b :> Rns_poly.t).data in
          let a = (a :> Rns_poly.t).data and b = (b :> Rns_poly.t).data in
          let ok = ref true in
          Array.iteri
            (fun k row ->
              let modulus = Crt.modulus ctx idx.(k) in
              Array.iteri
                (fun i x ->
                  if
                    sum.(k).(i) <> Modarith.add x b.(k).(i) ~modulus
                    || diff.(k).(i) <> Modarith.sub x b.(k).(i) ~modulus
                  then ok := false)
                row)
            a;
          !ok)
        (Lazy.force runtime_crts))

let test_poly_mul_matches_schoolbook () =
  let ctx = small_ctx ~n:16 ~limbs:2 () in
  let idx = Rns_poly.prefix_idx ~limbs:2 in
  let r = Rng.create 37 in
  let coeffs () = Array.init 16 (fun _ -> Rng.int r 1000 - 500) in
  let ca = coeffs () and cb = coeffs () in
  let a = Rns_poly.of_centered_coeffs ctx ~chain_idx:idx ca in
  let b = Rns_poly.of_centered_coeffs ctx ~chain_idx:idx cb in
  let prod = Rns_poly.(to_coeff (mul (to_ntt a) (to_ntt b))) in
  for k = 0 to 1 do
    let q = Crt.modulus ctx k in
    let ra = Array.map (fun c -> Modarith.reduce c ~modulus:q) ca in
    let rb = Array.map (fun c -> Modarith.reduce c ~modulus:q) cb in
    let expect = negacyclic_ref q ra rb in
    Alcotest.(check bool) "limb product" true (expect = (prod :> Rns_poly.t).data.(k))
  done

let test_poly_automorphism_involution () =
  let ctx = small_ctx ~n:16 ~limbs:2 () in
  let idx = Rns_poly.prefix_idx ~limbs:2 in
  let r = Rng.create 41 in
  let a = Rns_poly.(to_coeff (sample_uniform ctx ~chain_idx:idx r)) in
  (* g * g^-1 = 1 mod 2N composes to the identity. *)
  let g = 5 in
  let g_inv =
    let two_n = 32 in
    let rec find x = if x * g mod two_n = 1 then x else find (x + 2) in
    find 1
  in
  let b = Rns_poly.automorphism ~galois:g_inv (Rns_poly.automorphism ~galois:g a) in
  Alcotest.(check bool) "involution" true (Rns_poly.equal a b)

let test_poly_automorphism_is_hom () =
  (* automorphism(a*b) = automorphism(a) * automorphism(b) *)
  let ctx = small_ctx ~n:16 ~limbs:1 () in
  let idx = Rns_poly.prefix_idx ~limbs:1 in
  let r = Rng.create 43 in
  let a = Rns_poly.(to_coeff (sample_uniform ctx ~chain_idx:idx r)) in
  let b = Rns_poly.(to_coeff (sample_uniform ctx ~chain_idx:idx r)) in
  let open Rns_poly in
  let mulc x y = to_coeff (mul (to_ntt x) (to_ntt y)) in
  let lhs = automorphism ~galois:5 (mulc a b) in
  let rhs = mulc (automorphism ~galois:5 a) (automorphism ~galois:5 b) in
  Alcotest.(check bool) "ring homomorphism" true (equal lhs rhs)

(* sigma_g(sigma_h(x)) = sigma_{g*h mod 2N}(x) for odd Galois elements. *)
let test_poly_automorphism_composition () =
  let n = 16 in
  let two_n = 2 * n in
  let ctx = small_ctx ~n ~limbs:2 () in
  let idx = Rns_poly.prefix_idx ~limbs:2 in
  let r = Rng.create 53 in
  let a = Rns_poly.(to_coeff (sample_uniform ctx ~chain_idx:idx r)) in
  List.iter
    (fun (g, h) ->
      let lhs = Rns_poly.automorphism ~galois:g (Rns_poly.automorphism ~galois:h a) in
      let rhs = Rns_poly.automorphism ~galois:(g * h mod two_n) a in
      Alcotest.(check bool)
        (Printf.sprintf "sigma_%d o sigma_%d" g h)
        true (Rns_poly.equal lhs rhs))
    [ (5, 5); (5, 13); (13, 25); (31, 5); (7, 9); (3, 11) ]

(* Rescale must equal round(c / q_top) on the centered lift: verify
   |c - q_top * c'| <= q_top/2 + 1 coefficient-wise with exact bignum
   arithmetic (the full modulus is ~2^84 here, far beyond native ints). *)
let test_poly_rescale_error_bound_bignum () =
  let n = 16 and limbs = 3 in
  let ctx = small_ctx ~n ~limbs () in
  let idx = Rns_poly.prefix_idx ~limbs in
  let q_top = Crt.modulus ctx (limbs - 1) in
  let q_full = Crt.product ctx ~limbs in
  let q' = Crt.product ctx ~limbs:(limbs - 1) in
  let centered big q =
    (* residue in [0,q) -> (negative?, magnitude) of the centered lift *)
    if Bignum.compare (Bignum.add big big) q > 0 then (true, Bignum.sub q big)
    else (false, big)
  in
  let r = Rng.create 59 in
  for _ = 1 to 5 do
    let p = Rns_poly.(to_coeff (sample_uniform ctx ~chain_idx:idx r)) in
    let p' = Rns_poly.rescale p in
    for i = 0 to n - 1 do
      let c_neg, c_mag = centered (Rns_poly.coeff_bignum p i) q_full in
      let c'_neg, c'_mag = centered (Rns_poly.coeff_bignum p' i) q' in
      let scaled = Bignum.mul_int c'_mag q_top in
      let err =
        if c_neg = c'_neg || Bignum.equal c'_mag Bignum.zero then
          if Bignum.compare c_mag scaled >= 0 then Bignum.sub c_mag scaled
          else Bignum.sub scaled c_mag
        else Bignum.add c_mag scaled
      in
      if Bignum.compare err (Bignum.of_int ((q_top / 2) + 1)) > 0 then
        Alcotest.failf "coeff %d: rescale error %s exceeds q_top/2 (q_top=%d)" i
          (Bignum.to_string err) q_top
    done
  done

let test_poly_rescale_divides () =
  let ctx = small_ctx ~n:16 ~limbs:3 () in
  let idx = Rns_poly.prefix_idx ~limbs:3 in
  (* A constant polynomial with value v * q_top rescales to exactly v. *)
  let q_top = Crt.modulus ctx 2 in
  let v = 12345 in
  let coeffs = Array.make 16 0 in
  coeffs.(0) <- v * q_top;
  coeffs.(3) <- -7 * q_top;
  let p = Rns_poly.of_centered_coeffs ctx ~chain_idx:idx coeffs in
  let p' = Rns_poly.rescale p in
  Alcotest.(check int) "limbs" 2 (Rns_poly.num_limbs p');
  let q0 = Crt.modulus ctx 0 in
  Alcotest.(check int) "coeff0" (Modarith.reduce v ~modulus:q0) (p' :> Rns_poly.t).data.(0).(0);
  Alcotest.(check int) "coeff3" (Modarith.reduce (-7) ~modulus:q0) (p' :> Rns_poly.t).data.(0).(3)

let test_poly_rescale_rounds () =
  let ctx = small_ctx ~n:16 ~limbs:2 () in
  let idx = Rns_poly.prefix_idx ~limbs:2 in
  let q_top = Crt.modulus ctx 1 in
  let v = 1000 in
  let eps = 3 in
  (* v*q_top + eps must round to v. *)
  let coeffs = Array.make 16 0 in
  coeffs.(0) <- (v * q_top) + eps;
  let p' = Rns_poly.rescale (Rns_poly.of_centered_coeffs ctx ~chain_idx:idx coeffs) in
  Alcotest.(check int) "rounded" v (p' :> Rns_poly.t).data.(0).(0)

let test_poly_coeff_bignum () =
  let ctx = small_ctx ~n:16 ~limbs:3 () in
  let idx = Rns_poly.prefix_idx ~limbs:3 in
  let coeffs = Array.make 16 0 in
  coeffs.(5) <- 999_888_777_666;
  let p = Rns_poly.of_centered_coeffs ctx ~chain_idx:idx coeffs in
  Alcotest.(check string) "coeff" "999888777666" (Bignum.to_string (Rns_poly.coeff_bignum p 5))

(* [Crt.lift_centered] against the bignum lift, at every limb count of
   two runtime contexts: small centered values (every one must lift
   natively and exactly), values around 2^60..2^62, uniform residues and
   values next to +-Q/2 (which must take the fallback once Q/2 passes
   2^61). Where it lifts, the native float is the bignum float bit for
   bit: both round the same integer once. *)
let prop_lift_centered =
  QCheck.Test.make ~name:"lift_centered = centered crt_to_bignum at every runtime limb count"
    ~count:20 QCheck.small_nat (fun seed ->
      let r = Rng.create (seed + 11) in
      List.for_all
        (fun ctx ->
          List.for_all
            (fun limbs ->
              let q = Crt.product ctx ~limbs in
              let half, _ = Bignum.divmod_int q 2 in
              let of_big b = Array.init limbs (fun k -> [| Bignum.mod_int b (Crt.modulus ctx k) |]) in
              let of_int v =
                Array.init limbs (fun k -> [| Modarith.reduce v ~modulus:(Crt.modulus ctx k) |])
              in
              let check ~must_lift ~must_fall rows =
                let big = Crt.crt_to_bignum ctx ~limbs (fun k -> rows.(k).(0)) in
                let exact = Bignum.centered_to_float big ~modulus:q in
                let v = Crt.lift_centered ctx ~limbs rows 0 in
                if v = Crt.too_big then not must_lift
                else
                  (not must_fall)
                  && Int64.bits_of_float (float_of_int v) = Int64.bits_of_float exact
                  && Bignum.equal big
                       (if v >= 0 then Bignum.of_int v else Bignum.sub q (Bignum.of_int (-v)))
              in
              let small =
                List.concat_map
                  (fun b ->
                    let v = Rng.int r (1 lsl b) in
                    [ v; -v ])
                  [ 1; 20; 40; 52; 55; 59 ]
              in
              let fits v = Bignum.compare (Bignum.of_int (abs v)) half <= 0 in
              let big_ones = [ (1 lsl 60) + Rng.int r (1 lsl 61); max_int; -max_int ] in
              let past_native = Bignum.compare half (Bignum.of_int (1 lsl 61)) >= 0
              and below_native = Bignum.compare half (Bignum.of_int (1 lsl 60)) < 0 in
              let near_half =
                List.concat_map
                  (fun d -> [ Bignum.sub half (Bignum.of_int d); Bignum.add half (Bignum.of_int (d + 1)) ])
                  [ 0; 1; 2; 3 ]
              in
              List.for_all (fun v -> (not (fits v)) || check ~must_lift:true ~must_fall:false (of_int v)) small
              && List.for_all (fun v -> (not (fits v)) || check ~must_lift:false ~must_fall:false (of_int v)) big_ones
              && List.for_all (fun b -> check ~must_lift:below_native ~must_fall:past_native (of_big b)) near_half
              && List.for_all
                   (fun _ ->
                     check ~must_lift:false ~must_fall:false
                       (Array.init limbs (fun k -> [| Rng.int r (Crt.modulus ctx k) |])))
                   [ 1; 2; 3; 4 ])
            (List.init (Crt.num_moduli ctx) (fun l -> l + 1)))
        (Lazy.force runtime_crts))

let prop_poly_add_comm =
  QCheck.Test.make ~name:"poly addition commutes" ~count:50 QCheck.(int_range 0 10_000)
    (fun seed ->
      let ctx = small_ctx () in
      let idx = Rns_poly.prefix_idx ~limbs:3 in
      let r = Rng.create seed in
      let a = Rns_poly.sample_uniform ctx ~chain_idx:idx r in
      let b = Rns_poly.sample_uniform ctx ~chain_idx:idx r in
      Rns_poly.(equal (add a b) (add b a)))

let prop_poly_mul_distributes =
  QCheck.Test.make ~name:"poly mul distributes over add" ~count:25 QCheck.(int_range 0 10_000)
    (fun seed ->
      let ctx = small_ctx () in
      let idx = Rns_poly.prefix_idx ~limbs:3 in
      let r = Rng.create seed in
      let a = Rns_poly.sample_uniform ctx ~chain_idx:idx r in
      let b = Rns_poly.sample_uniform ctx ~chain_idx:idx r in
      let c = Rns_poly.sample_uniform ctx ~chain_idx:idx r in
      let open Rns_poly in
      equal (mul a (add b c)) (add (mul a b) (mul a c)))

(* The division-free kernels of key switching against the [mod] versions
   they replace, at every prime of the contexts the runtime builds (the
   special prime included), over the whole centered range a digit lift
   can produce: |c| <= 2^30, the half-width of a 31-bit prime. *)
let runtime_plans =
  lazy
    (List.concat_map
       (fun (log2_n, scale_bits) ->
         let ctx =
           Ace_fhe.Context.make
             {
               Ace_fhe.Context.default_params with
               log2_n;
               scale_bits;
               security = Ace_fhe.Security.Toy;
             }
         in
         let crt = Ace_fhe.Context.crt ctx in
         List.init (Crt.num_moduli crt) (Crt.plan crt))
       [ (5, 20); (11, 26); (12, 25); (13, 28) ])

let prop_reduce_centered =
  let bound = 1 lsl 30 in
  QCheck.Test.make ~name:"reduce_centered = reduce_scalar at every runtime prime" ~count:200
    QCheck.(list_of_size (Gen.return 64) (int_range (-bound) bound))
    (fun cs ->
      let cs = (-bound) :: bound :: 0 :: (-1) :: 1 :: cs in
      List.for_all
        (fun plan ->
          let q = Ntt.modulus plan in
          List.for_all
            (fun c -> Ntt.reduce_centered plan c = Ntt.reduce_scalar plan c)
            ((q - 1) :: (1 - q) :: (q / 2) :: (-(q / 2)) :: cs))
        (Lazy.force runtime_plans))

let prop_sub_mul_shoup =
  QCheck.Test.make ~name:"sub_mul_shoup = Modarith.sub then mul at every runtime prime"
    ~count:50 QCheck.int
    (fun seed ->
      let r = Rng.create seed in
      List.for_all
        (fun plan ->
          let q = Ntt.modulus plan and n = Ntt.ring_degree plan in
          let a = Array.init n (fun _ -> Rng.int r q) and dst = Array.init n (fun _ -> Rng.int r q) in
          a.(0) <- q - 1;
          dst.(0) <- 0;
          if n > 1 then dst.(1) <- q - 1;
          let w = Rng.int r q in
          let expect =
            Array.init n (fun j -> Modarith.mul (Modarith.sub a.(j) dst.(j) ~modulus:q) w ~modulus:q)
          in
          Ntt.sub_mul_shoup plan dst a w (Ntt.shoup_companion plan w);
          dst = expect)
        (Lazy.force runtime_plans))

let () =
  Alcotest.run "rns"
    [
      ( "modarith",
        [
          Alcotest.test_case "basics" `Quick test_modarith_basic;
          QCheck_alcotest.to_alcotest prop_modinv;
          QCheck_alcotest.to_alcotest prop_add_sub_match_modarith;
        ] );
      ( "primes",
        [
          Alcotest.test_case "known primes" `Quick test_primes_known;
          Alcotest.test_case "ntt prime properties" `Quick test_ntt_prime_properties;
          Alcotest.test_case "chain distinct" `Quick test_prime_chain_distinct;
          Alcotest.test_case "root of unity" `Quick test_root_of_unity;
        ] );
      ( "ntt",
        [
          Alcotest.test_case "roundtrip" `Quick test_ntt_roundtrip;
          Alcotest.test_case "matches schoolbook" `Quick test_ntt_convolution_matches_schoolbook;
          Alcotest.test_case "roundtrip sizes 8/64/1024" `Quick test_ntt_roundtrip_sizes;
          Alcotest.test_case "negacyclic sizes 8/64/1024" `Quick test_ntt_negacyclic_sizes;
          Alcotest.test_case "linearity" `Quick test_ntt_linear;
          Alcotest.test_case "barrett widths vs bignum" `Quick test_barrett_pointwise_mul_widths;
          Alcotest.test_case "barrett multiply-accumulate" `Quick test_barrett_pointwise_mul_acc;
          Alcotest.test_case "reduce scalar" `Quick test_reduce_scalar;
          QCheck_alcotest.to_alcotest prop_reduce_centered;
          QCheck_alcotest.to_alcotest prop_sub_mul_shoup;
        ] );
      ( "crt",
        [
          Alcotest.test_case "recombine" `Quick test_crt_recombine;
          Alcotest.test_case "qhat identities" `Quick test_crt_qhat_identities;
        ] );
      ( "poly",
        [
          Alcotest.test_case "add/sub/neg" `Quick test_poly_add_sub_neg;
          Alcotest.test_case "mul vs schoolbook" `Quick test_poly_mul_matches_schoolbook;
          Alcotest.test_case "automorphism involution" `Quick test_poly_automorphism_involution;
          Alcotest.test_case "automorphism is ring hom" `Quick test_poly_automorphism_is_hom;
          Alcotest.test_case "automorphism composition" `Quick test_poly_automorphism_composition;
          Alcotest.test_case "rescale error bound (bignum)" `Quick
            test_poly_rescale_error_bound_bignum;
          Alcotest.test_case "rescale divides" `Quick test_poly_rescale_divides;
          Alcotest.test_case "rescale rounds" `Quick test_poly_rescale_rounds;
          Alcotest.test_case "coeff bignum" `Quick test_poly_coeff_bignum;
          QCheck_alcotest.to_alcotest prop_lift_centered;
          QCheck_alcotest.to_alcotest prop_poly_add_comm;
          QCheck_alcotest.to_alcotest prop_poly_mul_distributes;
        ] );
    ]
