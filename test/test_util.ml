module Rng = Ace_util.Rng
module Bignum = Ace_util.Bignum

let check = Alcotest.(check int)
let checks = Alcotest.(check string)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

(* The stream is part of the artifact format: keys, ciphertexts and the
   benchmark's inputs are all derived from it, so its first outputs are
   pinned, for two seeds and through every sampler. *)
let test_rng_pinned_stream () =
  let pins =
    [
      ( 1,
        [ -7995527694508729151L; -4689498862643123097L; -534904783426661026L ],
        [ 657; 711; 878; 331; 857 ],
        [ 0x1.22145bd91204bp-1; 0x1.7dd71b42cb1ddp-1; 0x1.f12745ddf664ap-1 ],
        [ -0x1.72466b1ed2879p-4; -0x1.756c606bc0c92p-1; 0x1.51cef54cd925ep-2 ],
        [ -1; 1; -1; 0; 1; 1; -1; 0 ],
        (6791897765849424158L, -4689498862643123097L) );
      ( 42,
        [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L ],
        [ 605; 291; 954; 860; 250 ],
        [ 0x1.7bae644c5fd6dp-1; 0x1.477f199d93378p-3; 0x1.1d499d5c4c3e6p-2 ],
        [ 0x1.53bd0910590d5p+0; -0x1.6d510c3edaecap+1; 0x1.62387d7676898p+2 ],
        [ 1; 0; 1; 1; 0; -1; 0; 1 ],
        (6332618229526065668L, 2949826092126892291L) );
    ]
  in
  List.iter
    (fun (seed, bits, ints, floats, gaussians, ternaries, (split_first, parent_next)) ->
      let draw f expect =
        let r = Rng.create seed in
        List.map (fun _ -> f r) expect
      in
      let what s = Printf.sprintf "seed %d: %s" seed s in
      Alcotest.(check (list int64)) (what "bits64") bits (draw Rng.bits64 bits);
      Alcotest.(check (list int)) (what "int") ints (draw (fun r -> Rng.int r 1000) ints);
      Alcotest.(check (list (float 0.0))) (what "float") floats (draw (fun r -> Rng.float r 1.0) floats);
      Alcotest.(check (list (float 0.0)))
        (what "gaussian") gaussians
        (draw (fun r -> Rng.gaussian r 3.2) gaussians);
      Alcotest.(check (list int)) (what "ternary") ternaries (draw Rng.ternary ternaries);
      let r = Rng.create seed in
      let s = Rng.split r in
      Alcotest.(check int64) (what "split child") split_first (Rng.bits64 s);
      Alcotest.(check int64) (what "split parent") parent_next (Rng.bits64 r))
    pins

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 97 in
    if v < 0 || v >= 97 then Alcotest.fail "out of range"
  done

let test_rng_ternary_range () =
  let r = Rng.create 9 in
  let seen = Array.make 3 0 in
  for _ = 1 to 3_000 do
    let v = Rng.ternary r in
    if v < -1 || v > 1 then Alcotest.fail "ternary out of range";
    seen.(v + 1) <- seen.(v + 1) + 1
  done;
  Array.iter (fun c -> if c < 500 then Alcotest.fail "ternary badly skewed") seen

let test_rng_gaussian_moments () =
  let r = Rng.create 3 in
  let n = 20_000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.gaussian r 3.2 in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  if abs_float mean > 0.1 then Alcotest.fail "gaussian mean off";
  if abs_float (sqrt var -. 3.2) > 0.1 then Alcotest.fail "gaussian sigma off"

let test_rng_split_independent () =
  let a = Rng.create 1 in
  let b = Rng.split a in
  Alcotest.(check bool) "streams differ" false (Rng.bits64 a = Rng.bits64 b)

let test_bignum_roundtrip () =
  List.iter
    (fun n -> check "roundtrip" n (Option.get (Bignum.to_int_opt (Bignum.of_int n))))
    [ 0; 1; 2; 12345; 1 lsl 40; (1 lsl 61) - 1 ]

let test_bignum_string () =
  checks "zero" "0" (Bignum.to_string Bignum.zero);
  checks "small" "123456789" (Bignum.to_string (Bignum.of_int 123456789));
  (* 2^100 = 1267650600228229401496703205376 *)
  let two = Bignum.of_int 2 in
  let p = ref Bignum.one in
  for _ = 1 to 100 do
    p := Bignum.mul !p two
  done;
  checks "2^100" "1267650600228229401496703205376" (Bignum.to_string !p)

let test_bignum_addsub () =
  let r = Rng.create 11 in
  for _ = 1 to 200 do
    let a = Rng.int r (1 lsl 50) and b = Rng.int r (1 lsl 50) in
    let hi = max a b and lo = min a b in
    check "add" (a + b)
      (Option.get (Bignum.to_int_opt (Bignum.add (Bignum.of_int a) (Bignum.of_int b))));
    check "sub" (hi - lo)
      (Option.get (Bignum.to_int_opt (Bignum.sub (Bignum.of_int hi) (Bignum.of_int lo))))
  done

let test_bignum_mul_divmod () =
  let r = Rng.create 13 in
  for _ = 1 to 200 do
    let a = Rng.int r (1 lsl 30) and b = Rng.int r (1 lsl 30) in
    let k = 1 + Rng.int r ((1 lsl 31) - 2) in
    let prod = Bignum.mul (Bignum.of_int a) (Bignum.of_int b) in
    check "mul" (a * b) (Option.get (Bignum.to_int_opt prod));
    let q, m = Bignum.divmod_int prod k in
    check "div" (a * b / k) (Option.get (Bignum.to_int_opt q));
    check "mod" (a * b mod k) m
  done

let test_bignum_rem () =
  let a = Bignum.of_int 1_000_003 and m = Bignum.of_int 97 in
  check "rem" (1_000_003 mod 97) (Option.get (Bignum.to_int_opt (Bignum.rem a m)))

let test_bignum_centered () =
  let m = Bignum.of_int 101 in
  Alcotest.(check (float 1e-9)) "low" 3.0 (Bignum.centered_to_float (Bignum.of_int 3) ~modulus:m);
  Alcotest.(check (float 1e-9)) "high" (-3.0) (Bignum.centered_to_float (Bignum.of_int 98) ~modulus:m)

let test_bignum_to_float () =
  let x = Bignum.mul (Bignum.of_int (1 lsl 40)) (Bignum.of_int (1 lsl 40)) in
  Alcotest.(check (float 1.0)) "2^80" (Float.pow 2.0 80.0) (Bignum.to_float x)

let prop_bignum_mul_commutes =
  QCheck.Test.make ~name:"bignum mul commutes & matches int" ~count:500
    QCheck.(pair (int_bound (1 lsl 30)) (int_bound (1 lsl 30)))
    (fun (a, b) ->
      let open Bignum in
      equal (mul (of_int a) (of_int b)) (mul (of_int b) (of_int a))
      && to_int_opt (mul (of_int a) (of_int b)) = Some (a * b))

let prop_bignum_add_assoc =
  QCheck.Test.make ~name:"bignum add associative" ~count:500
    QCheck.(triple (int_bound (1 lsl 55)) (int_bound (1 lsl 55)) (int_bound (1 lsl 55)))
    (fun (a, b, c) ->
      let open Bignum in
      equal (add (add (of_int a) (of_int b)) (of_int c)) (add (of_int a) (add (of_int b) (of_int c))))

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "pinned stream, two seeds, every sampler" `Quick test_rng_pinned_stream;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "ternary range" `Quick test_rng_ternary_range;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        ] );
      ( "bignum",
        [
          Alcotest.test_case "roundtrip" `Quick test_bignum_roundtrip;
          Alcotest.test_case "decimal printing" `Quick test_bignum_string;
          Alcotest.test_case "add/sub" `Quick test_bignum_addsub;
          Alcotest.test_case "mul/divmod" `Quick test_bignum_mul_divmod;
          Alcotest.test_case "rem" `Quick test_bignum_rem;
          Alcotest.test_case "centered lift" `Quick test_bignum_centered;
          Alcotest.test_case "to_float" `Quick test_bignum_to_float;
          QCheck_alcotest.to_alcotest prop_bignum_mul_commutes;
          QCheck_alcotest.to_alcotest prop_bignum_add_assoc;
        ] );
    ]
