(* Butterflies use Shoup multiplication: for a fixed twiddle w modulo q,
   precompute w' = floor(w * 2^31 / q); then
       mulmod(x, w) = x*w - (x*w' >> 31)*q, corrected by one subtraction.
   All products stay below 2^62, inside OCaml's native int. This replaces
   the hardware division of [mod] in the transform's inner loop. *)

type plan = {
  modulus : int;
  n : int;
  log_n : int;
  (* Harvey lazy reduction keeps butterfly values in [0, 4q) and reduces
     once after the last stage. The bound 4q <= 2^31 (so the lazy Shoup
     product x*w' stays under 2^62) restricts it to q <= 2^29; wider
     moduli (the 30-bit special prime) take the exact per-butterfly
     path. Both paths emit canonical residues, so results are
     bit-identical either way. *)
  lazy_ok : bool;
  two_q : int;
  barrett_mu : int;
  barrett_a : int;
  barrett_b : int;
  (* Division-free reduction of a centered digit c, |c| <= 2^30
     ([reduce_centered]): x = c + lift_offset is non-negative and below
     2^32, and ((x * lift_mu) lsr lift_shift) is floor(x / q) or one
     less, so a single conditional subtract finishes. *)
  lift_offset : int;
  lift_mu : int;
  lift_shift : int;
  psi_pows : int array;
  psi_pows_shoup : int array;
  psi_inv_pows : int array;
  psi_inv_pows_shoup : int array;
  omega_stage : int array array;
  omega_stage_shoup : int array array;
  omega_inv_stage : int array array;
  omega_inv_stage_shoup : int array array;
  bitrev : int array;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2i n =
  let rec go acc n = if n = 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let shoup w q = (w lsl 31) / q

let shoup_of q a = Array.map (fun w -> shoup w q) a

(* Integer Barrett parameters for reducing products x*y < q^2 < 2^62.
   With k the bit-width of q, mu = floor(2^(2k) / q) and the quotient
   estimate  quot = ((p >> (k-1)) * mu) >> (k+1)  satisfies the classic
   bounds 0 <= p - quot*q < 4q with every intermediate below 2^62 for
   k <= 30. At k = 31 those shifts would overflow, so the widest moduli
   use mu = floor(2^62 / q) with shifts (32, 30); the looser estimate is
   still within 7q of the true remainder. The float-quotient variant this
   replaces lost bits once x*y crossed 2^53, where "off by at most one"
   no longer holds. *)
let bit_width q =
  let rec go b n = if n = 0 then b else go (b + 1) (n lsr 1) in
  go 0 q

let barrett_params q =
  let bits = bit_width q in
  if bits <= 30 then ((1 lsl (2 * bits)) / q, bits - 1, bits + 1)
  else (max_int / q, 32, 30)

let[@inline] barrett_mul p x y =
  let prod = x * y in
  let quot = ((prod asr p.barrett_a) * p.barrett_mu) asr p.barrett_b in
  let r = ref (prod - (quot * p.modulus)) in
  while !r >= p.modulus do
    r := !r - p.modulus
  done;
  !r

let make ~modulus ~ring_degree =
  if not (is_pow2 ring_degree) then invalid_arg "Ntt.make: degree not a power of two";
  if (modulus - 1) mod (2 * ring_degree) <> 0 then
    invalid_arg "Ntt.make: modulus not NTT-friendly";
  if modulus >= 1 lsl 31 then invalid_arg "Ntt.make: modulus too wide";
  let n = ring_degree in
  let log_n = log2i n in
  let psi = Primes.root_of_unity ~order:(2 * n) ~modulus in
  let omega = Modarith.mul psi psi ~modulus in
  let pows base =
    let a = Array.make n 1 in
    for i = 1 to n - 1 do
      a.(i) <- Modarith.mul a.(i - 1) base ~modulus
    done;
    a
  in
  let psi_pows = pows psi in
  let psi_inv = Modarith.inv psi ~modulus in
  let n_inv = Modarith.inv n ~modulus in
  let psi_inv_pows =
    let a = pows psi_inv in
    Array.map (fun x -> Modarith.mul x n_inv ~modulus) a
  in
  let omega_stage = Array.make log_n [||] in
  let omega_inv_stage = Array.make log_n [||] in
  let omega_inv = Modarith.inv omega ~modulus in
  for s = 1 to log_n do
    let half = 1 lsl (s - 1) in
    let step = n lsr s in
    let tw = Array.make half 1 and tw_inv = Array.make half 1 in
    let w = Modarith.pow omega step ~modulus in
    let w_inv = Modarith.pow omega_inv step ~modulus in
    for j = 1 to half - 1 do
      tw.(j) <- Modarith.mul tw.(j - 1) w ~modulus;
      tw_inv.(j) <- Modarith.mul tw_inv.(j - 1) w_inv ~modulus
    done;
    omega_stage.(s - 1) <- tw;
    omega_inv_stage.(s - 1) <- tw_inv
  done;
  let bitrev = Array.make n 0 in
  for i = 0 to n - 1 do
    let r = ref 0 and x = ref i in
    for _ = 1 to log_n do
      r := (!r lsl 1) lor (!x land 1);
      x := !x lsr 1
    done;
    bitrev.(i) <- !r
  done;
  let barrett_mu, barrett_a, barrett_b = barrett_params modulus in
  (* With b the bit-width of q and s = 29 + b: x < 2^32 and
     mu = floor(2^s / q) < 2^30 keep x * mu below 2^62, and the quotient
     estimate is short of floor(x / q) by x / 2^s < 2^(3-b) < 1. *)
  let lift_shift = 29 + bit_width modulus in
  {
    modulus;
    n;
    log_n;
    lazy_ok = modulus <= 1 lsl 29;
    two_q = 2 * modulus;
    barrett_mu;
    barrett_a;
    barrett_b;
    lift_offset = ((1 lsl 30) + modulus - 1) / modulus * modulus;
    lift_mu = (1 lsl lift_shift) / modulus;
    lift_shift;
    psi_pows;
    psi_pows_shoup = shoup_of modulus psi_pows;
    psi_inv_pows;
    psi_inv_pows_shoup = shoup_of modulus psi_inv_pows;
    omega_stage;
    omega_stage_shoup = Array.map (shoup_of modulus) omega_stage;
    omega_inv_stage;
    omega_inv_stage_shoup = Array.map (shoup_of modulus) omega_inv_stage;
    bitrev;
  }

let modulus p = p.modulus
let ring_degree p = p.n

let permute_bitrev p a =
  for i = 0 to p.n - 1 do
    let j = p.bitrev.(i) in
    if j > i then begin
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    end
  done

let[@inline] mul_shoup x w w' q =
  let t = (x * w') lsr 31 in
  let r = (x * w) - (t * q) in
  if r >= q then r - q else r

let cyclic_ntt p stages stages_shoup a =
  let q = p.modulus in
  permute_bitrev p a;
  for s = 1 to p.log_n do
    let half = 1 lsl (s - 1) in
    let len = half lsl 1 in
    let tw = stages.(s - 1) and tw' = stages_shoup.(s - 1) in
    let i = ref 0 in
    while !i < p.n do
      let base = !i in
      for j = 0 to half - 1 do
        let u = Array.unsafe_get a (base + j) in
        let x = Array.unsafe_get a (base + j + half) in
        let v = mul_shoup x (Array.unsafe_get tw j) (Array.unsafe_get tw' j) q in
        let s1 = u + v in
        Array.unsafe_set a (base + j) (if s1 >= q then s1 - q else s1);
        let d = u - v in
        Array.unsafe_set a (base + j + half) (if d < 0 then d + q else d)
      done;
      i := base + len
    done
  done

(* Harvey-style lazy stage loop: operands live in [0, 4q). Each butterfly
   pays one conditional subtract (u -= 2q when u >= 2q) instead of two,
   and the Shoup product skips its correction entirely — for x < 2^31 the
   uncorrected  x*w - ((x*w') >> 31)*q  already lies in [0, 2q). Outputs
   u + v < 4q and u - v + 2q < 4q re-establish the invariant. Callers
   reduce to canonical form once after the last stage. *)
let cyclic_ntt_lazy p stages stages_shoup a =
  let q = p.modulus in
  let q2 = p.two_q in
  permute_bitrev p a;
  for s = 1 to p.log_n do
    let half = 1 lsl (s - 1) in
    let len = half lsl 1 in
    let tw = stages.(s - 1) and tw' = stages_shoup.(s - 1) in
    let i = ref 0 in
    while !i < p.n do
      let base = !i in
      for j = 0 to half - 1 do
        let u = Array.unsafe_get a (base + j) in
        let u = if u >= q2 then u - q2 else u in
        let x = Array.unsafe_get a (base + j + half) in
        let v = (x * Array.unsafe_get tw j) - (((x * Array.unsafe_get tw' j) lsr 31) * q) in
        Array.unsafe_set a (base + j) (u + v);
        Array.unsafe_set a (base + j + half) (u - v + q2)
      done;
      i := base + len
    done
  done

let twist p pows pows' a =
  let q = p.modulus in
  for i = 0 to p.n - 1 do
    Array.unsafe_set a i
      (mul_shoup (Array.unsafe_get a i) (Array.unsafe_get pows i) (Array.unsafe_get pows' i) q)
  done

let forward p a =
  twist p p.psi_pows p.psi_pows_shoup a;
  if p.lazy_ok then begin
    cyclic_ntt_lazy p p.omega_stage p.omega_stage_shoup a;
    let q = p.modulus and q2 = p.two_q in
    for i = 0 to p.n - 1 do
      let v = Array.unsafe_get a i in
      let v = if v >= q2 then v - q2 else v in
      Array.unsafe_set a i (if v >= q then v - q else v)
    done
  end
  else cyclic_ntt p p.omega_stage p.omega_stage_shoup a

let inverse p a =
  (* The final twist's exact Shoup multiply is correct for any x < 2^31,
     so it absorbs the [0, 4q) cleanup of the lazy stages for free. *)
  if p.lazy_ok then cyclic_ntt_lazy p p.omega_inv_stage p.omega_inv_stage_shoup a
  else cyclic_ntt p p.omega_inv_stage p.omega_inv_stage_shoup a;
  (* psi_inv_pows carries both the untwist and the 1/n factor. *)
  twist p p.psi_inv_pows p.psi_inv_pows_shoup a

let pointwise_mul p dst a b =
  for i = 0 to p.n - 1 do
    Array.unsafe_set dst i (barrett_mul p (Array.unsafe_get a i) (Array.unsafe_get b i))
  done

(* dst += a * b mod q, in place; the multiply-accumulate at the heart of
   gadget keyswitching. *)
let pointwise_mul_acc p dst a b =
  let q = p.modulus in
  for i = 0 to p.n - 1 do
    let r = barrett_mul p (Array.unsafe_get a i) (Array.unsafe_get b i) in
    let s = Array.unsafe_get dst i + r in
    Array.unsafe_set dst i (if s >= q then s - q else s)
  done

(* dst += a[perm[i]] * b[i] mod q: the hoisted-rotation inner loop, where
   [perm] is the eval-domain automorphism permutation applied on the fly
   to the shared decomposed digit [a] while accumulating against this
   rotation step's key digit [b]. Fusing the gather into the mul-acc
   avoids materialising a permuted copy of every digit per step. *)
let pointwise_mul_acc_gather p dst a perm b =
  let q = p.modulus in
  for i = 0 to p.n - 1 do
    let x = Array.unsafe_get a (Array.unsafe_get perm i) in
    let r = barrett_mul p x (Array.unsafe_get b i) in
    let s = Array.unsafe_get dst i + r in
    Array.unsafe_set dst i (if s >= q then s - q else s)
  done

(* Per-element Shoup companions for a fixed eval-domain operand (a key
   digit row): pays the division once at keygen so the keyswitch inner
   loop runs the two-multiply Shoup reduction instead of Barrett. *)
let precompute_shoup p b = shoup_of p.modulus b

let pointwise_mul_acc_shoup p dst a b b' =
  let q = p.modulus in
  for i = 0 to p.n - 1 do
    let r =
      mul_shoup (Array.unsafe_get a i) (Array.unsafe_get b i) (Array.unsafe_get b' i) q
    in
    let s = Array.unsafe_get dst i + r in
    Array.unsafe_set dst i (if s >= q then s - q else s)
  done

let pointwise_mul_acc_gather_shoup p dst a perm b b' =
  let q = p.modulus in
  for i = 0 to p.n - 1 do
    let x = Array.unsafe_get a (Array.unsafe_get perm i) in
    let r = mul_shoup x (Array.unsafe_get b i) (Array.unsafe_get b' i) q in
    let s = Array.unsafe_get dst i + r in
    Array.unsafe_set dst i (if s >= q then s - q else s)
  done

(* Exact scalar reduction of any native int into [0, q): used by kernels
   that re-reduce centered digits across primes. *)
let reduce_scalar p v =
  let r = v mod p.modulus in
  if r < 0 then r + p.modulus else r

let[@inline] reduce_centered p c =
  let x = c + p.lift_offset in
  let q = p.modulus in
  let r = x - (((x * p.lift_mu) lsr p.lift_shift) * q) in
  if r >= q then r - q else r

(* The digit lift of key switching and mod-down: each residue of [src]
   (modulo [src_modulus]) is lifted to its centered representative and
   re-reduced into this plan's prime. Exact because the centered lift is
   a genuine small integer. *)
let lift_row p ~src_modulus src dst =
  let half = src_modulus / 2 in
  for j = 0 to p.n - 1 do
    let v = Array.unsafe_get src j in
    let c = if v > half then v - src_modulus else v in
    Array.unsafe_set dst j (reduce_centered p c)
  done

let shoup_companion p w = shoup w p.modulus

let sub_mul_shoup p dst a w w' =
  let q = p.modulus in
  for j = 0 to p.n - 1 do
    let d = Array.unsafe_get a j - Array.unsafe_get dst j in
    let d = if d < 0 then d + q else d in
    Array.unsafe_set dst j (mul_shoup d w w' q)
  done

let negacyclic_convolution p a b =
  let fa = Array.copy a and fb = Array.copy b in
  forward p fa;
  forward p fb;
  pointwise_mul p fa fa fb;
  inverse p fa;
  fa
