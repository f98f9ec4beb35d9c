module Rng = Ace_util.Rng
module Rns_poly = Ace_rns.Rns_poly
module Crt = Ace_rns.Crt
module Modarith = Ace_rns.Modarith

(* A rounded coefficient below this magnitude reduces through a native
   int; above it (only a plaintext that no longer decrypts gets there)
   the float is reduced exactly with [Float.rem]. *)
let native_bound = 0x1p61

(* Decrypt, lift each coefficient to its centered integer, rescale it
   from the ciphertext's scale to Delta and add a fresh error, then
   encrypt that polynomial under the secret key at the target level:
   (m + e - a*s, a) with [a] uniform. Decoding to slots and encoding
   back is the identity on coefficients (the canonical embedding is a
   bijection), so this is a decode -> encode -> encrypt round trip
   without its two FFTs, and with only [e] as fresh noise where a
   public-key encryption adds u*e_pk + e0 + e1*s. *)
let refresh keys ~rng ~target_level ct =
  let ctx = keys.Keys.context in
  if target_level < 0 || target_level > Context.max_level ctx then
    invalid_arg "Bootstrap.refresh: bad target level";
  let crt = Context.crt ctx and n = Context.ring_degree ctx in
  (* [decrypt] returns rows this function owns, so the inverse NTT runs
     in place. *)
  let m = Rns_poly.coeff_inplace (Eval.decrypt keys ct).Ciphertext.poly in
  let limbs = Rns_poly.num_limbs m in
  Cost.timed Cost.Encrypt @@ fun () ->
  let ratio = Context.scale ctx /. ct.Ciphertext.ct_scale in
  let sigma = (Context.params ctx).Context.error_sigma in
  let idx = Context.ciphertext_idx ctx ~level:target_level in
  let moduli = Array.map (Crt.modulus crt) idx in
  let b = Rns_poly.alloc_uninit crt ~chain_idx:idx Rns_poly.Coeff in
  let src = m.Rns_poly.data and dst = b.Rns_poly.data in
  for i = 0 to n - 1 do
    let x = Crt.centered_float crt ~limbs src i in
    let y = Float.round (x *. ratio) +. Float.round (Rng.gaussian rng sigma) in
    let native = Float.abs y < native_bound in
    let c = int_of_float y in
    for k = 0 to Array.length moduli - 1 do
      let q = moduli.(k) in
      let c = if native then c else int_of_float (Float.rem y (float_of_int q)) in
      Array.unsafe_set dst.(k) i (Modarith.reduce c ~modulus:q)
    done
  done;
  Rns_poly.release m;
  let b = Rns_poly.ntt_inplace b in
  let a = Rns_poly.sample_uniform crt ~chain_idx:idx rng in
  let s = Rns_poly.restrict keys.Keys.secret ~chain_idx:idx in
  let s = Rns_poly.mul_into ~dst:s a s in
  let b = Rns_poly.sub_into ~dst:b b s in
  Rns_poly.release s;
  { Ciphertext.polys = [| b; a |]; ct_scale = Context.scale ctx }

(* Randomness is derived from the caller-supplied ordinal (the VM passes
   the bootstrap's IR node id), not from an invocation counter: the same
   program bootstrapping the same node then draws the same rng whatever
   the execution order or how many runs preceded it, which is what keeps
   interleaved executions of one VM bit-identical to solo runs. *)
let refresh_impl keys ~seed ~ordinal ~target_level ct =
  let rng = Rng.create (seed + (1_000_003 * (ordinal + 1))) in
  refresh keys ~rng ~target_level ct
