module B = Ace_util.Bytesio
module Rns_poly = Ace_rns.Rns_poly
module Crt = Ace_rns.Crt
module Ntt = Ace_rns.Ntt

let format_version = 1
let fail fmt = Printf.ksprintf (fun m -> raise (B.Error m)) fmt

(* Every top-level blob opens with a 4-byte magic and the u16 format
   version, so a stream of the wrong kind (or from a future layout) is
   rejected by name instead of misparsed. *)
let write_header w magic =
  B.w_bytes w magic;
  B.w_u16 w format_version

let read_header r magic what =
  let m = B.r_bytes r 4 in
  if m <> magic then fail "%s: bad magic %S (want %S)" what m magic;
  let v = B.r_u16 r in
  if v <> format_version then
    fail "%s: format version %d, this build speaks %d" what v format_version

(* -- context parameters -- *)

let security_tag = function
  | Security.Bits128 -> 0
  | Security.Bits192 -> 1
  | Security.Bits256 -> 2
  | Security.Toy -> 3

let security_of_tag = function
  | 0 -> Security.Bits128
  | 1 -> Security.Bits192
  | 2 -> Security.Bits256
  | 3 -> Security.Toy
  | t -> fail "bad security level tag %d" t

let write_params w (p : Context.params) =
  B.w_u8 w p.Context.log2_n;
  B.w_u16 w p.Context.depth;
  B.w_u8 w p.Context.scale_bits;
  B.w_u8 w p.Context.q0_bits;
  B.w_u8 w p.Context.special_bits;
  B.w_u8 w (security_tag p.Context.security);
  B.w_f64 w p.Context.error_sigma

let read_params r =
  let log2_n = B.r_u8 r in
  let depth = B.r_u16 r in
  let scale_bits = B.r_u8 r in
  let q0_bits = B.r_u8 r in
  let special_bits = B.r_u8 r in
  let security = security_of_tag (B.r_u8 r) in
  let error_sigma = B.r_f64 r in
  if log2_n < 1 || log2_n > 20 then fail "bad log2_n %d" log2_n;
  if depth < 1 then fail "bad depth %d" depth;
  { Context.log2_n; depth; scale_bits; q0_bits; special_bits; security; error_sigma }

let params_fingerprint p = Digest.string (B.encode (fun w -> write_params w p))

let context_fingerprint ctx = params_fingerprint (Context.params ctx)

let write_fingerprint w ctx = B.w_bytes w (context_fingerprint ctx)

let read_fingerprint r ctx what =
  let fp = B.r_bytes r 16 in
  if fp <> context_fingerprint ctx then
    fail "%s: context fingerprint mismatch — blob was produced under different parameters" what

(* -- RNS polynomials -- *)

let domain_tag = function Rns_poly.Coeff -> 0 | Rns_poly.Eval -> 1

let domain_of_tag = function
  | 0 -> Rns_poly.Coeff
  | 1 -> Rns_poly.Eval
  | t -> fail "bad polynomial domain tag %d" t

let write_poly w (p : Rns_poly.t) =
  B.w_u8 w (domain_tag p.Rns_poly.domain);
  let limbs = Array.length p.Rns_poly.chain_idx in
  B.w_u16 w limbs;
  Array.iter (fun ci -> B.w_u16 w ci) p.Rns_poly.chain_idx;
  B.w_u32 w (Rns_poly.ring_degree p);
  Array.iter (B.w_i64s w) p.Rns_poly.data

(* Residues are range-checked against their limb's prime: a corrupted
   stream yields a typed error here, never a polynomial that silently
   violates the reduced-representative invariant the kernels rely on. *)
let read_poly ctx r =
  let crt = Context.crt ctx in
  let nmod = Crt.num_moduli crt in
  let n = Crt.ring_degree crt in
  let domain = domain_of_tag (B.r_u8 r) in
  let limbs = B.r_u16 r in
  if limbs < 1 || limbs > nmod then fail "bad limb count %d (chain has %d)" limbs nmod;
  let chain_idx =
    Array.init limbs (fun _ ->
        let ci = B.r_u16 r in
        if ci >= nmod then fail "chain index %d out of range (chain has %d)" ci nmod;
        ci)
  in
  let deg = B.r_u32 r in
  if deg <> n then fail "ring degree %d does not match context degree %d" deg n;
  let data =
    Array.map
      (fun ci ->
        let q = Crt.modulus crt ci in
        Array.init n (fun _ ->
            let v = B.r_i64 r in
            if v < 0 || v >= q then fail "residue %d out of range for modulus %d" v q;
            v))
      chain_idx
  in
  Rns_poly.of_data crt ~chain_idx domain data

(* -- ciphertexts -- *)

let ct_magic = "ACEc"

let write_ct ctx w (ct : Ciphertext.ct) =
  write_header w ct_magic;
  write_fingerprint w ctx;
  B.w_f64 w ct.Ciphertext.ct_scale;
  B.w_u8 w (Array.length ct.Ciphertext.polys);
  Array.iter (write_poly w) ct.Ciphertext.polys

let read_ct ctx r =
  read_header r ct_magic "ciphertext";
  read_fingerprint r ctx "ciphertext";
  let scale = B.r_f64 r in
  if not (Float.is_finite scale && scale > 0.0) then fail "bad ciphertext scale %g" scale;
  let n = B.r_u8 r in
  if n < 2 || n > 3 then fail "bad polynomial count %d (want 2 or 3)" n;
  let polys = Array.init n (fun _ -> read_poly ctx r) in
  let limbs = Rns_poly.num_limbs polys.(0) in
  Array.iter
    (fun p -> if Rns_poly.num_limbs p <> limbs then fail "ciphertext polynomials disagree in limb count")
    polys;
  { Ciphertext.polys; ct_scale = scale }

let encode_ct ctx ct = B.encode (fun w -> write_ct ctx w ct)

let decode_ct ctx s = B.decode (read_ct ctx) s

(* -- key sets -- *)

let keys_magic = "ACEk"

let write_switching_key w (k : Keys.switching_key) =
  B.w_u16 w (Array.length k.Keys.digits);
  Array.iter
    (fun (b, a) ->
      write_poly w b;
      write_poly w a)
    k.Keys.digits

(* The Shoup companions are a pure function of the key rows and their
   moduli; recomputing them on decode keeps the wire format canonical
   (one valid byte string per key) and immune to forged companions that
   would silently corrupt the two-multiply reduction. *)
let shoup_companions crt (p : Rns_poly.t) =
  Array.mapi
    (fun k ci -> Ntt.precompute_shoup (Crt.plan crt ci) p.Rns_poly.data.(k))
    p.Rns_poly.chain_idx

let read_switching_key ctx r =
  let crt = Context.crt ctx in
  let n = B.r_u16 r in
  let digits =
    Array.init n (fun _ ->
        let b = read_poly ctx r in
        let a = read_poly ctx r in
        (b, a))
  in
  let digits_shoup =
    Array.map (fun (b, a) -> (shoup_companions crt b, shoup_companions crt a)) digits
  in
  { Keys.digits; digits_shoup }

let write_keys w (keys : Keys.t) =
  write_header w keys_magic;
  write_fingerprint w keys.Keys.context;
  write_poly w keys.Keys.secret;
  let pb, pa = keys.Keys.public in
  write_poly w pb;
  write_poly w pa;
  write_switching_key w keys.Keys.relin;
  let galois =
    Hashtbl.fold (fun g k acc -> (g, k) :: acc) keys.Keys.galois []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  B.w_u16 w (List.length galois);
  List.iter
    (fun (g, k) ->
      B.w_u32 w g;
      write_switching_key w k)
    galois

let read_keys ctx r =
  read_header r keys_magic "keys";
  read_fingerprint r ctx "keys";
  let secret = read_poly ctx r in
  let pb = read_poly ctx r in
  let pa = read_poly ctx r in
  let relin = read_switching_key ctx r in
  let n = B.r_u16 r in
  let galois = Hashtbl.create (max 16 n) in
  let two_n = 2 * Context.ring_degree ctx in
  for _ = 1 to n do
    let g = B.r_u32 r in
    if g land 1 = 0 || g <= 0 || g >= two_n then fail "bad Galois element %d" g;
    if Hashtbl.mem galois g then fail "duplicate Galois element %d" g;
    let k = read_switching_key ctx r in
    Hashtbl.replace galois g k
  done;
  { Keys.context = ctx; secret; public = (pb, pa); relin; galois }

let encode_keys keys = B.encode (fun w -> write_keys w keys)

let decode_keys ctx s = B.decode (read_keys ctx) s
