module Rns_poly = Ace_rns.Rns_poly
module Crt = Ace_rns.Crt

let encode_complex ctx ~level ~scale (v : Cplx.t array) =
  Cost.timed Cost.Encode @@ fun () ->
  let slots = Context.slots ctx in
  if Array.length v > slots then invalid_arg "Encoder.encode: too many slots";
  let vals = Array.make slots Cplx.zero in
  Array.blit v 0 vals 0 (Array.length v);
  Cplx.embed_inv (Context.embed_plan ctx) vals;
  let n = Context.ring_degree ctx in
  let coeffs = Array.make n 0.0 in
  for i = 0 to slots - 1 do
    coeffs.(i) <- vals.(i).Cplx.re *. scale;
    coeffs.(i + slots) <- vals.(i).Cplx.im *. scale
  done;
  let idx = Context.ciphertext_idx ctx ~level in
  (* The freshly-reduced polynomial is owned outright, so the domain flip
     runs in place; the plaintext keeps pool ownership and the caller may
     release it once it is done (uncached encodings). *)
  let poly = Rns_poly.of_rounded_floats (Context.crt ctx) ~chain_idx:idx coeffs in
  { Ciphertext.poly = Rns_poly.ntt_inplace poly; pt_scale = scale }

let encode ctx ~level ~scale v =
  encode_complex ctx ~level ~scale (Array.map (fun x -> Cplx.make x 0.0) v)

let decode_complex ctx (pt : Ciphertext.pt) =
  Cost.timed Cost.Decrypt @@ fun () ->
  let poly = Rns_poly.to_coeff pt.poly in
  let slots = Context.slots ctx in
  let limbs = Rns_poly.num_limbs poly in
  let crt = Context.crt ctx in
  let rows = poly.Rns_poly.data in
  let coeff i = Crt.centered_float crt ~limbs rows i in
  (* Every coefficient of a correctly decrypting plaintext lifts in
     native ints; the bignum path is left for the rest. Slot batches are
     independent, so the lift runs on the domain pool. Tiny slot vectors
     (toy contexts, tests) stay inline — below ~32 slots the pool
     wake-up rivals the recombination itself. *)
  let vals =
    Ace_util.Domain_pool.init ~min_chunk:32 slots (fun i ->
        Cplx.make (coeff i /. pt.pt_scale) (coeff (i + slots) /. pt.pt_scale))
  in
  if poly != pt.poly then Rns_poly.release poly;
  Cplx.embed (Context.embed_plan ctx) vals;
  vals

let decode ctx pt = Array.map (fun c -> c.Cplx.re) (decode_complex ctx pt)
