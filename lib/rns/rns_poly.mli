(** Polynomials of R_Q = Z_Q[X]/(X^N+1) in RNS representation.

    A polynomial carries an explicit set of limbs: [chain_idx.(k)] names the
    position in the {!Crt.t} modulus chain backing local limb [k], and
    [data.(k)] holds the N residues modulo that prime. Ciphertext
    polynomials use the prefix [0..level]; key-switching temporarily works
    over the prefix extended with the special prime at the end of the
    chain, which is why the limb set is explicit rather than implied.

    The [domain] records whether residues are in coefficient order or in
    the NTT evaluation domain. Multiplication requires [Eval]; rescaling
    and automorphisms require [Coeff]; converting between them is explicit
    so that callers account for every transform (the dominant cost). *)

type domain = Coeff | Eval

type t = private {
  ctx : Crt.t;
  chain_idx : int array;
  data : int array array;
  domain : domain;
  mutable pooled : bool;
      (** Rows are a recyclable {!Limb_pool} slab still owned by exactly
          this value. Private, so only this module's [release] /
          [mark_shared] can flip it. *)
}

val create : Crt.t -> chain_idx:int array -> domain -> t
(** Zero polynomial over the given limb set (fresh rows, never pooled). *)

val alloc_uninit : Crt.t -> chain_idx:int array -> domain -> t
(** Pool-backed polynomial with UNSPECIFIED residues — the caller must
    overwrite every row in full before the value escapes. The evaluator
    uses this for results it assembles row by row (mod-down outputs). *)

val release : t -> unit
(** Hand the rows back to {!Limb_pool} for reuse. Only sound for a dead
    value: the caller must be the last owner and must not touch the
    polynomial again (debug mode enforces this with poisoning). Safe to
    call on shared or unpooled values — it does nothing then. Ciphertext
    recycling is driven from exactly two places: evaluator ops releasing
    temporaries they themselves allocated, and the VM releasing operands
    at their last use as computed by [Sched]'s release sets. *)

val mark_shared : t -> unit
(** Declare that the rows are visible through more than one value (the
    result of an identity conversion, a batch element handed out, ...):
    the polynomial leaves the pool's ownership and [release] becomes a
    no-op. *)

val is_pooled : t -> bool

val of_data : Crt.t -> chain_idx:int array -> domain -> int array array -> t
(** Wrap residue rows directly (takes ownership; rows must be reduced).
    Performance escape hatch for the evaluator's key-switch inner loop. *)

val prefix_idx : limbs:int -> int array
(** [\[|0; ...; limbs-1|\]], the standard ciphertext limb set. *)

val num_limbs : t -> int
val ring_degree : t -> int
val domain : t -> domain
val clone : t -> t
val equal : t -> t -> bool

val of_centered_coeffs : Crt.t -> chain_idx:int array -> int array -> t
(** Reduce signed integer coefficients into every limb; result in [Coeff]. *)

val of_rounded_floats : Crt.t -> chain_idx:int array -> float array -> t
(** Round-to-nearest, then as {!of_centered_coeffs}. Coefficients must stay
    within native-int magnitude (|x| < 2^62); encoding guarantees this. *)

val to_ntt : t -> t
val to_coeff : t -> t
val in_domain : domain -> t -> t
(** Convert if needed. *)

val ntt_inplace : t -> t
val coeff_inplace : t -> t
(** Domain flips that transform the existing residue rows instead of
    copying them. Only sound when the caller owns the polynomial outright
    (freshly allocated, rows shared with no other value); the returned
    value shares rows with the argument, which must not be used again.
    Pool ownership transfers to the returned value. *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
(** Pointwise product; both arguments must be [Eval] with equal limb sets. *)

val add_into : dst:t -> t -> t -> t
val sub_into : dst:t -> t -> t -> t
val mul_into : dst:t -> t -> t -> t
(** Allocation-free variants writing into [dst] (same shape as the
    operands; may alias either one). Return [dst]. *)

val scalar_mul : int -> t -> t
(** Multiply by a signed integer scalar (reduced per limb). *)

val scalar_mul_per_limb : int array -> t -> t
(** Limb-dependent scalar, e.g. a CRT-decomposed big-integer constant. *)

val automorphism : galois:int -> t -> t
(** X ↦ X^galois with [galois] odd; the slot-rotation primitive. Works in
    either domain and preserves it: [Coeff] scatters coefficients with the
    X^N = -1 sign flips; [Eval] applies a pure index permutation of the NTT
    slots (see {!automorphism_perm}) — no transform, no sign corrections.
    The two paths commute exactly with {!to_ntt}/{!to_coeff}. *)

val automorphism_perm : Crt.t -> galois:int -> int array
(** The eval-domain gather permutation for X ↦ X^galois ([galois] odd):
    [out.(j) = in.(perm.(j))] realises the automorphism on NTT-domain rows.
    Structural in the ring degree and NTT stage layout — the same table is
    valid for every limb modulus — and cached per (degree, galois).
    Discovered by probing NTT(X) rather than hard-coding the output
    ordering, so it stays correct if the transform's ordering convention
    changes. *)

val warm_automorphism : Crt.t -> galois:int -> unit
(** Build (and cache) both automorphism tables for a Galois element ahead
    of time. The eval-domain permutation is otherwise discovered lazily by
    an NTT probe on the first rotation using it — a one-off
    tens-of-milliseconds stall that used to surface as the first
    inference's rotation p99 outlier. Keygen calls this for every Galois
    element it makes a key for. *)

val sample_uniform : Crt.t -> chain_idx:int array -> Ace_util.Rng.t -> t
val sample_ternary : Crt.t -> chain_idx:int array -> Ace_util.Rng.t -> t

val sample_sparse_ternary :
  Crt.t -> chain_idx:int array -> hamming:int -> Ace_util.Rng.t -> t
(** [sample_sparse_ternary] draws exactly [hamming] nonzero (+-1)
    coefficients; CKKS bootstrapping keeps the secret sparse so
    ModRaise's integer overflow stays small. *)

val sample_gaussian :
  Crt.t -> chain_idx:int array -> sigma:float -> Ace_util.Rng.t -> t

val restrict : t -> chain_idx:int array -> t
(** Keep only the limbs whose chain indices appear in [chain_idx] (which
    must be a subsequence of the polynomial's own limb set). Restriction is
    how full-basis keys are reused at lower ciphertext levels. *)

val drop_limbs : t -> keep:int -> t
(** Forget the top limbs without rescaling (modulus switching, value is
    unchanged mod the smaller product). The kept rows are copied, not
    shared, so the result and its source both stay recyclable. *)

val rescale : t -> t
(** Divide by the top limb's modulus with rounding and drop that limb;
    input must be [Coeff] with at least two limbs; output is [Coeff]. *)

val rescale_in_eval : t -> t
(** [rescale] for an [Eval]-domain polynomial without the full domain
    round trip: only the dropped top limb is inverse-transformed, its
    centered lift is re-reduced and forward-transformed into each
    remaining prime, and the subtraction/inverse-multiply run pointwise
    in the eval domain. Bit-identical residues to [rescale] (the NTT is
    linear over each Z_q); output is [Eval]. *)

val extend_limb : t -> target_chain_idx:int -> int array
(** For a single-limb [Coeff] polynomial (a key-switch digit): re-reduce the
    centered integer residues modulo another chain prime. Exact, because a
    digit's coefficients are bona fide small integers. *)

val lift_limb_to : t -> src:int -> target_modulus:int -> int array
(** Centered residues of limb [src] reduced modulo [target_modulus]. *)

val coeff_bignum : t -> int -> Ace_util.Bignum.t
(** CRT-recombine coefficient [i] (requires a prefix limb set in [Coeff]
    domain): the bignum reference for {!Crt.centered_float}. *)

val pp : Format.formatter -> t -> unit
