(** Negacyclic number-theoretic transform over Z_q[X]/(X^N + 1).

    A plan caches the twiddle factors for one (modulus, ring degree) pair.
    The negacyclic transform is implemented as the classical twist: multiply
    coefficient [i] by [psi^i] (a primitive 2N-th root of unity), run a
    cyclic NTT of size N with [omega = psi^2], and invert symmetrically.
    Pointwise products in the transformed domain therefore realise
    multiplication modulo [X^N + 1]. *)

type plan

val make : modulus:int -> ring_degree:int -> plan
(** Requires [modulus] prime with [modulus ≡ 1 (mod 2 * ring_degree)] and
    [ring_degree] a power of two. *)

val modulus : plan -> int
val ring_degree : plan -> int

val forward : plan -> int array -> unit
(** In-place forward transform; input in coefficient order, output in the
    evaluation (NTT) domain. *)

val inverse : plan -> int array -> unit
(** In-place inverse; exact round-trip with {!forward}. *)

val pointwise_mul : plan -> int array -> int array -> int array -> unit
(** [pointwise_mul p dst a b] writes the element-wise modular product. [dst]
    may alias [a] or [b]. Products are reduced with a precomputed integer
    Barrett constant (exact for every supported modulus width, unlike a
    53-bit float quotient). *)

val pointwise_mul_acc : plan -> int array -> int array -> int array -> unit
(** [pointwise_mul_acc p dst a b]: [dst.(i) <- dst.(i) + a.(i)*b.(i) mod q]
    in place. The multiply-accumulate of gadget key-switching. *)

val pointwise_mul_acc_gather : plan -> int array -> int array -> int array -> int array -> unit
(** [pointwise_mul_acc_gather p dst a perm b]:
    [dst.(i) <- dst.(i) + a.(perm.(i)) * b.(i) mod q] in place. The hoisted
    key-switching inner loop: [perm] is an eval-domain automorphism
    permutation (see {!Rns_poly.automorphism_perm}) applied on the fly to a
    shared decomposed digit, so no permuted copy is materialised per
    rotation step. [perm] must be a permutation of [0 .. n-1]; [dst] must
    not alias [a]. *)

val precompute_shoup : plan -> int array -> int array
(** [precompute_shoup p b] returns the per-element Shoup companions
    [floor (b.(i) * 2^31 / q)] for a fixed eval-domain operand. Pay the
    divisions once (e.g. per key digit at keygen) and feed the result to
    the [_shoup] multiply-accumulate variants below. *)

val pointwise_mul_acc_shoup : plan -> int array -> int array -> int array -> int array -> unit
(** [pointwise_mul_acc_shoup p dst a b b'] is {!pointwise_mul_acc} with
    [b'] the companions from [precompute_shoup p b]: the inner loop drops
    Barrett's quotient estimate for the cheaper two-multiply Shoup
    reduction. Exact (canonical residues, bit-identical to the Barrett
    path) for every supported modulus. *)

val pointwise_mul_acc_gather_shoup :
  plan -> int array -> int array -> int array -> int array -> int array -> unit
(** Gather variant of {!pointwise_mul_acc_shoup}; argument order
    [p dst a perm b b'] mirrors {!pointwise_mul_acc_gather}. [dst] must
    not alias [a]. *)

val reduce_scalar : plan -> int -> int
(** Exact reduction of any native int (possibly negative) into [0, q). *)

val reduce_centered : plan -> int -> int
(** [reduce_centered p c] is [reduce_scalar p c] for [|c| <= 2^30] (the
    centered lift of a residue modulo any supported prime), computed
    without a division: one Barrett quotient estimate and one
    conditional subtract. Outside that range the result is wrong. *)

val lift_row : plan -> src_modulus:int -> int array -> int array -> unit
(** [lift_row p ~src_modulus src dst]: [dst.(j)] is the centered lift of
    [src.(j)] (a residue modulo [src_modulus]) reduced into [p]'s prime
    with {!reduce_centered}. The digit lift of key switching. *)

val shoup_companion : plan -> int -> int
(** [shoup_companion p w] is [floor (w * 2^31 / q)], the constant that
    {!sub_mul_shoup} multiplies by [w] with. *)

val sub_mul_shoup : plan -> int array -> int array -> int -> int -> unit
(** [sub_mul_shoup p dst a w w']: [dst.(j) <- (a.(j) - dst.(j)) * w mod q]
    in place, for canonical [a], [dst] and [w] with
    [w' = shoup_companion p w]. The divide-by-special-prime step of
    mod-down, bit-identical to {!Modarith.sub} then {!Modarith.mul}. *)

val negacyclic_convolution : plan -> int array -> int array -> int array
(** Reference entry point: full multiply of two coefficient-domain inputs,
    used in tests to validate against the schoolbook product. *)
