(** Residue-number-system context: a chain of NTT-friendly prime moduli for
    one ring degree, with cached NTT plans and the precomputed constants
    used by rescaling, base conversion and CRT decoding.

    Index 0 is the "bottom" modulus [q0] (kept until the end of the
    computation; it fixes the output precision). Higher indices are the
    rescaling levels; the last chain entry may be a special prime used only
    inside key-switching. *)

type t

val make : ring_degree:int -> moduli:int array -> t
(** All moduli must be distinct primes congruent to 1 mod [2*ring_degree]. *)

val ring_degree : t -> int
val num_moduli : t -> int
val modulus : t -> int -> int
val moduli : t -> int array
val plan : t -> int -> Ntt.plan

val product : t -> limbs:int -> Ace_util.Bignum.t
(** [product t ~limbs] is [q_0 * ... * q_{limbs-1}] (cached). *)

val log2_product : t -> limbs:int -> float
(** Bit size of the partial product, used by parameter selection. *)

val inv_mod : t -> num:int -> target:int -> int
(** [inv_mod t ~num ~target] is [moduli.(num)^-1 mod moduli.(target)]
    (cached), the workhorse constant of RNS rescaling. *)

val qhat_invs : t -> limbs:int -> int array
(** For the sub-chain of the first [limbs] moduli: entry [i] is
    [((Q/q_i)^-1) mod q_i], the gadget constants of CRT recombination and
    RNS key-switch decomposition. *)

val qhat_mod : t -> limbs:int -> target:int -> int array
(** Entry [i] is [(Q/q_i) mod moduli.(target)] for the same sub-chain; used
    by fast base conversion. *)

val crt_to_bignum : t -> limbs:int -> (int -> int) -> Ace_util.Bignum.t
(** [crt_to_bignum t ~limbs residue] recombines [residue i] (a residue mod
    [q_i]) into the unique value modulo the partial product. *)

val lift_centered : t -> limbs:int -> int array array -> int -> int
(** [lift_centered t ~limbs rows i] is the centered representative, in
    (-Q/2, Q/2) for Q the product of the first [limbs] moduli, of the
    value whose residue modulo [q_k] is [rows.(k).(i)]: the same integer
    as {!crt_to_bignum} lifted to the centered range, computed by
    signed-digit mixed-radix recombination in native ints, O([limbs])
    per coefficient. Every value of magnitude below 2^60 lifts; larger
    ones may return {!too_big}, and callers then take the bignum path. Row [k] must hold canonical
    residues modulo [moduli.(k)]. Pure and allocation-free, so safe
    inside [Domain_pool] bodies. *)

val too_big : int
(** The sentinel of {!lift_centered} ([min_int], never a lifted value). *)

val centered_float : t -> limbs:int -> int array array -> int -> float
(** The centered value of {!lift_centered} as a float, through
    {!crt_to_bignum} where it does not lift natively. Both paths round
    the same integer once, so the result does not depend on which one
    ran. *)
