(** The RNS-CKKS evaluator: every homomorphic operation of the CKKS IR
    (paper Table 6) plus encryption and decryption.

    Scale and level discipline (checked, mirroring the paper's Section 4.4):
    additive operands must agree in level and (up to a relative tolerance)
    in scale; multiplicative operands must agree in level and the product's
    scale is the product of scales. [rescale] divides the scale by the
    dropped prime; [mod_switch] drops a level without touching the scale;
    [upscale] multiplies by a constant-one plaintext to raise the scale. *)

exception Scale_mismatch of string
exception Level_mismatch of string

exception Missing_rotation_key of { step : int; available : int list }
(** Raised by {!rotate} and {!rotate_batch} when no Galois key exists for
    [step]; [available] lists the rotation steps that DO have keys, so a
    keygen-plan mismatch names both sides. *)

val encrypt : Keys.t -> rng:Ace_util.Rng.t -> Ciphertext.pt -> Ciphertext.ct
(** Public-key encryption at the plaintext's level. *)

val encrypt_at_level :
  Keys.t -> rng:Ace_util.Rng.t -> level:int -> Ciphertext.pt -> Ciphertext.ct

val decrypt : Keys.t -> Ciphertext.ct -> Ciphertext.pt
(** Requires a relinearised (size-2) ciphertext. *)

val add : Ciphertext.ct -> Ciphertext.ct -> Ciphertext.ct
(** Size-polymorphic: mixed degree-2 + degree-1 operands pad the shorter
    side with implicit zero components (lazy-relinearisation support). *)

val sub : Ciphertext.ct -> Ciphertext.ct -> Ciphertext.ct
val neg : Ciphertext.ct -> Ciphertext.ct
val add_plain : Ciphertext.ct -> Ciphertext.pt -> Ciphertext.ct
val sub_plain : Ciphertext.ct -> Ciphertext.pt -> Ciphertext.ct

val mul_raw : Ciphertext.ct -> Ciphertext.ct -> Ciphertext.ct
(** Tensor product; result has three polynomials (the paper's Cipher3). *)

val relinearize : Keys.t -> Ciphertext.ct -> Ciphertext.ct
(** Reduce a size-3 ciphertext back to size 2 with the relin key.

    This and {!rotate}, {!rotate_batch} and {!conjugate} are resumable:
    their key switches mark piece boundaries with {!Job.pause} (a round
    of basis positions, one per domain; each mod-down; each step of a
    rotation batch). Run under {!Job.run} they can suspend there; called
    directly they run to completion, and the result is the same. *)

val mul : Keys.t -> Ciphertext.ct -> Ciphertext.ct -> Ciphertext.ct
(** [mul_raw] followed by {!relinearize}. *)

val mul_plain : Ciphertext.ct -> Ciphertext.pt -> Ciphertext.ct

val square : Keys.t -> Ciphertext.ct -> Ciphertext.ct

val rotate : Keys.t -> Ciphertext.ct -> int -> Ciphertext.ct
(** Left-rotate the slot vector; requires the matching rotation key.
    @raise Missing_rotation_key when no key exists for the step. *)

val rotate_batch : Keys.t -> Ciphertext.ct -> int array -> Ciphertext.ct array
(** Hoisted key-switching (Halevi–Shoup): rotate one ciphertext by every
    step in the array, gadget-decomposing and NTT-extending its [c1] only
    once; each step then costs an eval-domain digit permutation (fused into
    the multiply-accumulate), the pointwise products against that step's
    key, and one mod-down. Bit-identical to [Array.map (rotate keys ct)];
    rotation by 0 returns the input unchanged, matching {!rotate}.
    @raise Missing_rotation_key when any step lacks its key. *)

val conjugate : Keys.t -> Ciphertext.ct -> Ciphertext.ct
(** Slot-wise complex conjugation: the Galois automorphism [X -> X^(2N-1)]
    plus a key switch against the conjugation key (always generated). *)

val mul_i : Ciphertext.ct -> Ciphertext.ct
(** Multiply every slot by the imaginary unit — multiplication by the
    monomial [X^(N/2)], which evaluates to [i] in every slot. Exact: no
    key switch, no rescale, scale and level unchanged. *)

val rescale : Ciphertext.ct -> Ciphertext.ct
(** Drop the top prime and divide the scale by it. *)

val mod_switch : Ciphertext.ct -> Ciphertext.ct
(** Drop the top prime without scaling (level alignment only). *)

val mod_switch_to : Ciphertext.ct -> level:int -> Ciphertext.ct

val upscale : Context.t -> Ciphertext.ct -> target_scale:float -> Ciphertext.ct
(** Multiply by the constant 1 encoded at [target_scale /. current]; raises
    the scale without consuming a level. *)

val warm : Keys.t -> unit
(** Run one throwaway full-width key switch (and a rescale) so first-call
    lazy costs — limb-pool growth, memo fills, pool wake-up — are paid at
    keygen instead of inside the first inference's key_switch tail. *)

val noise_budget_estimate : Keys.t -> Ciphertext.ct -> expected:float array -> float
(** -log2 of the max decode error against [expected]; test instrumentation. *)
