(** Bootstrapping strategies.

    [refresh] is the client-assisted recryption oracle used by the large
    benchmarks (DESIGN.md substitution): the party holding the secret key
    decrypts, lifts each coefficient to its centered integer, rescales it
    to Delta and re-encrypts the polynomial under the secret key at the
    requested level, never leaving the coefficient domain. That equals
    decoding to slots and encoding back (the canonical embedding is a
    bijection, so the round trip is the identity on coefficients), and
    the only fresh noise is one Gaussian error per coefficient plus the
    rounding of the rescaled value, where a public-key encryption adds
    u*e_pk + e0 + e1*s. Its cost is genuinely proportional to the target
    level — one forward NTT, one uniform row and one product per target
    limb — so the compiler optimization under evaluation (bootstrapping
    to the minimal level, Figure 6) exercises the same cost gradient as a
    cryptographic bootstrap.

    [exact] is the real CKKS pipeline (ModRaise -> CoeffToSlot -> EvalMod
    via polynomial sine approximation -> SlotToCoeff), runnable at toy
    parameters; see {!Exact_bootstrap}. *)

val refresh :
  Keys.t -> rng:Ace_util.Rng.t -> target_level:int -> Ciphertext.ct -> Ciphertext.ct
(** Requires the secret key (client side of the protocol). Accepts any
    input scale; the output scale is the context's nominal Delta. The
    output is (m + e - a*s, a) with [a] drawn uniformly straight into
    the evaluation domain from [rng]. *)

val refresh_impl :
  Keys.t -> seed:int -> ordinal:int -> target_level:int -> Ciphertext.ct -> Ciphertext.ct
(** Stateless wrapper for the VM: derives a deterministic rng from
    [(seed, ordinal)]. Callers pass a stable ordinal (the VM uses the IR
    node id) so results do not depend on invocation order — required for
    interleaved executions ({!Ace_codegen.Vm.step}) to stay bit-identical
    to solo runs. *)
