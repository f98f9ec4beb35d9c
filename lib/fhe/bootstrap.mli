(** Bootstrapping strategies.

    [refresh] is the client-assisted recryption oracle used by the large
    benchmarks (DESIGN.md substitution): decrypt, re-encode, re-encrypt at
    the requested level. Its cost is genuinely proportional to the target
    level — a fresh encryption touches one RNS limb per level — so the
    compiler optimization under evaluation (bootstrapping to the minimal
    level, Figure 6) exercises the same cost gradient as a cryptographic
    bootstrap.

    [exact] is the real CKKS pipeline (ModRaise -> CoeffToSlot -> EvalMod
    via polynomial sine approximation -> SlotToCoeff), runnable at toy
    parameters; see {!Exact_bootstrap}. *)

val refresh :
  Keys.t -> rng:Ace_util.Rng.t -> target_level:int -> Ciphertext.ct -> Ciphertext.ct
(** Requires the secret key (client side of the protocol). Output scale is
    the context's nominal Delta. *)

val refresh_impl :
  Keys.t -> seed:int -> ordinal:int -> target_level:int -> Ciphertext.ct -> Ciphertext.ct
(** Stateless wrapper for the VM: derives a deterministic rng from
    [(seed, ordinal)]. Callers pass a stable ordinal (the VM uses the IR
    node id) so results do not depend on invocation order — required for
    interleaved executions ({!Ace_codegen.Vm.step}) to stay bit-identical
    to solo runs. *)
