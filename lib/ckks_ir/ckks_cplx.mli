(** Complex packing (nGraph-HE2 style): two independent real request
    streams share each CKKS slot — one in the real part, one in the
    imaginary part — doubling requests-per-ciphertext on top of the
    slot-region batch axis.

    The pass partitions the CKKS function into PACKED regions (component-
    independent ops: add/sub/neg, plaintext multiply, scale/level ops — no
    rotation, no ct*ct multiply, no relinearisation, no bootstrap) that
    execute once on the packed value, and SPLIT stretches where the op is
    duplicated per stream. Region boundaries insert conjugation-based
    converters:

    {v
      pack(a, b)   = a + i*b
      unpack re(z) = z + conj(z)
      unpack im(z) = i*(conj(z) - z)
    v}

    A packed value carries a multiplier [m] with slot contents
    [m*(a + i b)]. The client encodes inputs as [(a+ib)/2] (so params
    carry [m = 1/2] and the unpack identities are exact); values packed
    mid-function enter at [m = 1] and are brought to [1/2] by substituting
    a halved plaintext constant at their first multiply. Regions whose
    exits cannot reach [1/2], or whose op savings do not cover the
    boundary cost, are demoted to split execution — the pass never makes
    the function slower than running the two streams separately.

    All inserted ops are scale- and level-preserving, and every rewritten
    node copies its source annotations, so the abstract verifier accepts
    the result under the unmodified CKKS rules. *)

type stats = {
  packed_nodes : int;  (** source cipher ops executed once, on packed values *)
  split_nodes : int;  (** source cipher ops duplicated per stream *)
  pack_ops : int;  (** inserted [re + i*im] boundary conversions *)
  unpack_ops : int;  (** inserted conjugation-based boundary conversions *)
  regions : int;  (** packed regions accepted by the plan *)
  regions_refused : int;  (** candidate regions demoted as unprofitable *)
}

type info = { stats : stats; output_mults : float list }
(** [output_mults]: per return value, the multiplier [m] such that the
    decrypted slot holds [m * (a + i b)]; the decryptor divides each
    component by [m]. *)

val packed_plan : Ace_ir.Irfunc.t -> bool array
(** The planning decision alone, per node id: [true] = executes packed.
    Cipher params always plan packed (the client packs the input); ops
    that mix the streams — rotations, ct*ct multiply, relinearisation,
    bootstrap — never do. Exposed for tests and diagnostics. *)

val run : Ace_ir.Irfunc.t -> Ace_ir.Irfunc.t * info
(** Rewrite a CKKS function for two-stream complex execution. The result
    expects its cipher params encoded as [(a+ib)/2] and returns one
    ciphertext per output with the recorded multiplier. *)

val pp_stats : Format.formatter -> stats -> unit
