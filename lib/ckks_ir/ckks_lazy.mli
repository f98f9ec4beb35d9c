(** Lazy relinearisation and lazy rescale: CKKS-IR rewrite passes that
    defer the two most expensive maintenance operations to the latest
    program point that still satisfies their consumers.

    - {!lazy_relin} drops every [C_relin] and lets degree-2 products flow
      through additions, subtractions, negations, plaintext multiplies and
      scale management (rescale / mod-switch / up- / downscale). A single
      memoized [C_relin] is re-inserted in front of each consumer that
      needs degree-1: rotations, bootstraps, the ciphertext operands of a
      ct*ct multiply, and the function outputs. An accumulation tree of k
      products then pays one key-switch instead of k, and relins pushed
      past rescales run with fewer limbs.
    - {!lazy_rescale} coalesces sibling rescales at additive joins,
      [add(rescale a, rescale b) -> rescale(add(a, b))], to a fixpoint.

    Both passes preserve scale/level annotations node-for-node, so they run
    after {!Lower_sihe} + {!Ckks_fusion.run} and before the verifier's
    CKKS check, key planning and rotation batching. *)

type stats = {
  relins_eager : int;  (** relin nodes before the passes *)
  relins_lazy : int;  (** relin nodes after *)
  rescales_eager : int;
  rescales_lazy : int;
  deg2_high_water : int;
      (** peak simultaneously-live degree-2 ciphertexts (program order) —
          the extra-polynomial memory overhead the laziness introduces *)
}

val lazy_relin : Ace_ir.Irfunc.t -> Ace_ir.Irfunc.t
val lazy_rescale : ?max_rounds:int -> Ace_ir.Irfunc.t -> Ace_ir.Irfunc.t

val run : Ace_ir.Irfunc.t -> Ace_ir.Irfunc.t * stats
(** Both passes followed by DCE (the dropped relin/rescale nodes die), with
    before/after operation counts. *)

val observe : Ace_ir.Irfunc.t -> stats
(** Stats of a function the passes did not touch (eager = lazy counts);
    keeps reporting uniform when the rewrite is disabled. *)
