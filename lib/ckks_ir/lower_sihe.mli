(** SIHE IR -> CKKS IR lowering with scale management, level assignment,
    relinearisation insertion and bootstrap placement (paper Section 4.4).

    The lowering is an abstract interpreter over (scale, level) pairs:

    - every ciphertext is normalised to the nominal scale Delta "at rest";
      plaintext operands are encoded at exactly the scale that restores
      Delta after the subsequent rescale (the prime about to be consumed),
      so scales match exactly at every addition — the FLEXIBLEAUTO idea;
    - ciphertext-ciphertext products rescale to [Delta^2 / q_l] and are
      re-labelled to Delta via an explicit [CKKS.downscale] (the bounded
      re-interpretation every CKKS deployment performs);
    - [lazy_rescale] postpones rescaling until a value feeds another
      multiplication, saving one rescale per linear-combination tree
      (paper: "strategically delaying rescale", after EVA);
    - when an operand's level cannot pay for the next multiplication, a
      [CKKS.bootstrap] is inserted. Without [min_level_bootstrap] it
      refreshes to the full chain (the expert baseline). With it, each
      operator — one provenance segment: a convolution, one whole ReLU
      polynomial — refreshes at the tower height the cost model
      ({!Node_price}, cached encodes) prices cheapest: every height from
      1 (2 for operators deeper than one multiplication) to the
      operator's depth, and the rule without a height (refresh an
      exhausted value to the depth left in the operator, capped at the
      chain), are lowered speculatively and priced, and the cheapest is
      kept. At height [h] an exhausted value refreshes to [min h want],
      [want] being the depth left in the operator, and a value with more
      multiplications ahead counts as exhausted at level 1. Operands keep
      the level they arrive with: a height lowers refresh targets, it
      never mod-switches an operand down. Operators of one shape arriving
      at one (level, scale) share one search. A function whose whole
      depth fits the chain needs no refresh and has no heights to choose:
      its operators run at the levels the encryption gives them. *)

type config = {
  context : Ace_fhe.Context.t; (** fixes Delta, the prime chain and depth *)
  lazy_rescale : bool;
  min_level_bootstrap : bool;
}

type decision = {
  origin : string; (** the operator's provenance *)
  entry_level : int; (** highest level its operands arrive at *)
  height : int; (** chosen tower height; the chain for the rule without one *)
  ns : float; (** predicted ns of the operator at [height] *)
  old_ns : float; (** predicted ns under the rule without a height *)
}
(** One priced operator. [ns <= old_ns] always: the rule without a height
    is one of the candidates. *)

exception Lowering_error of string

val lower : config -> Ace_ir.Irfunc.t -> Ace_ir.Irfunc.t * decision list
(** The CKKS function and, in program order, the decision of every
    operator whose height was priced. Every node of the result carries
    its exact [scale] and [node_level] annotations; the verifier's CKKS
    check ([Ace_verify.Verifier.ckks]) validates them. *)

val rotation_amounts : Ace_ir.Irfunc.t -> int list
val bootstrap_count : Ace_ir.Irfunc.t -> int
val max_level_used : Ace_ir.Irfunc.t -> int
