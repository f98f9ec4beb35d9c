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
      [CKKS.bootstrap] is inserted; with [min_level_bootstrap] its target
      is the remaining multiplicative depth of the consumer (backward
      dataflow), otherwise the full chain depth — the paper's key
      bootstrapping optimization versus the expert baseline. *)

type config = {
  context : Ace_fhe.Context.t; (** fixes Delta, the prime chain and depth *)
  lazy_rescale : bool;
  min_level_bootstrap : bool;
}

exception Lowering_error of string

val lower : config -> Ace_ir.Irfunc.t -> Ace_ir.Irfunc.t
(** Every node of the result carries its exact [scale] and [node_level]
    annotations; the verifier's CKKS check ([Ace_verify.Verifier.ckks])
    validates them. *)

val rotation_amounts : Ace_ir.Irfunc.t -> int list
val bootstrap_count : Ace_ir.Irfunc.t -> int
val max_level_used : Ace_ir.Irfunc.t -> int
