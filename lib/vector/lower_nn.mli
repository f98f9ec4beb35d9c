(** NN IR -> VECTOR IR lowering (paper Section 4.2).

    Tensors become packed slot vectors (see {!Layout}); convolutions and
    matrix multiplications become roll / mul / add combinations with
    plaintext mask-and-diagonal constants materialised into the constant
    pool; pooling becomes rotate-and-add trees; ReLU stays opaque as
    [VECTOR.nonlinear] until the SIHE level approximates it.

    Two of the paper's VECTOR-level optimizations are controlled here:

    - [conv_regroup]: factor a convolution's rotations into channel-block
      rolls plus kernel-offset rolls ([C + K^2] instead of [C * K^2]) —
      "Convolution Optimization";
    - [gemm_bsgs]: baby-step/giant-step diagonals for GEMM
      ([~2 sqrt B] instead of [B] rotations) — "Matrix Multiplication
      Optimization".

    The expert baseline runs with both disabled.

    [batch] (cross-request slot batching, nGraph-HE2): the slot vector is
    split into [batch] regions of [slots / batch] slots, each carrying one
    independent request through the identical schedule. Masks, biases and
    diagonals are built in region space and tiled across regions; roll
    amounts are unchanged, so the emitted program (and hence keygen plan,
    scale management and homomorphic op count) is batch-invariant — only
    encode/encrypt/decrypt fan out per request. Convolutions switch from
    cyclically-wrapped channel deltas to signed deltas when [batch > 1]
    (a wrap would read the next request's blocks); when no wrap-collapse
    occurs both forms emit the same number of rolls. *)

type config = { slots : int; batch : int; conv_regroup : bool; gemm_bsgs : bool }

val region : config -> int
(** Slots owned by one request: [slots / batch]. *)

exception Unsupported of string

val lower : config -> Ace_ir.Irfunc.t -> Ace_ir.Irfunc.t * Layout.t list
(** Returns the VECTOR-level function and the layout of each return value
    (consumed by the generated decryptor). The input image parameter is
    expected packed with {!Layout.vector_of_tensor} of its gap-1 layout. *)

module Mask_key : Hashtbl.HashedType with type t = float array
(** The key of the table that dedups mask constants (identical masks
    share one constant). Masks are equal under [compare], so [-0.0]
    equals [0.0] and NaN equals NaN, and they hash alike. The hash reads
    every element, so masks that differ only past a long common prefix
    land in different buckets. *)

val input_layout : config -> Ace_ir.Irfunc.t -> Layout.t
(** The layout the encryptor must use for the (single) input tensor. *)

val rotation_amounts : Ace_ir.Irfunc.t -> int list
(** Distinct non-zero roll amounts of a VECTOR function — the analysis
    behind rotation-key pruning (paper Section 4.4). *)
