(** Differential testing: encrypted inference against the cleartext
    reference, at several domain-pool widths.

    A {!case} is one seeded random graph ({!Graph_gen}) compiled
    end-to-end (with the verifier on), its keys, one random input and two
    cleartext references: the exact NN output ({!Ace_nn.Nn_interp}) and
    the SIHE-level output ({!Ace_sihe.Sihe_interp}), which already
    contains the polynomial activation approximations but no encryption.
    {!run_case} executes the case encrypted at a chosen domain-pool width
    with the ciphertext flight recorder on. {!check}
    holds the run to two bounds: a tight one against the SIHE reference
    (pure crypto error, scaled from the flight recorder's observed
    noise-budget floor [2^-min_budget_bits]) and a loose gross-wrongness
    bound against the exact reference (absorbing per-activation
    approximation error, which compounds through layers) — and requires
    that the noise budget never ran dry.

    Runs of one case at different pool widths must also be
    bit-identical ({!ct_equal}); the differential suite checks both. *)

type case = {
  case_seed : int;
  graph : Ace_onnx.Model.graph;
  nn : Ace_ir.Irfunc.t;
  compiled : Ace_driver.Pipeline.compiled;
  keys : Ace_fhe.Keys.t;
  input : float array;
  reference : float array;  (** exact NN interpreter output *)
  sihe_reference : float array;
      (** SIHE cleartext interpreter output: approximations in, noise out *)
}

type outcome = {
  domains : int;
  ct_out : Ace_fhe.Ciphertext.ct;
  output : float array;
  max_err : float;  (** against the exact NN reference *)
  tolerance : float;
  crypto_err : float;  (** against the SIHE reference: crypto noise only *)
  crypto_tolerance : float;
  min_budget_bits : float;  (** smallest headroom any op left, in bits *)
}

val prepare :
  ?cfg:Graph_gen.cfg -> ?strategy:Ace_driver.Pipeline.strategy -> seed:int -> unit -> case
(** Generate, import, compile (ACE strategy unless [?strategy] says
    otherwise — the lazy on/off tier compiles both ways) and keygen;
    deterministic in [seed]. *)

val run_case : domains:int -> case -> outcome
(** Runs with the domain pool resized to [domains] (restored to 1 after)
    and the flight recorder enabled for the duration of the run. *)

val check : case -> outcome -> (unit, string) result
(** [Error msg] when the error bound or the noise-budget floor is violated. *)

val ct_equal : Ace_fhe.Ciphertext.ct -> Ace_fhe.Ciphertext.ct -> bool
(** Component-wise bit identity (sizes, scale, every RNS limb). *)

(** {1 Batch tier}

    Cross-request slot batching: the same random graph compiled with
    [~batch:k], fed [k] independent random inputs in ONE ciphertext, and
    each request's decrypted output compared against an unbatched
    (batch-1) encrypted run of the same input. The two compiles use their
    own default contexts — the property is per-request output agreement
    within crypto tolerance, plus bit-identity across pool widths of the
    batched run itself. *)

type batch_case = {
  bc_seed : int;
  bc_batch : int;
  bc_compiled : Ace_driver.Pipeline.compiled;  (** compiled with [~batch] *)
  bc_keys : Ace_fhe.Keys.t;
  bc_inputs : float array array;  (** [batch] independent random inputs *)
  bc_solo : float array array;
      (** per-request unbatched encrypted outputs (the reference) *)
}

type batch_outcome = {
  b_domains : int;
  b_ct_out : Ace_fhe.Ciphertext.ct;
  b_outputs : float array array;
  b_worst_vs_solo : float;
      (** worst per-request |batched - unbatched| across all requests *)
}

val prepare_batch :
  ?cfg:Graph_gen.cfg ->
  ?strategy:Ace_driver.Pipeline.strategy ->
  seed:int -> batch:int -> unit -> batch_case
(** Deterministic in [seed]; runs the [batch] unbatched references at
    preparation time. *)

val run_batch_case : domains:int -> batch_case -> batch_outcome

val check_batch : batch_case -> batch_outcome -> (unit, string) result
(** [Error] when any request's batched output strays more than the crypto
    tolerance from its unbatched reference. *)

val describe : outcome -> string
(** One line for test logs: domains/error/tolerance/budget. *)
