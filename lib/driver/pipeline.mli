(** End-to-end compilation pipeline (paper Figure 3) and encrypted
    execution helpers.

    [compile] runs NN import cleanups, NN->VECTOR, VECTOR->SIHE,
    SIHE->CKKS, CKKS fusion and rotation-key planning, timing each level
    for the Figure 5 breakdown. POLY lowering and C emission are an
    explicit export ({!emit_c}): the VM executes the CKKS function, so
    compiling stops there. Two built-in strategies:

    - {!ace}: every optimization on (conv regrouping, BSGS GEMM, lazy
      rescaling, minimal-level bootstrapping, pruned rotation keys);
    - {!expert}: the hand-written-practice baseline the paper compares
      against (direct conv form, direct diagonals, eager rescaling,
      full-level bootstrapping, power-of-two rotation keys with hop
      decomposition).

    Both run on the same runtime, so Figures 6-7 measure exactly the
    compiler's decisions. *)

type strategy = {
  strategy_name : string;
  conv_regroup : bool;
  gemm_bsgs : bool;
  lazy_rescale : bool;
  lazy_passes : bool;
      (** run {!Ace_ckks_ir.Ckks_lazy} (lazy relinearisation + sibling
          rescale coalescing) after CKKS fusion; the [ACE_LAZY] environment
          knob overrides this field *)
  min_level_bootstrap : bool;
  pruned_keys : bool;
  hoist_rotations : bool;
      (** group same-source rotations into hoisted [C_rotate_batch]
          bundles after key planning (Halevi–Shoup hoisting); results are
          bit-identical with it on or off *)
  relu_alpha : int;
  chain_depth : int;
      (** rescale levels of the execution context; both strategies run the
          same tower, but the expert baseline always bootstraps back to
          its top while ACE proves a minimal per-segment target. *)
}

val ace : strategy
val expert : strategy

val library_default : strategy
(** The expert baseline but with power-of-two rotation keys and binary-hop
    rotation decomposition (common FHE-library default, paper Section 2.2);
    exercised by the ablation bench. *)

type compiled = {
  strategy : strategy;
  batch : int;
      (** cross-request batch factor: this many independent requests share
          one ciphertext, one per slot region (see {!Ace_vector.Layout}) *)
  cplx : Ace_ckks_ir.Ckks_cplx.info option;
      (** [Some] when compiled with complex packing: two request streams
          per slot (real/imaginary), doubling {!requests_per_ct}; carries
          the region stats and per-output multipliers the decryptor needs *)
  context : Ace_fhe.Context.t;
  nn : Ace_ir.Irfunc.t;
  vec : Ace_ir.Irfunc.t;
  sihe : Ace_ir.Irfunc.t;
      (** the upper IR levels stay for inspection and the cleartext
          interpreters; they share their constant arrays with [ckks], so
          keeping them costs little beyond the CKKS function itself *)
  ckks : Ace_ir.Irfunc.t;  (** the function the VM executes *)
  input_layout : Ace_vector.Layout.t;
  output_layouts : Ace_vector.Layout.t list;
  key_plan : Ace_ckks_ir.Keygen_plan.plan;
  lazy_stats : Ace_ckks_ir.Ckks_lazy.stats;
      (** eager-vs-lazy relin/rescale counts of the CKKS function (equal
          when the lazy passes were disabled) *)
  placement : Ace_ckks_ir.Lower_sihe.decision list;
      (** the tower height chosen for each operator, with its predicted
          ns and the ns of the rule without a height; empty when nothing
          was priced (no refresh needed, the expert strategy) and on a
          {!restore}d value *)
  level_seconds : (Ace_ir.Level.t * float) list;
      (** Figure 5 rows; the [Poly] row reads 0.0 because POLY lowering
          is part of {!emit_c}, not of [compile] *)
  other_seconds : float;
      (** 0.0: weight externalisation is the
          {!Ace_codegen.C_backend.emit_weights_file} export *)
}

val lazy_enabled : strategy -> bool
(** Whether [compile] will run the lazy passes: the [ACE_LAZY] environment
    knob if set, the strategy's [lazy_passes] field otherwise. *)

val default_batch : unit -> int
(** The [ACE_BATCH] environment knob (default 1): how many independent
    requests share one ciphertext when [compile] is not given [?batch]. *)

val default_complex : unit -> bool
(** The [ACE_CPLX] environment knob (default off): complex packing — two
    request streams per slot via {!Ace_ckks_ir.Ckks_cplx} — when [compile]
    is not given [?complex]. *)

val compile :
  ?context:Ace_fhe.Context.t ->
  ?batch:int -> ?complex:bool -> strategy -> Ace_ir.Irfunc.t -> compiled
(** Default context: {!Ace_ckks_ir.Param_select.execution_context} sized
    to the model's slot needs times [batch]. [?batch] (default
    {!default_batch}[ ()]) replicates the layout across that many slot
    regions; the compiled schedule — rotation amounts, keygen plan, scale
    management, homomorphic op count — is identical for every batch
    factor, only encode/encrypt/decrypt fan out per request. [?complex]
    (default {!default_complex}[ ()]) additionally packs two request
    streams per slot via {!Ace_ckks_ir.Ckks_cplx}. *)

val emit_c : compiled -> Ace_poly_ir.Poly_ir.func * string
(** The generated-code export (paper Section 3.4): lower the CKKS
    function to POLY, fuse loops and ops, check the POLY function when
    the verifier is on, and emit C with the weights externalised. Pair
    with {!Ace_codegen.C_backend.emit_weights_file} for the weight table.
    Works on a {!restore}d value too. Records an [export.c] span when
    tracing. *)

val requests_per_ct : compiled -> int
(** Independent requests one ciphertext carries: [batch], doubled under
    complex packing. The batch helpers below expect exactly this many
    images. *)

val restore :
  strategy:strategy ->
  batch:int ->
  cplx:Ace_ckks_ir.Ckks_cplx.info option ->
  context:Ace_fhe.Context.t ->
  ckks:Ace_ir.Irfunc.t ->
  input_layout:Ace_vector.Layout.t ->
  output_layouts:Ace_vector.Layout.t list ->
  lazy_stats:Ace_ckks_ir.Ckks_lazy.stats ->
  unit ->
  compiled
(** Reassemble a [compiled] from a persisted serving artifact
    ({!Ace_serve.Wire}) without re-running any lowering: the keygen plan
    is re-derived from the CKKS function (a cheap walk), and the upper IR
    levels, which serving never touches, hold explicit placeholders.
    Every serving entry point ([make_keys], [encrypt_*], [run_encrypted*],
    [decrypt_*], [make_runtime]) and {!emit_c} work on a restored value;
    [Stats.of_compiled] does not. *)

val slots_needed : Ace_ir.Irfunc.t -> int
(** Smallest power-of-two slot vector the NN function's layouts fit in. *)

val runtime_domains : unit -> int
(** Number of domains the RNS runtime's pool uses for encrypted execution
    (the [ACE_DOMAINS] knob; see lib/util/domain_pool.mli). Compilation
    itself is sequential — this only affects [run_encrypted] and friends. *)

(** {1 Client/server protocol helpers (paper Figure 2)} *)

val make_keys : compiled -> seed:int -> Ace_fhe.Keys.t

val encrypt_input :
  compiled -> Ace_fhe.Keys.t -> seed:int -> float array -> Ace_fhe.Ciphertext.ct
(** The generated encryptor: pack with the input layout, encode, encrypt.
    With [batch > 1] the single image is replicated into every region. *)

val encrypt_batch :
  compiled -> Ace_fhe.Keys.t -> seed:int -> float array array -> Ace_fhe.Ciphertext.ct
(** Pack {!requests_per_ct} independent images into one ciphertext, one
    per slot region — under complex packing, one PAIR per region, images
    [2r] and [2r+1] in region [r]'s real and imaginary parts, encoded as
    [(a+ib)/2]. @raise Invalid_argument on a count mismatch. *)

val prepare_vm :
  ?cache_plaintexts:bool -> compiled -> Ace_fhe.Keys.t -> seed:int -> Ace_codegen.Vm.t
(** The one place a VM is prepared ({!run_encrypted}, {!make_runtime} and
    {!Debug_runner} all come here): check the CKKS function with
    {!Ace_verify.Verifier.ckks} against the keys' context, whatever
    [ACE_VERIFY] says, then {!Ace_codegen.Vm.prepare} it with the
    recryption oracle seeded by [seed].
    @raise Ace_verify.Verifier.Rejected on any diagnostic. *)

val run_encrypted :
  ?request_ids:string array ->
  compiled -> Ace_fhe.Keys.t -> seed:int -> Ace_fhe.Ciphertext.ct -> Ace_fhe.Ciphertext.ct
(** Prepare a throwaway VM ({!prepare_vm}) and run the ciphertext through
    it, one node at a time in program order.

    [?request_ids] names the {!requests_per_ct} requests riding in the
    ciphertext (default ["r0".."r{k-1}"]; @raise Invalid_argument on a
    count mismatch). Every execution — whatever its batch factor —
    records per-request attribution: a [request.batch] span whose args
    carry the ids, [k] and the amortized span/k cost, the same ids
    tagged onto every per-node VM span, and [request.latency] /
    [request.count] / [request.per_ct] metrics counted once per request
    (so their quantiles are per-request amortized latencies). *)

val decrypt_output : compiled -> Ace_fhe.Keys.t -> Ace_fhe.Ciphertext.ct -> float array
(** The generated decryptor: decrypt, decode, unpack to the NN output
    tensor. *)

val decrypt_batch :
  compiled -> Ace_fhe.Keys.t -> Ace_fhe.Ciphertext.ct -> float array array
(** Per-request output tensors ({!requests_per_ct} of them), inverse of
    {!encrypt_batch} — under complex packing each slot region yields two,
    divided by the recorded output multiplier. *)

val infer_encrypted :
  compiled -> Ace_fhe.Keys.t -> seed:int -> float array -> float array
(** encrypt -> run -> decrypt, one image. *)

val infer_encrypted_batch :
  ?request_ids:string array ->
  compiled -> Ace_fhe.Keys.t -> seed:int -> float array array -> float array array
(** encrypt -> run -> decrypt for {!requests_per_ct} independent images
    sharing one ciphertext; one homomorphic execution total, attributed
    per request (see {!run_encrypted}). *)

(** {1 Resident runtime (multi-inference serving)} *)

type runtime
(** A prepared VM that lives across inferences: weight plaintexts are
    encoded once ever (NTT-domain cache keyed by node) instead of once per
    image. Use for serving loops; the single-shot helpers above rebuild
    the VM each call and keep peak memory minimal. *)

val make_runtime :
  ?telemetry:Ace_telemetry.Telemetry.config -> compiled -> Ace_fhe.Keys.t -> seed:int -> runtime
(** [?telemetry] applies {!Ace_telemetry.Telemetry.configure} before the
    VM is prepared ({!prepare_vm}) — the programmatic equivalent of
    [ACE_TRACE]/[ACE_METRICS]/[ACE_FLIGHT] for serving loops. *)

val runtime_vm : runtime -> Ace_codegen.Vm.t
(** The resident VM, for callers that drive {!Ace_codegen.Vm} directly. *)

val runtime_exec_ns : compiled -> float
(** Predicted ns of one execution on a resident runtime
    ({!Ace_codegen.Sched.func_ns} at the context's ring degree, encodes
    served from the plaintext cache). Equal, bit for bit, to {!remaining}
    of a fresh {!start_rt} execution. *)

val run_encrypted_rt :
  ?request_ids:string array -> runtime -> Ace_fhe.Ciphertext.ct -> Ace_fhe.Ciphertext.ct
(** Serving-loop execution with the same per-request attribution as
    {!run_encrypted}: {!start_rt} plus one unbounded {!step}. *)

(** {1 Sliced execution} *)

type exec
(** One execution in progress on a resident runtime, resumable slice by
    slice; it keeps the runtime it started with. *)

val start_rt : ?request_ids:string array -> runtime -> Ace_fhe.Ciphertext.ct -> exec
(** Begin an execution ({!Ace_codegen.Vm.start}); no node runs yet.
    [?request_ids] as for {!run_encrypted}. *)

val step : exec -> until:float -> Ace_fhe.Ciphertext.ct option
(** Run one slice: nodes, and pieces of key-switching nodes, until the
    wall clock passes [until] ({!Ace_codegen.Vm.step}); [Some result]
    once the last node has run.
    The [request.*] metrics and the [request.batch] span are
    recorded on completion: [request.latency] is the execution's own busy
    time (summed over its slices) divided by {!requests_per_ct}, and the
    [gc.*] deltas are summed over its slices only, so interleaved
    executions never count each other.
    @raise Failure on a keygen-plan mismatch (a missing rotation key). *)

val remaining : exec -> float
(** Predicted ns ({!Ace_codegen.Sched.node_ns}) of the nodes not yet
    run; a node suspended part-way counts whole. *)

val abort : exec -> unit
(** Drop an unfinished execution and return its live buffers to the limb
    pool ({!Ace_codegen.Vm.abort}); the input ciphertext stays the
    caller's. *)

val infer_encrypted_rt : runtime -> seed:int -> float array -> float array
(** encrypt -> run -> decrypt through the resident VM. *)
