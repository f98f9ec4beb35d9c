(** Execution backend: run a CKKS-IR function against the ACEfhe runtime.

    This plays the role of the paper's generated C program: every CKKS-IR
    node maps to one runtime library call (the generated C calls the same
    ACEfhe entry points; see {!C_backend} for the emitted source). The VM
    attributes wall-clock time to each node's provenance so the harness
    can reproduce Figure 6's Conv / Bootstrap / ReLU breakdown.

    Bootstrapping executes through {!Ace_fhe.Bootstrap}; the strategy is
    chosen by the caller (see DESIGN.md on the Exact/Refresh substitution). *)

type bootstrap_impl =
  node:int -> target_level:int -> Ace_fhe.Ciphertext.ct -> Ace_fhe.Ciphertext.ct
(** [node] is the IR node id of the bootstrap being executed. Implementations
    must derive any randomness from it (not from call order) so that
    interleaved executions of one VM produce the same ciphertexts as
    executions run one after another. *)

type t

val prepare :
  ?cache_plaintexts:bool ->
  keys:Ace_fhe.Keys.t -> bootstrap:bootstrap_impl -> Ace_ir.Irfunc.t -> t
(** Binds the function to a key set; no node runs and nothing is checked
    here ({!Ace_driver.Pipeline} verifies the function before it prepares
    a VM). Plaintext masks are encoded on demand during execution
    (they depend on per-node scale/level). With [cache_plaintexts]
    (default false) each weight's encoded, NTT-domain plaintext is kept
    keyed by node id, so repeated {!run} calls on one VM — the
    {!Ace_driver.Pipeline.runtime} multi-inference path — never re-encode
    a weight; single-shot runs leave it off to keep peak memory at the
    live-range minimum. *)

val run :
  ?tag:(string * string) list -> t -> Ace_fhe.Ciphertext.ct list -> Ace_fhe.Ciphertext.ct list
(** Execute on encrypted inputs (one per function parameter), one node at a
    time in program order: {!start} plus one unbounded {!step}. [?tag]
    (default empty) is appended to every per-node telemetry span's args —
    the request-attribution hook: {!Ace_driver.Pipeline} passes the
    batch's request ids so a Chrome trace can be filtered per request.

    Every executed node also feeds the cost-accountability metrics: a
    [calib.<category>] observation of measured busy time over
    {!Sched.node_ns} (1.0 for an exact model; categories from
    {!Sched.node_category}; nodes predicted under 10 µs are skipped). *)

(** {1 Resumable sequential execution} *)

type exec
(** A paused sequential execution: a cursor over the program-order
    schedule plus its value table. Executions of one prepared VM are
    independent (they share only the plaintext cache), so a caller may
    interleave several of them slice by slice; outputs are bit-identical
    to {!run} in any interleaving. *)

val start : ?tag:(string * string) list -> t -> Ace_fhe.Ciphertext.ct list -> exec
(** Begin an execution; no node runs yet. The inputs stay the caller's. *)

val step : exec -> until:float -> Ace_fhe.Ciphertext.ct list option
(** Run until the wall clock ([Unix.gettimeofday]) passes [until],
    releasing each node's dead values as {!run} does; [Some outputs] once
    the last node has run. The clock is checked after every node and, in
    a key-switching node (relinearize, rotate, conjugate, rotation
    batch), at every boundary between its pieces ({!Ace_fhe.Job}): a node
    stopped part-way stays in the execution and the next [step] resumes
    it, counted in [vm.node_suspensions]. [until = neg_infinity] runs one
    node or one piece, [infinity] runs to the end. Each node records one
    span, phase sample and [calib] observation, of its busy time summed
    over its pieces. The open [nn.<origin>] group span is closed at
    every slice end.
    @raise Invalid_argument on a finished or aborted execution. *)

val remaining : exec -> float
(** Predicted ns ({!Sched.node_ns}) of the nodes not yet run, a node
    suspended part-way counting whole (0.0 once finished or aborted). *)

val abort : exec -> unit
(** Drop an unfinished execution: a node suspended part-way releases its
    scratch rows, hoisted digits and finished rotations, and every live
    value goes back to the limb pool through the same release path
    liveness uses. Cached plaintexts and the caller's inputs stay
    untouched. No-op on a finished execution, whose outputs belong to the
    caller. *)

val run_observed :
  ?tag:(string * string) list ->
  observe:(Ace_ir.Irfunc.node -> Ace_fhe.Ciphertext.ct -> unit) ->
  t -> Ace_fhe.Ciphertext.ct list -> Ace_fhe.Ciphertext.ct list
(** Like {!run}, but calls [observe node ct] on every node that produces a
    ciphertext, after the node executes. The hook behind
    {!Ace_driver.Debug_runner}'s per-layer mode: decrypt intermediates,
    compare against a cleartext shadow, log actual vs estimated error
    (paper Section 5 instrumentation). The observer runs on the VM's
    clock; keep it cheap unless you mean to pay for it. *)

val phase_of_origin : string -> string
(** Bucket a node origin into the Figure 6 categories: "conv", "relu",
    "bootstrap", "gemm", "pool", "other". *)
