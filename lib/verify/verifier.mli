(** Cross-level static IR verifier (the correctness backstop).

    The five-level IR exists so every lowering can be independently
    validated; this module is the validator. {!well_formed} holds any DAG
    level to the structural rules (def-before-use, single assignment,
    arity, per-opcode typing, level discipline). {!ckks} is an abstract
    interpreter over the (scale_bits, modulus level, limb count) lattice:
    it re-derives every CKKS node's annotations from its operands' and
    additionally rejects
    rotation steps absent from the keygen plan, ill-formed hoisted
    [C_rotate_batch] access, bootstrap targets outside the chain, and
    slot-capacity overflows. {!schedule} applies {!Ace_codegen.Sched.check}
    — no return released, no double release, no use-after-free — to a
    release plan, and {!function_checks} verifies the plan the VM
    executes ({!Ace_codegen.Sched.plan}).

    All checks collect diagnostics instead of failing fast, and a
    corrupted program must never crash the verifier: internal exceptions
    are converted into diagnostics naming the node under scrutiny.

    {!Ace_driver.Pipeline.compile} invokes the verifier after every
    lowering stage when {!enabled} — the [ACE_VERIFY] environment knob,
    on by default ([ACE_VERIFY=0] disables it for production serving).
    {!Ace_driver.Pipeline.prepare_vm} runs {!ckks} before every VM is
    prepared, whatever the knob says. *)

exception Rejected of Diagnostic.t list
(** Raised by the [_exn] entry points; carries every diagnostic found. *)

val enabled : unit -> bool
(** [ACE_VERIFY] knob: unset or anything but [0]/[off]/[false]/[no] means
    on. {!set_enabled} overrides the environment (tests). *)

val set_enabled : bool -> unit

val well_formed : pass:string -> Ace_ir.Irfunc.t -> Diagnostic.t list
(** Structural and typing rules for any DAG-level function. *)

val ckks :
  pass:string ->
  ?plan:Ace_ckks_ir.Keygen_plan.plan ->
  Ace_fhe.Context.t ->
  Ace_ir.Irfunc.t ->
  Diagnostic.t list
(** The (scale, level, limbs) abstract interpretation plus plan/batch/slot
    checks. Assumes [well_formed] passed; call {!function_checks} to get
    both with one call. *)

val schedule : pass:string -> Ace_ir.Irfunc.t -> Ace_codegen.Sched.t -> Diagnostic.t list
(** {!Ace_codegen.Sched.check} with failures converted to
    [Schedule_violation] diagnostics naming the offending node. *)

val poly : pass:string -> Ace_poly_ir.Poly_ir.func -> Diagnostic.t list
(** POLY-level well-formedness: every [t<id>]-named operand of a statement
    must be defined (or declared) by an earlier statement. *)

val function_checks :
  pass:string ->
  ?plan:Ace_ckks_ir.Keygen_plan.plan ->
  ?context:Ace_fhe.Context.t ->
  Ace_ir.Irfunc.t ->
  Diagnostic.t list
(** [well_formed], then — for a structurally sound CKKS function with a
    context — the abstract interpretation and the release plan. *)

val check_exn :
  pass:string ->
  ?plan:Ace_ckks_ir.Keygen_plan.plan ->
  ?context:Ace_fhe.Context.t ->
  Ace_ir.Irfunc.t ->
  unit
(** {!function_checks}; @raise Rejected when any diagnostic is found. *)

val poly_exn : pass:string -> Ace_poly_ir.Poly_ir.func -> unit

val errors_to_string : Diagnostic.t list -> string
