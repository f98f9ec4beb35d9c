(** Dataflow scheduling of CKKS-IR functions for the execution backend.

    A compiled function is an SSA dataflow graph in topological order; the
    only dependences are read-after-write edges from a node to its
    arguments (there are no WAR/WAW hazards: every node writes a fresh
    value exactly once). [analyze] levelises the graph into {e wavefronts}
    — maximal sets of nodes whose arguments all live in strictly earlier
    wavefronts — so every node of a wavefront can execute concurrently
    with the others, in any order, with no synchronisation beyond a
    barrier between wavefronts.

    Bootstrap nodes are scheduling barriers: they are placed in a
    singleton wavefront after every earlier node and before every later
    one. This is not a dataflow requirement but a determinism one — the
    recryption oracle derives its randomness from an invocation ordinal,
    so bootstraps must execute in program order, never concurrently (see
    DESIGN.md, "Wavefront scheduler").

    The module also carries a per-node cost model (weight in arbitrary
    work units, plus the op's internal limb-parallel width) so the
    executor can choose, per wavefront, between node-level parallelism
    (many independent ops, one domain each) and limb-level parallelism
    (few big ops, each split across domains) — CHET/nGraph-HE2 style
    node scheduling versus the PR 1 intra-op runtime. *)

type t

val node_cost : Ace_ir.Irfunc.node -> float
(** The cost model itself: estimated work of one node in abstract units
    (1.0 ~ one limb of pointwise work, i.e. one O(N) pass over a residue
    row). Pure function of the node's op and level annotation. Exposed so
    the executor can hold the prediction accountable against measured
    wall-clock (the [calib.*] telemetry metrics) and so the serving
    daemon can price a request before running it. *)

val func_cost : Ace_ir.Irfunc.t -> float
(** {!node_cost} summed over every node, in program order: the predicted
    work of one execution. A fresh {!Vm.start} execution's
    [Vm.remaining] equals it bit for bit (the same additions in the same
    order), which the serving daemon's strict-comparison pick rule
    relies on. *)

val node_category : Ace_ir.Irfunc.node -> string
(** Calibration bucket of a node's op: ["key_switch"] (relin / rotate /
    conjugate, incl. hoisted batches), ["mul"], ["rescale"], ["encode"],
    ["add"], ["bootstrap"], or ["light"] (bookkeeping ops whose cost is
    epsilon). The telemetry metric is [calib.<category>]. *)

val analyze : Ace_ir.Irfunc.t -> t
(** Build the wavefront partition, the cost annotations and the per-
    wavefront release sets. O(nodes + edges); safe on any level's function
    (only CKKS ops get meaningful weights). *)

val sequential : Ace_ir.Irfunc.t -> t
(** The sequential executor's order expressed as a degenerate schedule:
    one singleton wavefront per node in program order, values released
    after their last consumer. {!check} accepts it for exactly the
    programs whose {!analyze} schedule it accepts, which lets the
    verifier hold {!Vm.run} and {!Vm.run_parallel} to identical dataflow
    and liveness rules. *)

val wavefronts : t -> int array array
(** Node ids per wavefront, ascending within each wavefront; wavefronts in
    execution order. Every node id appears exactly once. *)

val free_after : t -> int array array
(** [|free_after t|.(w)] lists the node ids whose value is dead once
    wavefront [w] has completed (their last consumer lives in wavefront
    [w]); function returns are never listed. *)

val is_barrier : t -> int -> bool
(** Whether wavefront [w] is a bootstrap barrier (always a singleton). *)

val weight : t -> int -> float
(** Estimated cost of node [id] in abstract work units (1.0 ~ one limb of
    pointwise work). *)

val width : t -> int -> int
(** Internal limb-parallel width of node [id]: how many domains the op
    could occupy on its own through the RNS runtime (key-switch: limbs+1;
    pointwise/transform ops: limbs; cheap ops: 1). *)

val wave_weight : t -> int -> float
(** Total predicted weight of wavefront [w] in cost-model units — the
    prediction {!Vm.run_parallel} compares against the wavefront's
    measured wall-clock ([calib.wavefront]). *)

type mode = Node_parallel | Sequential

val decide : t -> int -> domains:int -> mode
(** Execution mode for wavefront [w] on a [domains]-wide pool: compare the
    LPT makespan bound of running the wavefront's nodes as unit tasks
    (max(total/p, heaviest)) against the limb-parallel estimate
    (sum of weight/min(width, p)) and pick the smaller, with a small bias
    towards [Sequential] (the limb path has no per-node queue cost and is
    the bit-for-bit-identical baseline). Barriers and singleton wavefronts
    are always [Sequential]. *)

val max_width : t -> int
(** Largest wavefront size — the node-level parallelism available to a
    pool, before the cost model has its say. *)

val check : Ace_ir.Irfunc.t -> t -> unit
(** Validate the schedule against the function: every node appears in
    exactly one wavefront, every argument of a node lives in a strictly
    earlier wavefront (no RAW violation is schedulable), barriers are
    singletons, and no released node is a return. Raises [Failure] with a
    diagnostic otherwise; used by the test suite. *)
