(** Release plan and cost model of CKKS-IR functions for the execution
    backend.

    A compiled function is an SSA dataflow graph in topological order, and
    the VM runs it one node at a time in program order. {!plan} says when
    each value dies: right after the last node that reads it, where a
    rotation batch lives on until the last reader of every view
    ([C_batch_get]) taken from it. {!Vm.step} releases exactly this plan,
    and the verifier checks exactly this plan with {!check}, so what is
    proved safe is what runs.

    The module also carries the per-node cost model (work units per op),
    which the executor holds accountable against measured wall-clock and
    the serving daemon uses to price requests. *)

type t
(** The per-node release plan of one function. *)

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

val plan : Ace_ir.Irfunc.t -> t
(** Program-order liveness: a value is released right after its last
    reader runs, a batch after the last reader of any of its views.
    Returns, and values nothing reads, are never released. O(nodes +
    edges). *)

val free_after : t -> int array array
(** [(free_after t).(i)] lists, ascending, the values that are dead once
    node [i] has run. Indexed by node id; the array is the plan itself,
    not a copy. *)

val check : Ace_ir.Irfunc.t -> t -> unit
(** Validate a plan against the function: it has one entry per node, no
    return is released, each value is released at most once, no node
    reads a value released before it runs (directly, or through a view
    of a released batch), and a returned view pins its batch. Raises
    [Failure] naming the offending node otherwise. *)
