(** Release plan and cost model of CKKS-IR functions for the execution
    backend.

    A compiled function is an SSA dataflow graph in topological order, and
    the VM runs it one node at a time in program order. {!plan} says when
    each value dies: right after the last node that reads it, where a
    rotation batch lives on until the last reader of every view
    ([C_batch_get]) taken from it. {!Vm.step} releases exactly this plan,
    and the verifier checks exactly this plan with {!check}, so what is
    proved safe is what runs.

    The module also carries the per-node cost model (nanoseconds per op),
    which the executor holds accountable against measured busy time and
    the serving daemon uses to price requests. *)

type t
(** The per-node release plan of one function. *)

val node_ns : ring_degree:int -> cached_encodes:bool -> Ace_ir.Irfunc.node -> float
(** The cost model: predicted nanoseconds of one node on one domain, in a
    context of ring degree [ring_degree]. A fixed per-node overhead plus
    the RNS kernel rows the op runs (NTTs, digit lifts, mul-acc,
    pointwise, add, automorphism rows), each a per-row overhead plus
    [ring_degree] times the kernel's cost per coefficient (an NTT's per
    butterfly stage, so it grows with log2 of the degree). The model lives
    in [Ace_ckks_ir.Node_price], where the lowering prices tower heights
    with it; these are the same functions. The constants
    are static, measured once; see the source for how. With
    [cached_encodes] an encode costs only the fixed overhead (the VM's
    plaintext cache serves it). Pure function of its arguments. The
    executor holds it accountable against measured busy time (the
    [calib.*] metrics) and the serving daemon prices requests with it. *)

val func_ns : ring_degree:int -> cached_encodes:bool -> Ace_ir.Irfunc.t -> float
(** {!node_ns} summed over every node, in program order: the predicted
    ns of one execution. A fresh {!Vm.start} execution's [Vm.remaining]
    equals it bit for bit (the same additions in the same order), which
    the serving daemon's strict-comparison pick rule relies on. *)

val node_cost : Ace_ir.Irfunc.node -> float
(** The node's kernel work in ns per coefficient at ring degree 2^11,
    without overheads or encode caching: the part of {!node_ns} that
    scales with the ring. A degree-free summary of a node for reports. *)

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
