(** The cost model of CKKS-IR nodes: predicted nanoseconds on one domain.

    One price serves the whole system. The lowering ({!Lower_sihe})
    chooses each operator's tower height by minimising it; the VM holds
    it accountable against measured busy time and the serving daemon
    prices requests with it (both through [Ace_codegen.Sched], which
    re-exports these functions). A node costs a fixed overhead plus the
    RNS kernel rows its op runs at its [node_level]; the constants are
    static, measured once (see the source for how). *)

val node_ns :
  ring_degree:int -> cached_encodes:bool -> Ace_ir.Irfunc.t -> Ace_ir.Irfunc.node -> float
(** Predicted nanoseconds of one node of the function in a context of
    ring degree [ring_degree]. The function supplies the operand's level,
    which prices a bootstrap's decryption half. With [cached_encodes] an
    encode costs only the fixed overhead (a resident VM's plaintext cache
    serves it). Pure. *)

val func_ns : ring_degree:int -> cached_encodes:bool -> Ace_ir.Irfunc.t -> float
(** {!node_ns} summed over every node in program order. *)

val node_cost : Ace_ir.Irfunc.node -> float
(** Kernel work in ns per coefficient at ring degree 2^11, without
    overheads or encode caching. A bootstrap is priced from a level-0
    operand, since the node alone does not name its operand's level. *)
