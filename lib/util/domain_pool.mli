(** A reusable pool of worker domains for data-parallel loops over RNS limbs
    and slot batches.

    The pool is a process-global singleton sized by the [ACE_DOMAINS]
    environment variable (default: [Domain.recommended_domain_count ()]).
    With size 1 every primitive degrades to the exact sequential loop, so
    [ACE_DOMAINS=1] reproduces the single-threaded runtime bit for bit.

    All primitives are {e deterministic}: each index is computed by exactly
    one domain with no cross-index communication, so results are identical
    for any pool size and any scheduling. Nested calls (a parallel body
    that itself invokes a pool primitive) are detected and run sequentially
    inline, which keeps limb-level parallelism deadlock-free when composed. *)

val size : unit -> int
(** Current parallelism width (>= 1). *)

val set_num_domains : int -> unit
(** Resize the pool at runtime (used by scaling benchmarks and tests).
    Shuts the old workers down; new workers are spawned lazily on the next
    parallel call. [set_num_domains 1] restores sequential execution. *)

val parallel_for : ?min_chunk:int -> int -> (int -> unit) -> unit
(** [parallel_for n f] runs [f i] for every [0 <= i < n], each exactly
    once, split across the pool. [f] must only write to state owned by
    index [i]. Exceptions raised by [f] are re-raised (first one wins)
    after all claimed chunks have finished.

    [min_chunk] (default 1) is a grain-size floor: when [n <= min_chunk]
    the loop runs inline in the caller with no pool interaction, and
    larger loops are never split into chunks smaller than [min_chunk]
    indices. Light-bodied kernels (a few machine ops per index) should
    pass a floor high enough that publishing a job and waking workers —
    microseconds — cannot dominate the loop body; results are identical
    either way. *)

val init : ?min_chunk:int -> int -> (int -> 'a) -> 'a array
(** Parallel [Array.init]: same contract as [parallel_for]. *)

val map : ?min_chunk:int -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map]. *)

val mapi : ?min_chunk:int -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.mapi]. *)

val shutdown : unit -> unit
(** Join all workers (installed as an [at_exit] handler; also safe to call
    manually). Subsequent parallel calls respawn the pool. *)
