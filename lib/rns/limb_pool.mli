(** Per-domain free lists of RNS residue buffers.

    Two tiers share the poisoning/double-release machinery:

    {b Rows} ([int array] of one ring degree) are kernel scratch — gadget
    digits, key-switch accumulators, rescale lifts. They are always
    recycled (PR 1 behaviour, predating the [ACE_POOL] knob): the
    evaluator acquires and releases them within a single operation, so
    there is no liveness question to get wrong.

    {b Slabs} ([int array array]: [limbs] rows of one ring degree) back
    whole {!Rns_poly} values, keyed by the (ring degree, limb count)
    geometry. Slab recycling is what makes steady-state inference
    allocation-free — a released ciphertext's slabs are reused by the
    next node at the same geometry — and is gated by [ACE_POOL]
    (default on) because it relies on the liveness discipline upheld by
    [Rns_poly.release]/[mark_shared] and the VM's release sets.

    Free lists live in domain-local storage: acquire/release never takes
    a lock and is safe inside [Domain_pool] bodies. A buffer released on
    a different domain than it was acquired on simply migrates. Buffers
    come back with stale contents; callers either overwrite fully or ask
    for the [_zeroed] variants. Every bucket is depth-capped so a burst
    of deep ciphertexts cannot pin unbounded memory.

    Debug mode ([ACE_POOL_DEBUG], default off) mirrors [Sched.check]'s
    use-after-free discipline at runtime: released buffers are filled
    with a poison word; a release of a buffer already on its free list
    fails (double release), and an acquire that finds the poison
    disturbed fails (some live value still aliased the buffer and wrote
    through it). *)

val enabled : unit -> bool
(** Slab recycling on? Reads [ACE_POOL] once (["0" | "off" | "false" |
    "no"] disable; default on) unless {!set_enabled} overrode it. *)

val set_enabled : bool -> unit
(** Programmatic override of [ACE_POOL], for in-process A/B runs (the
    bench's pooled-vs-unpooled gate, the differential pool tier). *)

val debug : unit -> bool
(** Poison-and-verify mode on? Reads [ACE_POOL_DEBUG] once (default
    off) unless {!set_debug} overrode it. *)

val set_debug : bool -> unit

val poison : int
(** The fill word for released buffers in debug mode. Far outside any
    residue range (every modulus is < 2^62 but realistic primes are
    tens of bits), so a use-after-free read produces unmistakably
    corrupt values even where the checks cannot see it. *)

(** {1 Rows — always-on kernel scratch} *)

val acquire : int -> int array
(** A row of the given length, stale contents. *)

val acquire_zeroed : int -> int array

val release : int array -> unit

val with_row : int -> (int array -> 'a) -> 'a
(** [acquire], run, [release] (also on exception). *)

(** {1 Slabs — [ACE_POOL]-gated ciphertext buffers} *)

val acquire_slab : n:int -> limbs:int -> int array array
(** [limbs] rows of length [n], stale contents. When slab recycling is
    disabled this is a plain fresh allocation. *)

val acquire_slab_zeroed : n:int -> limbs:int -> int array array

val release_slab : int array array -> unit
(** Return a slab to the current domain's free list for its geometry.
    Dropped silently when recycling is disabled or the bucket is full.
    The caller must not touch the slab afterwards — in debug mode any
    later write through a stale alias fails the next acquire. *)

(** {1 Accounting} *)

type stats = {
  row_hits : int;  (** row acquires served from a free list *)
  row_misses : int;  (** row acquires that allocated fresh *)
  row_releases : int;  (** rows accepted onto a free list *)
  row_dropped : int;  (** row releases dropped (bucket full) *)
  slab_hits : int;
  slab_misses : int;
  slab_releases : int;  (** slabs accepted onto a free list *)
  slab_dropped : int;  (** slab releases dropped (disabled or bucket full) *)
}

val stats : unit -> stats
(** Process-wide counters (atomics aggregated across domains). *)

val reset_stats : unit -> unit
