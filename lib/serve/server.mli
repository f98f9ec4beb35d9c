(** The ace-serve daemon: a persistent encrypted-inference server over a
    Unix domain socket.

    One single-threaded [select] loop owns everything: it accepts
    connections, parses {!Wire} frames from per-connection input buffers,
    answers control messages inline, and pushes inference work through a
    bounded admission queue. All pending input is drained into the queue
    before any work runs, so a burst of pipelined requests hits admission
    control at once and the overflow gets typed [Overloaded] replies
    straight away.

    {b Sliced execution}: homomorphic executions run on the loop itself,
    in 5 ms wall-clock slices ({!Ace_driver.Pipeline.step}, whole nodes
    only), with a [select] between slices. Several executions may be in
    progress at once; {!pick} chooses, before each slice, between
    starting a queued group and continuing a running execution, by least
    predicted work left. A light request therefore waits for the slice
    in progress (which ends at the next node boundary) rather than for a
    heavy execution's whole run. An execution whose clients have all
    disconnected is dropped between slices and its buffers go back to
    the pool.

    {b Models} are compiled once at startup (or fetched from the on-disk
    artifact cache, skipping the compiler entirely — see
    {!Wire.artifact}) and shared by every tenant.

    {b Sessions}: a tenant uploads its key set once per model
    ([Put_keys]); the server keeps the keys and a resident
    {!Ace_driver.Pipeline.runtime} (weight plaintexts encoded once) for
    the life of the daemon. Inference requests reference the session —
    no key material travels with a request.

    {b Admission} bounds both the request count and the predicted work
    (nanoseconds, {!Ace_driver.Pipeline.runtime_exec_ns}, amortized per
    request) sitting in the queue; work that has started no longer
    counts. Compatible requests — same (tenant, model), [coalesce] set,
    distinct batch regions, real packing — are merged onto one
    ciphertext's batch axis with a single homomorphic execution serving
    all of them.

    {b Lifecycle}: [Reload] recompiles a model and rebuilds the affected
    session runtimes without dropping uploaded keys (an execution already
    running finishes on the runtime it started with); [Drain] (or
    {!request_drain}, e.g. from a SIGTERM handler) stops admission,
    finishes the queue and every running execution, flushes replies and
    exits the loop. A client vanishing mid-request only drops that
    connection — the daemon and every session survive.

    {b Metrics} (beside the pipeline's [request.*]): [serve.queue_wait]
    (admission to start, per request), [serve.exec_wall] (start to
    finish, per execution, including slices given to other executions),
    [serve.slices] (slices per execution), [serve.cancelled], and the
    admission family [serve.admitted]/[serve.rejected]/[serve.coalesced]/
    [serve.queue_depth]/[serve.queued_units]. *)

type config = {
  socket_path : string;
  models : (string * Model_spec.t) list;  (** served name -> spec *)
  cache_dir : string option;  (** artifact cache; [None] disables *)
  strategy : Ace_driver.Pipeline.strategy;
  batch : int;
  complex : bool;
  max_queue : int;  (** admission cap: queued requests *)
  max_units : float;  (** admission cap: queued predicted work, in ns *)
  server_name : string;
}

val default_config : config
(** [ace] strategy, batch 1, real packing, queue cap 64, work cap [1e12] ns,
    no cache dir, socket ["/tmp/ace-serve.sock"], no models. *)

type t

val create : config -> t
(** Bind the socket (replacing a stale socket file), compile or
    cache-load every configured model, ignore SIGPIPE. Emits
    [serve.cache_hit]/[serve.cache_miss] per model and logs one line per
    model to stderr. *)

val run : t -> unit
(** The serve loop; returns after a drain completes. The socket file is
    unlinked on the way out. *)

val request_drain : t -> unit
(** Signal-safe: flag the loop to stop admitting and exit once the queue
    and reply buffers are empty. Callable from any thread/domain or a
    signal handler. *)

val stats : t -> Wire.stats
(** Current counters (what [Get_stats] reports). *)

(** {1 The slice-pick rule} *)

type next =
  | Start of int  (** start the group headed by this queued job *)
  | Slice of int  (** give one slice to this running execution *)
  | Idle

val pick : queued:float list -> running:float list -> next
(** [queued]: each queued job's predicted execution time
    ({!Ace_codegen.Sched.node_ns}, priced at its model's ring degree), in
    admission order; [running]: each running execution's predicted ns
    left ({!Ace_driver.Pipeline.remaining}, a node suspended part-way
    counting whole), in start order. Both are nanoseconds, so a small-ring
    request compares correctly against the tail of a large-ring one. A queued job starts only if it is strictly cheaper than
    the smallest remainder among running executions (or nothing runs);
    the cheapest starts first, admission order breaking ties. Otherwise
    the running execution with the least work left gets the slice, the
    earliest-started on a tie — so equal-cost streams stay FIFO and are
    never preempted. A slice ends at the first node or key-switch piece
    boundary past 5 ms ({!Ace_codegen.Vm.step}), so a request that starts
    waits at most one slice plus one piece. Pure; the loop applies it
    until it yields a slice or [Idle]. *)
