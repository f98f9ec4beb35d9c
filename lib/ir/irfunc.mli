(** IR functions: SSA dataflow graphs with a constant pool.

    Nodes are append-only and identified by dense integer ids; arguments
    always reference earlier nodes, so a function is in topological order
    by construction. Constants (weights, biases, plaintext masks) live in
    a per-function pool keyed by name, keeping the graph small and letting
    the code generator externalise them — the paper's Section 3.4 stores
    weights outside the generated C for exactly this reason. *)

type node = {
  id : int;
  op : Op.t;
  args : int array;
  ty : Types.t;
  mutable scale : float; (** CKKS annotation; 0.0 = unannotated *)
  mutable node_level : int; (** CKKS annotation; -1 = unannotated *)
  mutable origin : string; (** provenance: which source operator this node
                               serves; drives the per-phase breakdown of
                               the paper's Figure 6 *)
}

type t

val create : name:string -> level:Level.t -> params:(string * Types.t) list -> t
val name : t -> string
val level : t -> Level.t
val params : t -> (string * Types.t) array

val add : t -> Op.t -> int array -> Types.t -> int
(** Append a node; returns its id. Argument ids must already exist. *)

val param : t -> int -> int
(** The node id of parameter [i] (param nodes are pre-created). *)

val node : t -> int -> node
val num_nodes : t -> int

val truncate : t -> int -> unit
(** [truncate t n] drops every node with id [>= n], so the next {!add}
    returns [n] again: a speculative lowering appends a candidate, prices
    it and takes it back. Parameters and returns cannot be dropped. *)

val iter : t -> (node -> unit) -> unit
val fold : t -> init:'a -> f:('a -> node -> 'a) -> 'a

val set_returns : t -> int list -> unit
val returns : t -> int list

val add_const : t -> string -> ?dims:int array -> float array -> unit
(** Register a named constant. Re-registering the same name with identical
    contents is a no-op; differing contents raise. *)

val fresh_const : t -> prefix:string -> ?dims:int array -> float array -> string
(** Register under a generated unique name and return it. *)

val const : t -> string -> float array
val const_dims : t -> string -> int array
val const_names : t -> string list
val has_const : t -> string -> bool

val uses : t -> int array
(** [uses f] counts, per node id, how many argument references point at
    it (returns included). *)

val map_rebuild :
  t ->
  name:string ->
  level:Level.t ->
  params:(string * Types.t) list ->
  emit:(t -> (int -> int) -> node -> int) ->
  t
(** Generic lowering/rewriting skeleton: create a fresh function, walk the
    source in order, let [emit dst lookup node] translate each node and
    return the id its result now lives at ([lookup] maps already-translated
    source ids to destination ids). Returns are remapped automatically,
    and the source's constant pool is copied. *)
