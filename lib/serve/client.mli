(** Thin serving client: everything a tenant does against an ace-serve
    daemon, without ever running the compiler.

    [Describe] returns enough ({!Wire.model_info}) to rebuild the
    context from its parameters, generate keys covering exactly the
    schedule's rotation steps, and encode/encrypt inputs with the same
    layout arithmetic as {!Ace_driver.Pipeline.encrypt_input} — so a
    served result decrypts bit-identically to a local
    [Pipeline.infer_encrypted] run with the same seeds.

    All I/O is blocking; one [t] is one socket, and several requests may
    be pipelined before the first reply is read. Match each [Result] to
    its request by [request_id], not by position: the server finishes
    cheaper executions first and may skip a queued request to coalesce
    later ones. [Overloaded] and [Err] replies to an [Infer] go out at
    admission, as soon as the server reads the request, so they can
    arrive before the [Result]s of requests sent earlier; only an
    execution failure's [Err] waits for the execution. *)

type t

val connect : string -> t
(** Connect to the daemon's socket path. *)

val close : t -> unit

val hello : ?client:string -> t -> (string list, string) result
(** Served model names. *)

val describe : t -> string -> (Wire.model_info, string) result
val get_stats : t -> (Wire.stats, string) result
val reload : t -> string -> (bool, string) result
val drain : t -> (unit, string) result

(** A prepared tenant session: context + keys resident on both sides. *)
type session = {
  tenant : string;
  model : string;
  info : Wire.model_info;
  context : Ace_fhe.Context.t;
  keys : Ace_fhe.Keys.t;
}

val prepare :
  t -> tenant:string -> model:string -> key_seed:int -> oracle_seed:int ->
  (session, string) result
(** [Describe], rebuild the context, generate keys for the advertised
    rotation steps (deterministic in [key_seed]), upload them. *)

(** {1 Payloads} *)

val encrypt : session -> seed:int -> float array -> string
(** One image, replicated into every batch region — the exact
    [Pipeline.encrypt_input] path (complex models encode [(a+i·0)/2]). *)

val encrypt_region : session -> seed:int -> region:int -> float array -> string
(** The image in batch region [region] only, zero slots elsewhere — the
    payload shape coalescing needs (the server merges region-disjoint
    ciphertexts with one homomorphic add). Real packing only. *)

val decrypt : session -> region:int -> string -> (float array, string) result
(** Extract region [region]'s output tensor from a [Result] blob. *)

(** {1 Requests} *)

val submit :
  t -> session -> request_id:string -> ?region:int -> ?coalesce:bool -> string -> unit
(** Send an [Infer] frame (default region 0, no coalescing) without
    waiting — pipelining several submissions is how a client keeps
    multiple requests in flight. *)

val await : t -> (Wire.response, string) result
(** Read the next reply frame, whichever request it answers. *)

val await_result : t -> (string * string, string) result
(** Read the next reply, insisting on [Result]: [(request_id, ct blob)].
    [Overloaded] and [Err] replies come back as [Error] strings prefixed
    with the typed code name. *)

val infer : t -> session -> seed:int -> float array -> (float array, string) result
(** encrypt -> submit -> await -> decrypt, one image, region 0. *)
