(** The ace-serve wire protocol and the compiled-artifact disk format.

    {1 Framing}

    Every message travels in one frame:

    {v
      offset  size  field
      0       4     magic "ACEP"
      4       2     protocol version (u16 LE)
      6       1     message type tag (u8)
      7       4     payload length (u32 LE, capped at 256 MiB)
      11      len   payload (Bytesio little-endian fields)
    v}

    Frames are validated in two stages. Header faults ([Bad_magic],
    [Bad_version], oversized [Bad_frame]) poison the byte stream — the
    receiver cannot know where the next frame starts — so the server
    replies with the typed error and closes the connection. Payload
    faults ([Bad_payload]: truncated fields, range violations, a
    ciphertext that fails {!Ace_fhe.Fhe_wire} validation) leave framing
    intact: the server replies with the typed error and the connection
    (and the tenant's session) stays usable. Garbage bytes can produce
    either outcome but never a crash.

    {1 Artifacts}

    A compiled-schedule artifact ([*.aceart]) is the on-disk unit of the
    daemon's compile-once cache: everything {!Ace_driver.Pipeline.restore}
    needs to rebuild a servable [compiled] without re-running the
    compiler. The cache key {!artifact_hash} covers the canonical model
    spec, the full strategy, batch/complex factors and every format
    version, so any input that could change the schedule changes the
    file name. *)

module Pipeline = Ace_driver.Pipeline

val proto_version : int
val frame_header_bytes : int
val max_payload_bytes : int

type error_code =
  | Bad_magic
  | Bad_version
  | Bad_frame  (** oversized or structurally impossible frame *)
  | Bad_payload  (** well-framed but undecodable/invalid payload *)
  | Unknown_model
  | No_session  (** Infer before Put_keys for this (tenant, model) *)
  | Overloaded_err  (** only used client-side to name an Overloaded reply *)
  | Draining
  | Internal

val error_code_name : error_code -> string

(** {1 Messages} *)

type model_info = {
  mi_name : string;
  mi_hash : string;  (** artifact cache key (hex) *)
  mi_params : Ace_fhe.Context.params;
  mi_batch : int;
  mi_requests_per_ct : int;
  mi_cplx : bool;
  mi_output_mults : float list;
  mi_rotation_steps : int list;  (** what the client's keygen must cover *)
  mi_input_layout : Ace_vector.Layout.t;
  mi_output_layouts : Ace_vector.Layout.t list;
  mi_predicted_units : float;
      (** predicted time of one execution in nanoseconds
          ({!Ace_driver.Pipeline.runtime_exec_ns}) — the quantity
          admission control budgets; the field keeps its name *)
  mi_from_cache : bool;  (** schedule came from the disk artifact cache *)
}

type request =
  | Hello of { client : string }
  | Describe of { model : string }
  | Put_keys of { tenant : string; model : string; oracle_seed : int; keys : string }
      (** [keys] is an {!Ace_fhe.Fhe_wire} key-set blob, validated
          against the model's context server-side. [oracle_seed] seeds
          the simulated recryption oracle for this session's bootstraps. *)
  | Infer of {
      tenant : string;
      model : string;
      request_id : string;
      region : int;  (** batch region this request's payload occupies *)
      coalesce : bool;
          (** permit merging with other single-region requests of the
              same (tenant, model) onto one ciphertext's batch axis *)
      ct : string;  (** {!Ace_fhe.Fhe_wire} ciphertext blob *)
    }
  | Get_stats
  | Reload of { model : string }  (** recompile, refresh cache, rebuild sessions *)
  | Drain  (** finish queued work, refuse new, exit *)

type stats = {
  sv_queue_depth : int;
  sv_queued_units : float;  (** predicted ns of the queued requests *)
  sv_served : int;
  sv_rejected : int;
  sv_coalesced : int;
  sv_sessions : int;
  sv_cache_hits : int;
  sv_cache_misses : int;
  sv_draining : bool;
}

type response =
  | Hello_ok of { server : string; proto : int; models : string list }
  | Model_info of model_info
  | Keys_ok
  | Result of { request_id : string; ct : string }
  | Overloaded of { queue_depth : int; queued_units : float }
      (** [queued_units]: predicted ns already queued *)
  | Err of { code : error_code; message : string }
  | Stats_ok of stats
  | Reloaded of { model : string; from_cache : bool }
  | Drain_ok

(** {1 Frame encode/decode} *)

val encode_request : request -> string
(** A complete frame, header included, built in one allocation of exactly
    its size ({!Ace_util.Bytesio.encode}). *)

val encode_response : response -> string

val write_request : Ace_util.Bytesio.writer -> request -> unit
(** The bytes of {!encode_request}, written to any writer. *)

val write_response : Ace_util.Bytesio.writer -> response -> unit

type header = { h_type : int; h_len : int }

val parse_header : string -> (header, error_code * string) result
(** [s] must hold at least {!frame_header_bytes} bytes. *)

val decode_request : int -> string -> (request, error_code * string) result
(** [decode_request tag payload]; errors are always [Bad_payload]-class
    with framing intact. *)

val decode_response : int -> string -> (response, error_code * string) result

(** {1 Blocking I/O helpers (client / test side)} *)

val write_all : Unix.file_descr -> string -> unit

val read_frame : Unix.file_descr -> (header * string, error_code * string) result
(** Blocking read of one header + payload. [Bad_frame] on EOF. *)

val read_response : Unix.file_descr -> (response, error_code * string) result

(** {1 Compiled-schedule artifacts} *)

type artifact = {
  art_spec : string;  (** canonical model spec *)
  art_hash : string;
  art_strategy : Pipeline.strategy;
  art_batch : int;
  art_cplx : Ace_ckks_ir.Ckks_cplx.info option;
  art_params : Ace_fhe.Context.params;
  art_ckks : Ace_ir.Irfunc.t;
  art_input_layout : Ace_vector.Layout.t;
  art_output_layouts : Ace_vector.Layout.t list;
  art_lazy : Ace_ckks_ir.Ckks_lazy.stats;
}

val artifact_hash :
  spec:string -> strategy:Pipeline.strategy -> batch:int -> complex:bool -> string
(** Hex cache key; covers the spec, every strategy field, the batch and
    complex factors, and the wire/IR format versions. *)

val artifact_of_compiled : spec:string -> hash:string -> Pipeline.compiled -> artifact
val compiled_of_artifact : artifact -> Pipeline.compiled

val encode_artifact : artifact -> string
(** One allocation of exactly the artifact's size. *)

val write_artifact : Ace_util.Bytesio.writer -> artifact -> unit
(** The bytes of {!encode_artifact}, written to any writer. *)

val decode_artifact : string -> (artifact, string) result
