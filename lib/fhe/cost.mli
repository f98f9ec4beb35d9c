(** Operation counters, wall-clock accounting and memory estimation.

    The evaluation harness (paper Figures 6 and 7) needs per-phase
    breakdowns: time spent in convolutions vs bootstrapping vs ReLU, and
    bytes held by evaluation keys. Evaluator operations report themselves
    here; benchmark drivers additionally push a phase label so the same
    homomorphic ops are attributed to the NN operator that issued them. *)

type category =
  | Add
  | Mult
  | Mult_plain
  | Rotate
  | Relinearize
  | Rescale
  | Bootstrap
  | Key_switch
  | Encode
  | Encrypt
  | Decrypt

val all_categories : category list
val category_name : category -> string

val reset : unit -> unit

val count : category -> unit
val timed : category -> (unit -> 'a) -> 'a
(** Count one occurrence and attribute its wall-clock time, less any
    time spent suspended ({!Job.idle}). *)

val get_count : category -> int
val get_time : category -> float

(** {1 Phase attribution} *)

val add_phase_time : string -> float -> unit
(** Credit wall-clock seconds to a named phase. The execution backend is
    the single attribution point, so category timers and phase totals stay
    independent (no double counting). *)

val phase_time : string -> float
val phase_names : unit -> string list

val report : unit -> (string * int * float) list
(** Per-category (name, count, seconds); only non-zero rows. *)

(** {1 Memory estimation} *)

val poly_bytes : ring_degree:int -> limbs:int -> int
val ciphertext_bytes : ring_degree:int -> limbs:int -> int
val switching_key_bytes : ring_degree:int -> digits:int -> key_limbs:int -> int
