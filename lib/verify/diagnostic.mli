(** Typed verifier diagnostics.

    Every rejection the cross-level verifier can produce is a value of
    {!t}: a machine-matchable {!kind}, the pipeline pass that produced the
    IR under scrutiny, the IR level, the offending node (when one exists)
    and a human-readable message. Tests match on [d_kind] and [d_node];
    humans read [to_string]. A corrupted program must surface as a
    diagnostic — never as a crash in the verifier itself and never as a
    silently wrong answer downstream. *)

type kind =
  | No_returns  (** function returns nothing *)
  | Undefined_value  (** argument id out of range or not an earlier node *)
  | Multiple_definition  (** node id does not match its program position *)
  | Arity_mismatch
  | Type_mismatch  (** per-opcode operand/result typing rules *)
  | Level_violation  (** op from the wrong IR level in this function *)
  | Slot_mismatch  (** vector length exceeds the context's slot count *)
  | Scale_mismatch  (** CKKS scale annotation disagrees with the derived value *)
  | Level_mismatch  (** CKKS modulus-level annotation disagrees / underflows *)
  | Limb_mismatch  (** limb count inconsistent with the modulus level *)
  | Missing_rotation_key  (** rotation step absent from the keygen plan *)
  | Batch_aliasing  (** ill-formed hoisted-rotation bundle access *)
  | Bootstrap_range  (** bootstrap target outside [1 .. chain depth] *)
  | Schedule_violation  (** release plan breaks the liveness rules *)

type t = {
  d_kind : kind;
  d_pass : string;  (** pipeline stage, e.g. ["ckks"], ["keys"], ["sched"] *)
  d_level : Ace_ir.Level.t;  (** IR level of the function examined *)
  d_node : int option;  (** offending node id, when one exists *)
  d_message : string;
}

val kind_name : kind -> string
val make : kind -> pass:string -> level:Ace_ir.Level.t -> ?node:int -> string -> t
val to_string : t -> string
val pp : Format.formatter -> t -> unit
