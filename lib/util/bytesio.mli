(** Little-endian binary readers/writers for the stable wire formats.

    Every serialized artifact in the system — ciphertexts, evaluation
    keys, compiled schedules, protocol frames — is built from these
    primitives, so the byte layout is fixed here once: all integers are
    little-endian, 64-bit values are two's complement, floats are IEEE-754
    binary64 bit patterns, strings and arrays are length-prefixed. No
    [Marshal] anywhere: the encoding is stable across OCaml versions,
    architectures and process runs, which is what lets artifacts persist
    on disk and cross process/machine boundaries.

    Readers NEVER trust the input: every primitive bounds-checks and
    raises the typed {!Error} on truncation or on length prefixes that
    exceed the remaining buffer, so a corrupted or hostile byte stream
    yields a typed decode failure, not a crash or an oversized
    allocation. Codecs catch {!Error} at their entry points and surface
    [result] values. *)

exception Error of string
(** Typed decode failure: truncated buffer, length prefix past the end,
    or a value outside the codec's domain. Never escapes the [decode_*]
    entry points of the codec modules built on top. *)

(** {1 Writing} *)

type writer

val writer : unit -> writer
(** A growable writer; {!contents} copies out what it holds. *)

val contents : writer -> string

val encode : (writer -> unit) -> string
(** [encode f] runs [f] twice: a counting pass that stores nothing, then
    a pass into one buffer of exactly the counted size, which becomes the
    result without a copy. Returns the bytes [f] writes to a growable
    writer. [f] must write the same bytes both times (codecs do);
    @raise Invalid_argument if the two passes differ in length. *)

val size : (writer -> unit) -> int
(** The byte count [f] writes, from a counting pass alone. *)

val w_u8 : writer -> int -> unit
(** [0 .. 255]; @raise Invalid_argument outside. *)

val w_u16 : writer -> int -> unit
val w_u32 : writer -> int -> unit
(** [0 .. 2^32-1] ([u32] values ride in OCaml ints). *)

val w_i64 : writer -> int -> unit
(** Full native int range as a 64-bit two's-complement word. *)

val w_f64 : writer -> float -> unit
val w_bool : writer -> bool -> unit

val w_string : writer -> string -> unit
(** u32 byte length, then the bytes. *)

val w_bytes : writer -> string -> unit
(** Raw bytes, no length prefix (for fixed-size fields and magics). *)

val w_int_array : writer -> int array -> unit
(** u32 element count, then each element as i64. *)

val w_i64s : writer -> int array -> unit
(** Each element as i64, no count prefix (for rows of a known length). *)

val w_float_array : writer -> float array -> unit

(** {1 Reading} *)

type reader

val reader : string -> reader
val pos : reader -> int
val remaining : reader -> int

val r_u8 : reader -> int
val r_u16 : reader -> int
val r_u32 : reader -> int
val r_i64 : reader -> int
val r_f64 : reader -> float
val r_bool : reader -> bool
val r_string : reader -> string
val r_bytes : reader -> int -> string
val r_int_array : reader -> int array
val r_float_array : reader -> float array

val r_end : reader -> unit
(** @raise Error unless the reader consumed the whole buffer — trailing
    garbage is a decode failure, not padding. *)

val decode : (reader -> 'a) -> string -> ('a, string) result
(** Run a decoder over a whole buffer (including the {!r_end} check),
    catching {!Error} into [Error msg]. The standard entry point shape
    for every codec. *)
