(** A connection's pending input or output bytes, consumed by offset.

    Taking a frame or a written chunk only advances a start index. Live
    bytes move to the front only when the tail is full and the consumed
    prefix is at least half the filled part; otherwise the buffer
    doubles. So draining k pipelined frames copies O(total) bytes, not
    O(k x buffered). *)

type t

val create : unit -> t

val length : t -> int
(** Bytes held and not yet consumed. *)

val add_string : t -> string -> unit

val sub : t -> int -> int -> string
(** [sub q off n]: [n] bytes starting [off] bytes past the first unconsumed
    one. @raise Invalid_argument outside [0, length q]. *)

val consume : t -> int -> unit
(** Drop the first [n] bytes. Once empty, a queue that grew past 1 MB (a
    key upload) goes back to its initial size. *)

val read : t -> Unix.file_descr -> int
(** One [Unix.read] of up to 64 KB appended to the queue; returns the
    byte count (0 at end of file). Unix errors propagate. *)

val write : t -> Unix.file_descr -> int
(** One [Unix.write] of the queued bytes; consumes and returns what the
    socket took. Unix errors propagate and consume nothing. *)
