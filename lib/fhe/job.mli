(** Resumable evaluator operations.

    A long evaluator operation (a key switch, a hoisted rotation batch)
    marks the boundaries between its pieces with {!pause}. Run through
    {!run}, the operation suspends at the first boundary reached once
    the wall clock has passed the deadline, and {!resume} continues it
    where it stopped. Called directly, {!pause} does nothing, so the
    blocking operation and the resumable one are the same code.
    Suspension is an effect: a piece boundary must not sit inside a
    {!Ace_util.Domain_pool} parallel body. *)

type 'a t
(** A suspended computation producing ['a]. *)

type 'a outcome = Done of 'a | Paused of 'a t

val run : until:float -> (unit -> 'a) -> 'a outcome
(** Run a computation until it finishes, or until it reaches a {!pause}
    with [Unix.gettimeofday () >= until]. [until = neg_infinity] runs one
    piece; [infinity] runs to the end. Exceptions propagate. *)

val resume : 'a t -> until:float -> 'a outcome
(** Continue a suspended computation, with a new deadline.
    @raise Invalid_argument if it was already resumed or aborted. *)

val abort : 'a t -> unit
(** Drop a suspended computation: {!Aborted} is raised at its {!pause},
    so every {!guard} on the way out releases what it holds.
    @raise Invalid_argument if it was already resumed or aborted. *)

val pause : unit -> unit
(** A piece boundary. A no-op outside {!run}/{!resume}. *)

exception Aborted
(** Raised at the {!pause} of an {!abort}ed computation. *)

val guard : cleanup:(unit -> unit) -> (unit -> 'a) -> 'a
(** [guard ~cleanup f] is [f ()], except that if [f] is aborted, [cleanup]
    runs before {!Aborted} goes on. Other exceptions pass untouched. *)

val idle : unit -> float
(** Seconds the computation running on this domain has spent suspended
    so far (0.0 outside any computation). A timer that subtracts the
    change in [idle] over its span measures busy time only. *)
