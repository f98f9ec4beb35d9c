(** Pure helpers of the ace-bench benchmark: order statistics, the seeded
    arrival schedule, the regression classification of [ace_bench compare],
    the reader for the daemon's flushed metrics, and the result record.
    Everything here is deterministic and free of I/O except the line
    readers, so the unit tests exercise it directly. *)

(** {1 Order statistics} *)

val median : float list -> float
(** Python's [statistics.median]: the middle value, or the mean of the two
    middle values. [nan] on an empty list. *)

val quartiles : float list -> float * float * float
(** [(q1, median, q3)] exactly as Python's [statistics.quantiles(xs, n=4)]
    (the default exclusive method) gives the outer two. A single value is
    its own three quartiles. *)

val rel_spread : float list -> float
(** [(q3 - q1) / |median|], the run-to-run spread a bound is held to. *)

val percentile : float array -> float -> float
(** [percentile sorted q]: nearest-rank [q]-quantile of an ascending array
    (the smallest sample with at least [q * n] samples at or below it). *)

val tail_rank : int -> float option
(** The highest of p99.9, p99, p95 and p90 that leaves at least ten of [n]
    samples beyond it, or [None] when [n < 100]. *)

val tail : (float * float) list -> float * float
(** [tail samples] is [(q, value)] for [(time, value)] samples: the
    time span is cut into five equal parts, each part's
    {!tail_rank} percentile for [n / 5] samples is taken, and the
    median of those is reported, so a host stall in one part of a run
    does not decide the tail. With too few samples for any tail
    percentile the tail is the median of all samples ([q = 0.5]): the
    maximum of a few samples mostly measures the host's worst moment. *)

(** {1 Arrival schedule} *)

val poisson_schedule : seed:int -> rate:float -> duration:float -> float array
(** Send offsets in seconds, ascending, in [\[0, duration)]: a Poisson
    process of [rate] arrivals per second conditioned on its expected
    count [round (rate * duration)] (uniform arrival times, sorted). The
    same arguments give the same schedule. *)

(** {1 Regression classification} *)

type verdict = Improved | Unchanged | Regressed | Unresolved

val verdict_name : verdict -> string

val classify :
  lower_is_better:bool -> bound:float -> base:float list -> change:float list -> verdict
(** One (end-to-end metric, workload) pair, parent runs [base] against
    changed runs [change]:
    - [Unresolved] when either side's {!rel_spread} exceeds [bound],
      unless every changed run beats every parent run ([Improved]);
    - [Regressed] when the changed median is worse by more than [bound]
      as a share of the parent median;
    - [Improved] when it is better by more than the parent's
      interquartile distance;
    - [Unchanged] otherwise. *)

(** {1 Flushed daemon metrics} *)

type flushed = { f_count : int; f_sketch : Ace_telemetry.Qsketch.t option }

val merge_jsonl : ?since:float -> string list -> (string * flushed) list * int
(** Merge the metric lines the telemetry flusher appends to
    [ACE_METRICS_PATH] (one JSON object per line: counter deltas plus
    serialized sketches of one window). Lines stamped at or before
    [since] are skipped. Returns the merged metrics sorted by name and the
    summed [dropped_events]. Blank lines are ignored.
    @raise Failure on a line that is not a flush line. *)

val flushed_sum : (string * flushed) list -> string -> float
val flushed_count : (string * flushed) list -> string -> int
(** Counter, or the sketch's sample count when the metric only observes. *)

val flushed_quantile : (string * flushed) list -> string -> float -> float
(** 0 when the metric never flushed a sample. *)

(** {1 Host} *)

val cpu_list : string -> int list
(** CPUs of a kernel CPU list such as ["0-1,4"] (the [Cpus_allowed_list]
    of [/proc/PID/status]), in order. *)

(** {1 Files} *)

val input_lines : in_channel -> string list
(** Every remaining line, until end of file. *)

val read_lines : string -> string list
