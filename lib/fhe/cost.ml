(* Compatibility facade over Ace_telemetry: the categories below map to
   telemetry metrics named "fhe.<category>" and phases to
   "phase.<name>", so counters are per-domain (merged on read) instead
   of the pre-telemetry racy globals, and every timed evaluator op also
   shows up as a span when tracing is on. *)

module Telemetry = Ace_telemetry.Telemetry

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

let all_categories =
  [ Add; Mult; Mult_plain; Rotate; Relinearize; Rescale; Bootstrap; Key_switch; Encode; Encrypt; Decrypt ]

let category_name = function
  | Add -> "add"
  | Mult -> "mult"
  | Mult_plain -> "mult_plain"
  | Rotate -> "rotate"
  | Relinearize -> "relinearize"
  | Rescale -> "rescale"
  | Bootstrap -> "bootstrap"
  | Key_switch -> "key_switch"
  | Encode -> "encode"
  | Encrypt -> "encrypt"
  | Decrypt -> "decrypt"

let fhe_metric c = Telemetry.metric ("fhe." ^ category_name c)

(* Handles are dense and registration is idempotent; pre-register so the
   hot path is a plain array lookup. *)
let metrics = List.map (fun c -> (c, fhe_metric c)) all_categories
let metric_of c = List.assq c metrics

let phase_prefix = "phase."
let phase_metric name = Telemetry.metric (phase_prefix ^ name)

let reset () = Telemetry.reset_metrics ()

let count c = Telemetry.incr (metric_of c)

(* Busy time only: an operation suspended at a {!Job.pause} is not
   charged for the time other work ran in between. *)
let timed c f =
  let m = metric_of c in
  Telemetry.incr m;
  let t0 = Unix.gettimeofday () in
  let idle0 = Job.idle () in
  let finish () =
    let dt = Unix.gettimeofday () -. t0 -. (Job.idle () -. idle0) in
    Telemetry.observe m dt;
    Telemetry.emit_span ~cat:"fhe" ~name:("fhe." ^ category_name c) ~t0 ~dur:dt ()
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let get_count c = Telemetry.count_of (metric_of c)
let get_time c = Telemetry.sum_of (metric_of c)

let add_phase_time name dt = Telemetry.observe (phase_metric name) dt
let phase_time name = Telemetry.sum_of (phase_metric name)

let phase_names () =
  List.filter_map
    (fun n ->
      let k = String.length phase_prefix in
      if String.length n > k && String.sub n 0 k = phase_prefix then
        Some (String.sub n k (String.length n - k))
      else None)
    (Telemetry.metric_names ())

let report () =
  List.filter_map
    (fun c ->
      let n = get_count c in
      if n = 0 then None else Some (category_name c, n, get_time c))
    all_categories

let poly_bytes ~ring_degree ~limbs = ring_degree * limbs * 8
let ciphertext_bytes ~ring_degree ~limbs = 2 * poly_bytes ~ring_degree ~limbs

let switching_key_bytes ~ring_degree ~digits ~key_limbs =
  digits * 2 * poly_bytes ~ring_degree ~limbs:key_limbs
