(** Compile-time statistics: IR sizes per level, constant-pool volume,
    rotation/bootstrap inventories. Feeds the Figure 5 narrative and the
    Section 4.5 size comparison (POLY-IR lines vs generated C lines). *)

type t = {
  model : string;
  nodes_per_level : (Ace_ir.Level.t * int) list;
  lines_per_level : (Ace_ir.Level.t * int) list;
  poly_stmts : int;
  c_lines : int;
  const_floats : int;
  rotations : int;
  distinct_rotation_steps : int;
  bootstraps : int;
  ct_mults : int;
  pt_mults : int;
  rescales : int;
  relins : int;  (** relinearisations surviving the lazy pass *)
  relins_eliminated : int;  (** eager minus lazy relin count (0 when off) *)
  rescales_eliminated : int;
  deg2_high_water : int;
      (** peak simultaneously-live degree-2 ciphertexts in program order *)
  runtime_domains : int;
      (** domain-pool size the encrypted run will use ([ACE_DOMAINS]) *)
  batch : int;  (** slot regions = independent requests per ciphertext *)
  requests_per_ct : int;  (** batch, doubled under complex packing *)
  slot_utilization : float;
      (** payload slots x requests / ring slot capacity, in [0, 1+]:
          batching fills idle regions, complex packing doubles payload *)
  cplx_regions : int;  (** complex-packed regions (0 when [ACE_CPLX] off) *)
  cplx_packed_ops : int;  (** cipher ops executed once on packed streams *)
  cplx_split_ops : int;  (** cipher ops duplicated per stream *)
  placement : Ace_ckks_ir.Lower_sihe.decision list;
      (** the tower height priced for each operator ({!Pipeline.compiled}) *)
}

val of_compiled : Pipeline.compiled -> t
(** Runs {!Pipeline.emit_c} for [poly_stmts] and [c_lines], so it costs
    about as much as the C export. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> string
(** One JSON object (no trailing newline), embedded by [bench --json] so
    BENCH artifacts are self-describing. *)

(** {1 Cost-model calibration}

    Runtime accountability of {!Ace_codegen.Sched.node_ns}: the VM
    records, per op category, the distribution of measured / predicted
    busy-time ratios ([calib.<category>] metrics — see
    {!Ace_codegen.Vm}). A snapshot of those metrics folds into this
    table: the reference is the sample-weighted mean ratio across op
    categories, and each category's error ratio is its own ratio against
    that reference — 1.0 everywhere means the model's RATIOS (what the
    serving daemon's pick rule compares) are exact, and a reference of
    1.0 means its absolute scale is too. *)

type calibration_row = {
  cal_category : string;  (** {!Ace_codegen.Sched.node_category} *)
  cal_samples : int;
  cal_ratio_p50 : float;  (** measured / predicted *)
  cal_ratio_p99 : float;
  cal_ratio_mean : float;
  cal_error_ratio_p50 : float;  (** p50 ratio / reference *)
  cal_error_ratio_p99 : float;
}

type calibration = {
  cal_reference_ratio : float;
      (** sample-weighted mean measured/predicted ratio over op
          categories; 0 when no samples *)
  cal_rows : calibration_row list;  (** sorted by category name *)
}

val calibration_of_snapshot : Ace_telemetry.Telemetry.snapshot -> calibration
(** Extract every [calib.*] metric from a (possibly windowed) snapshot. *)

val calibration_to_json : calibration -> string
(** One JSON object (no trailing newline) — the [cost_model_calibration]
    block of BENCH artifacts. *)
