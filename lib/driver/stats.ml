open Ace_ir

type t = {
  model : string;
  nodes_per_level : (Level.t * int) list;
  lines_per_level : (Level.t * int) list;
  poly_stmts : int;
  c_lines : int;
  const_floats : int;
  rotations : int;
  distinct_rotation_steps : int;
  bootstraps : int;
  ct_mults : int;
  pt_mults : int;
  rescales : int;
  relins : int;
  relins_eliminated : int;
  rescales_eliminated : int;
  deg2_high_water : int;
  runtime_domains : int;
  batch : int;
  requests_per_ct : int;
  slot_utilization : float;
  cplx_regions : int;
  cplx_packed_ops : int;
  cplx_split_ops : int;
}

let count_op f pred = Irfunc.fold f ~init:0 ~f:(fun acc n -> if pred n.Irfunc.op then acc + 1 else acc)

let of_compiled (c : Pipeline.compiled) =
  let ckks = c.Pipeline.ckks in
  let poly, c_source = Pipeline.emit_c c in
  {
    model = Irfunc.name c.Pipeline.nn;
    nodes_per_level =
      [
        (Level.Nn, Irfunc.num_nodes c.Pipeline.nn);
        (Level.Vector, Irfunc.num_nodes c.Pipeline.vec);
        (Level.Sihe, Irfunc.num_nodes c.Pipeline.sihe);
        (Level.Ckks, Irfunc.num_nodes ckks);
      ];
    lines_per_level =
      [
        (Level.Nn, Printer.line_count c.Pipeline.nn);
        (Level.Vector, Printer.line_count c.Pipeline.vec);
        (Level.Sihe, Printer.line_count c.Pipeline.sihe);
        (Level.Ckks, Printer.line_count ckks);
      ];
    poly_stmts = Ace_poly_ir.Poly_ir.stmt_count poly;
    c_lines = Ace_codegen.C_backend.line_count c_source;
    const_floats =
      List.fold_left
        (fun acc name -> acc + Array.length (Irfunc.const ckks name))
        0 (Irfunc.const_names ckks);
    rotations =
      (* A hoisted batch performs one key-switch application per step, so
         each step counts as a rotation. *)
      Irfunc.fold ckks ~init:0 ~f:(fun acc n ->
          match n.Irfunc.op with
          | Op.C_rotate _ -> acc + 1
          | Op.C_rotate_batch steps -> acc + Array.length steps
          | _ -> acc);
    distinct_rotation_steps = List.length (Ace_ckks_ir.Lower_sihe.rotation_amounts ckks);
    bootstraps = Ace_ckks_ir.Lower_sihe.bootstrap_count ckks;
    (* A ct*ct multiply is a C_mul whose second operand is a ciphertext;
       counting C_relin instead undercounts once relinearisation is lazy
       (one deferred relin can close a whole accumulation tree). *)
    ct_mults =
      Irfunc.fold ckks ~init:0 ~f:(fun acc n ->
          match n.Irfunc.op with
          | Op.C_mul
            when Types.is_ciphertext (Irfunc.node ckks n.Irfunc.args.(1)).Irfunc.ty ->
            acc + 1
          | _ -> acc);
    pt_mults =
      Irfunc.fold ckks ~init:0 ~f:(fun acc n ->
          match n.Irfunc.op with
          | Op.C_mul
            when not (Types.is_ciphertext (Irfunc.node ckks n.Irfunc.args.(1)).Irfunc.ty) ->
            acc + 1
          | _ -> acc);
    rescales = count_op ckks (function Op.C_rescale -> true | _ -> false);
    relins = c.Pipeline.lazy_stats.Ace_ckks_ir.Ckks_lazy.relins_lazy;
    relins_eliminated =
      c.Pipeline.lazy_stats.Ace_ckks_ir.Ckks_lazy.relins_eager
      - c.Pipeline.lazy_stats.Ace_ckks_ir.Ckks_lazy.relins_lazy;
    rescales_eliminated =
      c.Pipeline.lazy_stats.Ace_ckks_ir.Ckks_lazy.rescales_eager
      - c.Pipeline.lazy_stats.Ace_ckks_ir.Ckks_lazy.rescales_lazy;
    deg2_high_water = c.Pipeline.lazy_stats.Ace_ckks_ir.Ckks_lazy.deg2_high_water;
    runtime_domains = Pipeline.runtime_domains ();
    batch = c.Pipeline.batch;
    requests_per_ct = Pipeline.requests_per_ct c;
    slot_utilization =
      (* data slots actually carrying request payload vs the ring's slot
         capacity: batching fills idle regions, complex packing doubles
         each slot's payload *)
      (let l = c.Pipeline.input_layout in
       let data = l.Ace_vector.Layout.channels * l.Ace_vector.Layout.height * l.Ace_vector.Layout.width in
       let slots = Ace_fhe.Context.slots c.Pipeline.context in
       float_of_int (data * Pipeline.requests_per_ct c) /. float_of_int slots);
    cplx_regions =
      (match c.Pipeline.cplx with
      | None -> 0
      | Some i -> i.Ace_ckks_ir.Ckks_cplx.stats.Ace_ckks_ir.Ckks_cplx.regions);
    cplx_packed_ops =
      (match c.Pipeline.cplx with
      | None -> 0
      | Some i -> i.Ace_ckks_ir.Ckks_cplx.stats.Ace_ckks_ir.Ckks_cplx.packed_nodes);
    cplx_split_ops =
      (match c.Pipeline.cplx with
      | None -> 0
      | Some i -> i.Ace_ckks_ir.Ckks_cplx.stats.Ace_ckks_ir.Ckks_cplx.split_nodes);
  }

let to_json s =
  let buf = Buffer.create 512 in
  let level_list l =
    String.concat ", "
      (List.map (fun (lv, n) -> Printf.sprintf "\"%s\": %d" (Level.to_string lv) n) l)
  in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"model\": \"%s\", \"nodes_per_level\": {%s}, \"lines_per_level\": {%s}, \
        \"poly_stmts\": %d, \"c_lines\": %d, \"const_floats\": %d, \"rotations\": %d, \
        \"distinct_rotation_steps\": %d, \"bootstraps\": %d, \"ct_mults\": %d, \"pt_mults\": %d, \
        \"rescales\": %d, \"relins\": %d, \"relins_eliminated\": %d, \
        \"rescales_eliminated\": %d, \"deg2_high_water\": %d, \"runtime_domains\": %d,         \"batch\": %d, \"requests_per_ct\": %d, \"slot_utilization\": %.4f,         \"cplx_regions\": %d, \"cplx_packed_ops\": %d, \"cplx_split_ops\": %d}"
       (String.escaped s.model)
       (level_list s.nodes_per_level)
       (level_list s.lines_per_level)
       s.poly_stmts s.c_lines s.const_floats s.rotations s.distinct_rotation_steps s.bootstraps
       s.ct_mults s.pt_mults s.rescales s.relins s.relins_eliminated s.rescales_eliminated
       s.deg2_high_water s.runtime_domains s.batch s.requests_per_ct s.slot_utilization
       s.cplx_regions s.cplx_packed_ops s.cplx_split_ops);
  Buffer.contents buf

(* ---------- cost-model calibration (runtime accountability) ---------- *)

module Telemetry = Ace_telemetry.Telemetry

type calibration_row = {
  cal_category : string;
  cal_samples : int;
  cal_ratio_p50 : float;
  cal_ratio_p99 : float;
  cal_ratio_mean : float;
  cal_error_ratio_p50 : float;
  cal_error_ratio_p99 : float;
}

type calibration = { cal_reference_ratio : float; cal_rows : calibration_row list }

let calib_prefix = "calib."

let calibration_of_snapshot (snap : Telemetry.snapshot) =
  let rows =
    List.filter_map
      (fun (st : Telemetry.metric_stats) ->
        let n = String.length calib_prefix in
        if
          String.length st.Telemetry.st_name > n
          && String.sub st.Telemetry.st_name 0 n = calib_prefix
          && st.Telemetry.st_count > 0
        then
          Some
            ( String.sub st.Telemetry.st_name n (String.length st.Telemetry.st_name - n),
              st )
        else None)
      snap.Telemetry.snap_metrics
  in
  (* Reference: the sample-weighted mean measured/predicted ratio over
     categories. A perfectly proportional cost model puts every
     category's error ratio at 1.0. *)
  let wsum, wn =
    List.fold_left
      (fun (s, n) ((_, st) : string * Telemetry.metric_stats) ->
        (s +. st.Telemetry.st_total, n + st.Telemetry.st_count))
      (0.0, 0) rows
  in
  let reference = if wn = 0 then 0.0 else wsum /. float_of_int wn in
  let ratio v = if reference > 0.0 then v /. reference else 0.0 in
  {
    cal_reference_ratio = reference;
    cal_rows =
      List.map
        (fun ((cat, st) : string * Telemetry.metric_stats) ->
          {
            cal_category = cat;
            cal_samples = st.Telemetry.st_count;
            cal_ratio_p50 = st.Telemetry.st_p50;
            cal_ratio_p99 = st.Telemetry.st_p99;
            cal_ratio_mean =
              (if st.Telemetry.st_count = 0 then 0.0
               else st.Telemetry.st_total /. float_of_int st.Telemetry.st_count);
            cal_error_ratio_p50 = ratio st.Telemetry.st_p50;
            cal_error_ratio_p99 = ratio st.Telemetry.st_p99;
          })
        (List.sort compare rows);
  }

let calibration_to_json cal =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "{\"reference_ratio\": %.4f, \"categories\": {"
       cal.cal_reference_ratio);
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf
        (Printf.sprintf
           "\"%s\": {\"samples\": %d, \"ratio_p50\": %.4f, \"ratio_p99\": %.4f, \
            \"ratio_mean\": %.4f, \"error_ratio_p50\": %.4f, \"error_ratio_p99\": %.4f}"
           (String.escaped r.cal_category) r.cal_samples r.cal_ratio_p50
           r.cal_ratio_p99 r.cal_ratio_mean r.cal_error_ratio_p50
           r.cal_error_ratio_p99))
    cal.cal_rows;
  Buffer.add_string buf "}}";
  Buffer.contents buf

let pp fmt s =
  Format.fprintf fmt "@[<v>model %s@," s.model;
  List.iter
    (fun (l, n) -> Format.fprintf fmt "  %-6s nodes=%d@," (Level.to_string l) n)
    s.nodes_per_level;
  Format.fprintf fmt "  POLY stmts=%d, C lines=%d, consts=%d floats@," s.poly_stmts s.c_lines
    s.const_floats;
  Format.fprintf fmt
    "  rotations=%d (distinct steps %d), bootstraps=%d, ct-mults=%d, pt-mults=%d, rescales=%d@,"
    s.rotations s.distinct_rotation_steps s.bootstraps s.ct_mults s.pt_mults s.rescales;
  Format.fprintf fmt
    "  relins=%d (eliminated %d), rescales eliminated=%d, deg2 high-water=%d@," s.relins
    s.relins_eliminated s.rescales_eliminated s.deg2_high_water;
  Format.fprintf fmt
    "  batch=%d (requests/ct %d), slot utilization=%.1f%%, cplx regions=%d (packed %d / split %d)@,"
    s.batch s.requests_per_ct (100.0 *. s.slot_utilization) s.cplx_regions s.cplx_packed_ops
    s.cplx_split_ops;
  Format.fprintf fmt "  runtime domains=%d@,@]" s.runtime_domains
