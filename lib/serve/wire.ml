module B = Ace_util.Bytesio
module Fhe_wire = Ace_fhe.Fhe_wire
module Ir_wire = Ace_ckks_ir.Ir_wire
module Pipeline = Ace_driver.Pipeline
module Layout = Ace_vector.Layout
module Ckks_cplx = Ace_ckks_ir.Ckks_cplx
module Ckks_lazy = Ace_ckks_ir.Ckks_lazy

let proto_version = 1
let frame_magic = "ACEP"
let frame_header_bytes = 11
let max_payload_bytes = 256 * 1024 * 1024

type error_code =
  | Bad_magic
  | Bad_version
  | Bad_frame
  | Bad_payload
  | Unknown_model
  | No_session
  | Overloaded_err
  | Draining
  | Internal

let error_code_tag = function
  | Bad_magic -> 0
  | Bad_version -> 1
  | Bad_frame -> 2
  | Bad_payload -> 3
  | Unknown_model -> 4
  | No_session -> 5
  | Overloaded_err -> 6
  | Draining -> 7
  | Internal -> 8

let error_code_of_tag = function
  | 0 -> Bad_magic
  | 1 -> Bad_version
  | 2 -> Bad_frame
  | 3 -> Bad_payload
  | 4 -> Unknown_model
  | 5 -> No_session
  | 6 -> Overloaded_err
  | 7 -> Draining
  | 8 -> Internal
  | n -> raise (B.Error (Printf.sprintf "unknown error code tag %d" n))

let error_code_name = function
  | Bad_magic -> "bad_magic"
  | Bad_version -> "bad_version"
  | Bad_frame -> "bad_frame"
  | Bad_payload -> "bad_payload"
  | Unknown_model -> "unknown_model"
  | No_session -> "no_session"
  | Overloaded_err -> "overloaded"
  | Draining -> "draining"
  | Internal -> "internal"

type model_info = {
  mi_name : string;
  mi_hash : string;
  mi_params : Ace_fhe.Context.params;
  mi_batch : int;
  mi_requests_per_ct : int;
  mi_cplx : bool;
  mi_output_mults : float list;
  mi_rotation_steps : int list;
  mi_input_layout : Layout.t;
  mi_output_layouts : Layout.t list;
  mi_predicted_units : float;
  mi_from_cache : bool;
}

type request =
  | Hello of { client : string }
  | Describe of { model : string }
  | Put_keys of { tenant : string; model : string; oracle_seed : int; keys : string }
  | Infer of {
      tenant : string;
      model : string;
      request_id : string;
      region : int;
      coalesce : bool;
      ct : string;
    }
  | Get_stats
  | Reload of { model : string }
  | Drain

type stats = {
  sv_queue_depth : int;
  sv_queued_units : float;
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
  | Err of { code : error_code; message : string }
  | Stats_ok of stats
  | Reloaded of { model : string; from_cache : bool }
  | Drain_ok

(* ------------------------------------------------------------------ *)
(* Shared sub-codecs                                                   *)

let w_string_list w l =
  B.w_u16 w (List.length l);
  List.iter (B.w_string w) l

let r_string_list r =
  let n = B.r_u16 r in
  List.init n (fun _ -> B.r_string r)

let w_float_list w l =
  B.w_u16 w (List.length l);
  List.iter (B.w_f64 w) l

let r_float_list r =
  let n = B.r_u16 r in
  List.init n (fun _ -> B.r_f64 r)

let write_layout w (l : Layout.t) =
  B.w_u32 w l.Layout.channels;
  B.w_u32 w l.height;
  B.w_u32 w l.width;
  B.w_u32 w l.gap;
  B.w_u32 w l.phys_h;
  B.w_u32 w l.phys_w;
  B.w_u32 w l.slots;
  B.w_u32 w l.batch

let read_layout r : Layout.t =
  let field what =
    let v = B.r_u32 r in
    if v < 1 then raise (B.Error (Printf.sprintf "layout %s %d < 1" what v));
    v
  in
  let channels = field "channels" in
  let height = field "height" in
  let width = field "width" in
  let gap = field "gap" in
  let phys_h = field "phys_h" in
  let phys_w = field "phys_w" in
  let slots = field "slots" in
  let batch = field "batch" in
  if slots land (slots - 1) <> 0 then
    raise (B.Error (Printf.sprintf "layout slots %d not a power of two" slots));
  if batch > slots || slots mod batch <> 0 then
    raise (B.Error (Printf.sprintf "layout batch %d does not divide slots %d" batch slots));
  { Layout.channels; height; width; gap; phys_h; phys_w; slots; batch }

let write_strategy w (s : Pipeline.strategy) =
  B.w_string w s.Pipeline.strategy_name;
  B.w_bool w s.conv_regroup;
  B.w_bool w s.gemm_bsgs;
  B.w_bool w s.lazy_rescale;
  B.w_bool w s.lazy_passes;
  B.w_bool w s.min_level_bootstrap;
  B.w_bool w s.pruned_keys;
  B.w_bool w s.hoist_rotations;
  B.w_u16 w s.relu_alpha;
  B.w_u16 w s.chain_depth

let read_strategy r : Pipeline.strategy =
  let strategy_name = B.r_string r in
  let conv_regroup = B.r_bool r in
  let gemm_bsgs = B.r_bool r in
  let lazy_rescale = B.r_bool r in
  let lazy_passes = B.r_bool r in
  let min_level_bootstrap = B.r_bool r in
  let pruned_keys = B.r_bool r in
  let hoist_rotations = B.r_bool r in
  let relu_alpha = B.r_u16 r in
  let chain_depth = B.r_u16 r in
  if chain_depth < 1 then raise (B.Error "strategy chain_depth < 1");
  {
    Pipeline.strategy_name;
    conv_regroup;
    gemm_bsgs;
    lazy_rescale;
    lazy_passes;
    min_level_bootstrap;
    pruned_keys;
    hoist_rotations;
    relu_alpha;
    chain_depth;
  }

let write_cplx_stats w (s : Ckks_cplx.stats) =
  B.w_u32 w s.Ckks_cplx.packed_nodes;
  B.w_u32 w s.split_nodes;
  B.w_u32 w s.pack_ops;
  B.w_u32 w s.unpack_ops;
  B.w_u32 w s.regions;
  B.w_u32 w s.regions_refused

let read_cplx_stats r : Ckks_cplx.stats =
  let packed_nodes = B.r_u32 r in
  let split_nodes = B.r_u32 r in
  let pack_ops = B.r_u32 r in
  let unpack_ops = B.r_u32 r in
  let regions = B.r_u32 r in
  let regions_refused = B.r_u32 r in
  { Ckks_cplx.packed_nodes; split_nodes; pack_ops; unpack_ops; regions; regions_refused }

let write_cplx_info w (i : Ckks_cplx.info) =
  write_cplx_stats w i.Ckks_cplx.stats;
  w_float_list w i.output_mults

let read_cplx_info r : Ckks_cplx.info =
  let stats = read_cplx_stats r in
  let output_mults = r_float_list r in
  { Ckks_cplx.stats; output_mults }

let write_lazy_stats w (s : Ckks_lazy.stats) =
  B.w_u32 w s.Ckks_lazy.relins_eager;
  B.w_u32 w s.relins_lazy;
  B.w_u32 w s.rescales_eager;
  B.w_u32 w s.rescales_lazy;
  B.w_u32 w s.deg2_high_water

let read_lazy_stats r : Ckks_lazy.stats =
  let relins_eager = B.r_u32 r in
  let relins_lazy = B.r_u32 r in
  let rescales_eager = B.r_u32 r in
  let rescales_lazy = B.r_u32 r in
  let deg2_high_water = B.r_u32 r in
  { Ckks_lazy.relins_eager; relins_lazy; rescales_eager; rescales_lazy; deg2_high_water }

let write_model_info w m =
  B.w_string w m.mi_name;
  B.w_string w m.mi_hash;
  Fhe_wire.write_params w m.mi_params;
  B.w_u32 w m.mi_batch;
  B.w_u32 w m.mi_requests_per_ct;
  B.w_bool w m.mi_cplx;
  w_float_list w m.mi_output_mults;
  B.w_int_array w (Array.of_list m.mi_rotation_steps);
  write_layout w m.mi_input_layout;
  B.w_u16 w (List.length m.mi_output_layouts);
  List.iter (write_layout w) m.mi_output_layouts;
  B.w_f64 w m.mi_predicted_units;
  B.w_bool w m.mi_from_cache

let read_model_info r =
  let mi_name = B.r_string r in
  let mi_hash = B.r_string r in
  let mi_params = Fhe_wire.read_params r in
  let mi_batch = B.r_u32 r in
  let mi_requests_per_ct = B.r_u32 r in
  let mi_cplx = B.r_bool r in
  let mi_output_mults = r_float_list r in
  let mi_rotation_steps = Array.to_list (B.r_int_array r) in
  let mi_input_layout = read_layout r in
  let n_out = B.r_u16 r in
  let mi_output_layouts = List.init n_out (fun _ -> read_layout r) in
  let mi_predicted_units = B.r_f64 r in
  let mi_from_cache = B.r_bool r in
  if mi_batch < 1 || mi_requests_per_ct < 1 then
    raise (B.Error "model info batch/requests_per_ct < 1");
  {
    mi_name;
    mi_hash;
    mi_params;
    mi_batch;
    mi_requests_per_ct;
    mi_cplx;
    mi_output_mults;
    mi_rotation_steps;
    mi_input_layout;
    mi_output_layouts;
    mi_predicted_units;
    mi_from_cache;
  }

let write_stats w s =
  B.w_u32 w s.sv_queue_depth;
  B.w_f64 w s.sv_queued_units;
  B.w_u32 w s.sv_served;
  B.w_u32 w s.sv_rejected;
  B.w_u32 w s.sv_coalesced;
  B.w_u32 w s.sv_sessions;
  B.w_u32 w s.sv_cache_hits;
  B.w_u32 w s.sv_cache_misses;
  B.w_bool w s.sv_draining

let read_stats r =
  let sv_queue_depth = B.r_u32 r in
  let sv_queued_units = B.r_f64 r in
  let sv_served = B.r_u32 r in
  let sv_rejected = B.r_u32 r in
  let sv_coalesced = B.r_u32 r in
  let sv_sessions = B.r_u32 r in
  let sv_cache_hits = B.r_u32 r in
  let sv_cache_misses = B.r_u32 r in
  let sv_draining = B.r_bool r in
  {
    sv_queue_depth;
    sv_queued_units;
    sv_served;
    sv_rejected;
    sv_coalesced;
    sv_sessions;
    sv_cache_hits;
    sv_cache_misses;
    sv_draining;
  }

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)

type header = { h_type : int; h_len : int }

(* Header and payload go out in one pass; the payload's length comes
   from a counting pass, which is one step per string or array. *)
let write_frame w tag payload =
  B.w_bytes w frame_magic;
  B.w_u16 w proto_version;
  B.w_u8 w tag;
  B.w_u32 w (B.size payload);
  payload w

let parse_header s =
  if String.length s < frame_header_bytes then
    Error (Bad_frame, "header shorter than 11 bytes")
  else if String.sub s 0 4 <> frame_magic then Error (Bad_magic, "bad frame magic")
  else
    let u16 off = Char.code s.[off] lor (Char.code s.[off + 1] lsl 8) in
    let version = u16 4 in
    if version <> proto_version then
      Error (Bad_version, Printf.sprintf "protocol version %d, want %d" version proto_version)
    else
      let h_type = Char.code s.[6] in
      let h_len =
        Char.code s.[7]
        lor (Char.code s.[8] lsl 8)
        lor (Char.code s.[9] lsl 16)
        lor (Char.code s.[10] lsl 24)
      in
      if h_len < 0 || h_len > max_payload_bytes then
        Error (Bad_frame, Printf.sprintf "payload length %d exceeds cap" h_len)
      else Ok { h_type; h_len }

(* Request tags 1..7; response tags from 128. *)
let tag_hello = 1
let tag_describe = 2
let tag_put_keys = 3
let tag_infer = 4
let tag_get_stats = 5
let tag_reload = 6
let tag_drain = 7
let tag_hello_ok = 128
let tag_model_info = 129
let tag_keys_ok = 130
let tag_result = 131
let tag_overloaded = 132
let tag_err = 133
let tag_stats_ok = 134
let tag_reloaded = 135
let tag_drain_ok = 136

let write_request w req =
  match req with
  | Hello { client } -> write_frame w tag_hello (fun w -> B.w_string w client)
  | Describe { model } -> write_frame w tag_describe (fun w -> B.w_string w model)
  | Put_keys { tenant; model; oracle_seed; keys } ->
    write_frame w tag_put_keys (fun w ->
        B.w_string w tenant;
        B.w_string w model;
        B.w_i64 w oracle_seed;
        B.w_string w keys)
  | Infer { tenant; model; request_id; region; coalesce; ct } ->
    write_frame w tag_infer (fun w ->
        B.w_string w tenant;
        B.w_string w model;
        B.w_string w request_id;
        B.w_u32 w region;
        B.w_bool w coalesce;
        B.w_string w ct)
  | Get_stats -> write_frame w tag_get_stats ignore
  | Reload { model } -> write_frame w tag_reload (fun w -> B.w_string w model)
  | Drain -> write_frame w tag_drain ignore

let write_response w resp =
  match resp with
  | Hello_ok { server; proto; models } ->
    write_frame w tag_hello_ok (fun w ->
        B.w_string w server;
        B.w_u16 w proto;
        w_string_list w models)
  | Model_info m -> write_frame w tag_model_info (fun w -> write_model_info w m)
  | Keys_ok -> write_frame w tag_keys_ok ignore
  | Result { request_id; ct } ->
    write_frame w tag_result (fun w ->
        B.w_string w request_id;
        B.w_string w ct)
  | Overloaded { queue_depth; queued_units } ->
    write_frame w tag_overloaded (fun w ->
        B.w_u32 w queue_depth;
        B.w_f64 w queued_units)
  | Err { code; message } ->
    write_frame w tag_err (fun w ->
        B.w_u8 w (error_code_tag code);
        B.w_string w message)
  | Stats_ok st -> write_frame w tag_stats_ok (fun w -> write_stats w st)
  | Reloaded { model; from_cache } ->
    write_frame w tag_reloaded (fun w ->
        B.w_string w model;
        B.w_bool w from_cache)
  | Drain_ok -> write_frame w tag_drain_ok ignore

let encode_request req = B.encode (fun w -> write_request w req)
let encode_response resp = B.encode (fun w -> write_response w resp)

let run_decoder f payload =
  match B.decode f payload with Ok v -> Ok v | Error msg -> Error (Bad_payload, msg)

let decode_request tag payload =
  if tag = tag_hello then
    run_decoder (fun r -> Hello { client = B.r_string r }) payload
  else if tag = tag_describe then
    run_decoder (fun r -> Describe { model = B.r_string r }) payload
  else if tag = tag_put_keys then
    run_decoder
      (fun r ->
        let tenant = B.r_string r in
        let model = B.r_string r in
        let oracle_seed = B.r_i64 r in
        let keys = B.r_string r in
        Put_keys { tenant; model; oracle_seed; keys })
      payload
  else if tag = tag_infer then
    run_decoder
      (fun r ->
        let tenant = B.r_string r in
        let model = B.r_string r in
        let request_id = B.r_string r in
        let region = B.r_u32 r in
        let coalesce = B.r_bool r in
        let ct = B.r_string r in
        Infer { tenant; model; request_id; region; coalesce; ct })
      payload
  else if tag = tag_get_stats then run_decoder (fun _ -> Get_stats) payload
  else if tag = tag_reload then
    run_decoder (fun r -> Reload { model = B.r_string r }) payload
  else if tag = tag_drain then run_decoder (fun _ -> Drain) payload
  else Error (Bad_payload, Printf.sprintf "unknown request tag %d" tag)

let decode_response tag payload =
  if tag = tag_hello_ok then
    run_decoder
      (fun r ->
        let server = B.r_string r in
        let proto = B.r_u16 r in
        let models = r_string_list r in
        Hello_ok { server; proto; models })
      payload
  else if tag = tag_model_info then run_decoder (fun r -> Model_info (read_model_info r)) payload
  else if tag = tag_keys_ok then run_decoder (fun _ -> Keys_ok) payload
  else if tag = tag_result then
    run_decoder
      (fun r ->
        let request_id = B.r_string r in
        let ct = B.r_string r in
        Result { request_id; ct })
      payload
  else if tag = tag_overloaded then
    run_decoder
      (fun r ->
        let queue_depth = B.r_u32 r in
        let queued_units = B.r_f64 r in
        Overloaded { queue_depth; queued_units })
      payload
  else if tag = tag_err then
    run_decoder
      (fun r ->
        let code = error_code_of_tag (B.r_u8 r) in
        let message = B.r_string r in
        Err { code; message })
      payload
  else if tag = tag_stats_ok then run_decoder (fun r -> Stats_ok (read_stats r)) payload
  else if tag = tag_reloaded then
    run_decoder
      (fun r ->
        let model = B.r_string r in
        let from_cache = B.r_bool r in
        Reloaded { model; from_cache })
      payload
  else if tag = tag_drain_ok then run_decoder (fun _ -> Drain_ok) payload
  else Error (Bad_payload, Printf.sprintf "unknown response tag %d" tag)

(* ------------------------------------------------------------------ *)
(* Blocking I/O (client / test side)                                   *)

(* A peer that vanished mid-write (EPIPE/ECONNRESET) is not an I/O bug:
   the next read reports the closed connection as a typed error, so the
   write just stops. *)
let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
  in
  go 0

let read_exact fd n =
  let buf = Bytes.create n in
  let rec go off =
    if off >= n then Some (Bytes.unsafe_to_string buf)
    else
      match Unix.read fd buf off (n - off) with
      | 0 -> None
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> None
  in
  go 0

let read_frame fd =
  match read_exact fd frame_header_bytes with
  | None -> Error (Bad_frame, "connection closed")
  | Some hdr -> (
    match parse_header hdr with
    | Error _ as e -> e
    | Ok h -> (
      if h.h_len = 0 then Ok (h, "")
      else
        match read_exact fd h.h_len with
        | None -> Error (Bad_frame, "connection closed mid-payload")
        | Some payload -> Ok (h, payload)))

let read_response fd =
  match read_frame fd with
  | Error _ as e -> e
  | Ok (h, payload) -> decode_response h.h_type payload

(* ------------------------------------------------------------------ *)
(* Compiled-schedule artifacts                                         *)

type artifact = {
  art_spec : string;
  art_hash : string;
  art_strategy : Pipeline.strategy;
  art_batch : int;
  art_cplx : Ckks_cplx.info option;
  art_params : Ace_fhe.Context.params;
  art_ckks : Ace_ir.Irfunc.t;
  art_input_layout : Layout.t;
  art_output_layouts : Layout.t list;
  art_lazy : Ckks_lazy.stats;
}

let artifact_magic = "ACEA"
let artifact_version = 1

let artifact_hash ~spec ~strategy ~batch ~complex =
  let key =
    B.encode (fun w ->
        B.w_string w spec;
        write_strategy w strategy;
        B.w_u32 w batch;
        B.w_bool w complex;
        B.w_u16 w artifact_version;
        B.w_u16 w Fhe_wire.format_version)
  in
  Digest.to_hex (Digest.string key)

let artifact_of_compiled ~spec ~hash (c : Pipeline.compiled) =
  {
    art_spec = spec;
    art_hash = hash;
    art_strategy = c.Pipeline.strategy;
    art_batch = c.batch;
    art_cplx = c.cplx;
    art_params = Ace_fhe.Context.params c.context;
    art_ckks = c.ckks;
    art_input_layout = c.input_layout;
    art_output_layouts = c.output_layouts;
    art_lazy = c.lazy_stats;
  }

let compiled_of_artifact a =
  Pipeline.restore ~strategy:a.art_strategy ~batch:a.art_batch ~cplx:a.art_cplx
    ~context:(Ace_fhe.Context.make a.art_params) ~ckks:a.art_ckks
    ~input_layout:a.art_input_layout ~output_layouts:a.art_output_layouts
    ~lazy_stats:a.art_lazy ()

let write_artifact w a =
  B.w_bytes w artifact_magic;
  B.w_u16 w artifact_version;
  B.w_string w a.art_spec;
  B.w_string w a.art_hash;
  write_strategy w a.art_strategy;
  B.w_u32 w a.art_batch;
  (match a.art_cplx with
  | None -> B.w_bool w false
  | Some i ->
    B.w_bool w true;
    write_cplx_info w i);
  Fhe_wire.write_params w a.art_params;
  Ir_wire.write_func w a.art_ckks;
  write_layout w a.art_input_layout;
  B.w_u16 w (List.length a.art_output_layouts);
  List.iter (write_layout w) a.art_output_layouts;
  write_lazy_stats w a.art_lazy

let encode_artifact a = B.encode (fun w -> write_artifact w a)

let decode_artifact s =
  B.decode
    (fun r ->
      let magic = B.r_bytes r 4 in
      if magic <> artifact_magic then
        raise (B.Error (Printf.sprintf "bad artifact magic %S" magic));
      let v = B.r_u16 r in
      if v <> artifact_version then
        raise (B.Error (Printf.sprintf "artifact version %d, want %d" v artifact_version));
      let art_spec = B.r_string r in
      let art_hash = B.r_string r in
      let art_strategy = read_strategy r in
      let art_batch = B.r_u32 r in
      if art_batch < 1 then raise (B.Error "artifact batch < 1");
      let art_cplx = if B.r_bool r then Some (read_cplx_info r) else None in
      let art_params = Fhe_wire.read_params r in
      let art_ckks = Ir_wire.read_func r in
      let art_input_layout = read_layout r in
      let n_out = B.r_u16 r in
      let art_output_layouts = List.init n_out (fun _ -> read_layout r) in
      let art_lazy = read_lazy_stats r in
      {
        art_spec;
        art_hash;
        art_strategy;
        art_batch;
        art_cplx;
        art_params;
        art_ckks;
        art_input_layout;
        art_output_layouts;
        art_lazy;
      })
    s
