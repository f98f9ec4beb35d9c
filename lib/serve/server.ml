module B = Ace_util.Bytesio
module Pipeline = Ace_driver.Pipeline
module Fhe_wire = Ace_fhe.Fhe_wire
module Telemetry = Ace_telemetry.Telemetry

type config = {
  socket_path : string;
  models : (string * Model_spec.t) list;
  cache_dir : string option;
  strategy : Pipeline.strategy;
  batch : int;
  complex : bool;
  max_queue : int;
  max_units : float;
  server_name : string;
}

let default_config =
  {
    socket_path = "/tmp/ace-serve.sock";
    models = [];
    cache_dir = None;
    strategy = Pipeline.ace;
    batch = 1;
    complex = false;
    max_queue = 64;
    max_units = 1e12;
    server_name = "ace-serve";
  }

(* serve.* metrics ride the same registry as the pipeline's request.*
   family, so one trace/JSONL stream carries both the per-request costs
   and the queueing behaviour around them. *)
let m_queue_depth = lazy (Telemetry.metric "serve.queue_depth")
let m_queued_units = lazy (Telemetry.metric "serve.queued_units")
let m_admitted = lazy (Telemetry.metric "serve.admitted")
let m_rejected = lazy (Telemetry.metric "serve.rejected")
let m_coalesced = lazy (Telemetry.metric "serve.coalesced")
let m_cache_hit = lazy (Telemetry.metric "serve.cache_hit")
let m_cache_miss = lazy (Telemetry.metric "serve.cache_miss")
let m_sessions = lazy (Telemetry.metric "serve.sessions")
let m_queue_wait = lazy (Telemetry.metric "serve.queue_wait")
let m_exec_wall = lazy (Telemetry.metric "serve.exec_wall")
let m_slices = lazy (Telemetry.metric "serve.slices")
let m_cancelled = lazy (Telemetry.metric "serve.cancelled")

(* One slice of execution: long enough that the per-slice bookkeeping
   (a select, a pick) is noise, short enough that a light request never
   waits long behind a heavy one. It ends at the first node or
   key-switch piece boundary past the deadline, so a request waits at
   most a slice plus one piece (~0.5-2.5 ms at N = 2^11). *)
let slice_seconds = 0.005

type model_state = {
  ms_name : string;
  ms_spec : Model_spec.t;
  ms_hash : string;
  mutable ms_compiled : Pipeline.compiled;
  mutable ms_from_cache : bool;
  ms_exec_units : float;  (** predicted ns of one homomorphic execution *)
}

type session = {
  sess_keys : Ace_fhe.Keys.t;
  sess_oracle_seed : int;
  mutable sess_runtime : Pipeline.runtime;
}

type conn = {
  c_fd : Unix.file_descr;
  c_id : int;
  c_in : Byte_queue.t;
  c_out : Byte_queue.t;
  mutable c_alive : bool;
  mutable c_close_after_flush : bool;
}

type job = {
  j_conn : conn;
  j_tenant : string;
  j_model : model_state;
  j_request_id : string;
  j_region : int;
  j_coalesce : bool;
  j_ct : Ace_fhe.Ciphertext.ct;
  j_units : float;
  j_admitted : float;
}

(* An execution in progress. It holds the runtime (and context) it started
   with, so a Reload never changes a running execution. *)
type running = {
  r_group : job list;
  r_exec : Pipeline.exec;
  r_context : Ace_fhe.Context.t;
  r_started : float;
  mutable r_slices : int;
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  models : (string, model_state) Hashtbl.t;
  sessions : (string, session) Hashtbl.t;  (* key: tenant ^ "\x00" ^ model *)
  mutable conns : conn list;
  queue : job Queue.t;
  mutable queued_units : float;
  mutable running : running list;  (* in start order *)
  drain_flag : bool Atomic.t;
  mutable next_conn_id : int;
  (* counters for Get_stats *)
  mutable n_served : int;
  mutable n_rejected : int;
  mutable n_coalesced : int;
  mutable n_cache_hits : int;
  mutable n_cache_misses : int;
}

(* ------------------------------------------------------------------ *)
(* Model loading and the artifact cache                                *)

let cache_path cfg hash =
  match cfg.cache_dir with
  | None -> None
  | Some dir -> Some (Filename.concat dir (hash ^ ".aceart"))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* tmp + rename so a crash mid-write can never leave a half artifact
   that a later startup would have to reject. *)
let write_file_atomic path contents =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let tmp = Filename.temp_file ~temp_dir:dir "aceart" ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc contents;
  close_out oc;
  Sys.rename tmp path

let try_load_artifact cfg spec_str hash =
  match cache_path cfg hash with
  | None -> None
  | Some path when not (Sys.file_exists path) -> None
  | Some path -> (
    match Wire.decode_artifact (read_file path) with
    | Error e ->
      Printf.eprintf "[ace-serve] discarding artifact %s: %s\n%!" path
        (Wire.artifact_error_to_string e);
      None
    | Ok art -> (
      if art.Wire.art_hash <> hash || art.art_spec <> spec_str then None
      else
        (* The params passed validation but could still be out of the
           security table's range if the file was tampered with. *)
        match Wire.compiled_of_artifact art with
        | c -> Some c
        | exception (Ace_fhe.Context.Insecure _ | Invalid_argument _ | B.Error _) -> None))

let store_artifact cfg spec_str hash compiled =
  match cache_path cfg hash with
  | None -> ()
  | Some path ->
    let art = Wire.artifact_of_compiled ~spec:spec_str ~hash compiled in
    write_file_atomic path (Wire.encode_artifact art)

let load_model t name spec =
  let cfg = t.cfg in
  let spec_str = Model_spec.to_string spec in
  let hash =
    Wire.artifact_hash ~spec:spec_str ~strategy:cfg.strategy ~batch:cfg.batch
      ~complex:cfg.complex
  in
  let compiled, from_cache =
    match try_load_artifact cfg spec_str hash with
    | Some c ->
      Telemetry.incr (Lazy.force m_cache_hit);
      t.n_cache_hits <- t.n_cache_hits + 1;
      (c, true)
    | None ->
      Telemetry.incr (Lazy.force m_cache_miss);
      t.n_cache_misses <- t.n_cache_misses + 1;
      let c =
        Pipeline.compile ~batch:cfg.batch ~complex:cfg.complex cfg.strategy
          (Model_spec.nn spec)
      in
      store_artifact cfg spec_str hash c;
      (c, false)
  in
  Printf.eprintf "[ace-serve] model %s (%s): %s, batch %d%s\n%!" name spec_str
    (if from_cache then "artifact cache" else "compiled")
    cfg.batch
    (if cfg.complex then ", complex" else "");
  {
    ms_name = name;
    ms_spec = spec;
    ms_hash = hash;
    ms_compiled = compiled;
    ms_from_cache = from_cache;
    ms_exec_units = Pipeline.runtime_exec_ns compiled;
  }

let model_info (ms : model_state) =
  let c = ms.ms_compiled in
  {
    Wire.mi_name = ms.ms_name;
    mi_hash = ms.ms_hash;
    mi_params = Ace_fhe.Context.params c.Pipeline.context;
    mi_batch = c.batch;
    mi_requests_per_ct = Pipeline.requests_per_ct c;
    mi_cplx = c.cplx <> None;
    mi_output_mults =
      (match c.cplx with None -> [] | Some i -> i.Ace_ckks_ir.Ckks_cplx.output_mults);
    mi_rotation_steps = c.key_plan.Ace_ckks_ir.Keygen_plan.rotation_steps;
    mi_input_layout = c.input_layout;
    mi_output_layouts = c.output_layouts;
    mi_predicted_units = ms.ms_exec_units;
    mi_from_cache = ms.ms_from_cache;
  }

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let create cfg =
  (match Sys.os_type with "Unix" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore | _ -> ());
  if Sys.file_exists cfg.socket_path then Unix.unlink cfg.socket_path;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen listen_fd 16;
  Unix.set_nonblock listen_fd;
  let t =
    {
      cfg;
      listen_fd;
      models = Hashtbl.create 4;
      sessions = Hashtbl.create 8;
      conns = [];
      queue = Queue.create ();
      queued_units = 0.0;
      running = [];
      drain_flag = Atomic.make false;
      next_conn_id = 0;
      n_served = 0;
      n_rejected = 0;
      n_coalesced = 0;
      n_cache_hits = 0;
      n_cache_misses = 0;
    }
  in
  List.iter
    (fun (name, spec) -> Hashtbl.replace t.models name (load_model t name spec))
    cfg.models;
  t

let request_drain t = Atomic.set t.drain_flag true

let stats t =
  {
    Wire.sv_queue_depth = Queue.length t.queue;
    sv_queued_units = t.queued_units;
    sv_served = t.n_served;
    sv_rejected = t.n_rejected;
    sv_coalesced = t.n_coalesced;
    sv_sessions = Hashtbl.length t.sessions;
    sv_cache_hits = t.n_cache_hits;
    sv_cache_misses = t.n_cache_misses;
    sv_draining = Atomic.get t.drain_flag;
  }

(* ------------------------------------------------------------------ *)
(* Connection plumbing                                                 *)

let send conn resp = Byte_queue.add_string conn.c_out (Wire.encode_response resp)

let drop t conn =
  if conn.c_alive then begin
    conn.c_alive <- false;
    (try Unix.close conn.c_fd with Unix.Unix_error _ -> ());
    t.conns <- List.filter (fun c -> c.c_id <> conn.c_id) t.conns
  end

(* Non-blocking flush of whatever the socket accepts; a dead peer
   (EPIPE/ECONNRESET) costs only this connection. *)
let flush_conn t conn =
  let q = conn.c_out in
  if conn.c_alive && Byte_queue.length q > 0 then begin
    try ignore (Byte_queue.write q conn.c_fd) with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> drop t conn
  end;
  if conn.c_alive && conn.c_close_after_flush && Byte_queue.length q = 0 then drop t conn

let accept_conn t =
  match Unix.accept t.listen_fd with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | fd, _ ->
    Unix.set_nonblock fd;
    let conn =
      {
        c_fd = fd;
        c_id = t.next_conn_id;
        c_in = Byte_queue.create ();
        c_out = Byte_queue.create ();
        c_alive = true;
        c_close_after_flush = false;
      }
    in
    t.next_conn_id <- t.next_conn_id + 1;
    t.conns <- conn :: t.conns

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)

let session_key tenant model = tenant ^ "\x00" ^ model

let handle_put_keys t conn ~tenant ~model ~oracle_seed ~keys_blob =
  match Hashtbl.find_opt t.models model with
  | None -> send conn (Wire.Err { code = Wire.Unknown_model; message = "unknown model " ^ model })
  | Some ms -> (
    let c = ms.ms_compiled in
    match Fhe_wire.decode_keys c.Pipeline.context keys_blob with
    | Error msg -> send conn (Wire.Err { code = Wire.Bad_payload; message = msg })
    | Ok keys ->
      Ace_fhe.Eval.warm keys;
      let sess =
        {
          sess_keys = keys;
          sess_oracle_seed = oracle_seed;
          sess_runtime = Pipeline.make_runtime c keys ~seed:oracle_seed;
        }
      in
      Hashtbl.replace t.sessions (session_key tenant model) sess;
      Telemetry.observe (Lazy.force m_sessions) (float_of_int (Hashtbl.length t.sessions));
      send conn Wire.Keys_ok)

let reject t conn resp =
  t.n_rejected <- t.n_rejected + 1;
  Telemetry.incr (Lazy.force m_rejected);
  send conn resp

let handle_infer t conn ~tenant ~model ~request_id ~region ~coalesce ~ct_blob =
  match Hashtbl.find_opt t.models model with
  | None ->
    reject t conn (Wire.Err { code = Wire.Unknown_model; message = "unknown model " ^ model })
  | Some ms -> (
    if Atomic.get t.drain_flag then
      reject t conn (Wire.Err { code = Wire.Draining; message = "server is draining" })
    else if Hashtbl.find_opt t.sessions (session_key tenant model) = None then
      reject t conn
        (Wire.Err
           { code = Wire.No_session; message = "no keys for tenant " ^ tenant ^ " on " ^ model })
    else
      let c = ms.ms_compiled in
      if region < 0 || region >= c.Pipeline.batch then
        reject t conn
          (Wire.Err
             {
               code = Wire.Bad_payload;
               message = Printf.sprintf "region %d out of range (batch %d)" region c.batch;
             })
      else
        match Fhe_wire.decode_ct c.context ct_blob with
        | Error msg -> reject t conn (Wire.Err { code = Wire.Bad_payload; message = msg })
        | Ok ct ->
          let units = ms.ms_exec_units /. float_of_int (Pipeline.requests_per_ct c) in
          if
            Queue.length t.queue >= t.cfg.max_queue
            || t.queued_units +. units > t.cfg.max_units
          then
            reject t conn
              (Wire.Overloaded
                 { queue_depth = Queue.length t.queue; queued_units = t.queued_units })
          else begin
            Queue.add
              {
                j_conn = conn;
                j_tenant = tenant;
                j_model = ms;
                j_request_id = request_id;
                j_region = region;
                j_coalesce = coalesce;
                j_ct = ct;
                j_units = units;
                j_admitted = Unix.gettimeofday ();
              }
              t.queue;
            t.queued_units <- t.queued_units +. units;
            Telemetry.incr (Lazy.force m_admitted);
            Telemetry.observe (Lazy.force m_queue_depth) (float_of_int (Queue.length t.queue));
            Telemetry.observe (Lazy.force m_queued_units) t.queued_units
          end)

let handle_reload t conn ~model =
  match Hashtbl.find_opt t.models model with
  | None -> send conn (Wire.Err { code = Wire.Unknown_model; message = "unknown model " ^ model })
  | Some ms ->
    (* Recompile fresh (refreshing the cached artifact), then rebuild the
       affected session runtimes in place: uploaded keys stay resident,
       which is the point of hot reload. *)
    let cfg = t.cfg in
    let spec_str = Model_spec.to_string ms.ms_spec in
    let compiled =
      Pipeline.compile ~batch:cfg.batch ~complex:cfg.complex cfg.strategy
        (Model_spec.nn ms.ms_spec)
    in
    store_artifact cfg spec_str ms.ms_hash compiled;
    ms.ms_compiled <- compiled;
    ms.ms_from_cache <- false;
    Hashtbl.iter
      (fun key sess ->
        match String.index_opt key '\x00' with
        | Some i when String.sub key (i + 1) (String.length key - i - 1) = model ->
          sess.sess_runtime <-
            Pipeline.make_runtime compiled sess.sess_keys ~seed:sess.sess_oracle_seed
        | _ -> ())
      t.sessions;
    send conn (Wire.Reloaded { model; from_cache = false })

let handle_request t conn req =
  match req with
  | Wire.Hello _ ->
    let models = Hashtbl.fold (fun name _ acc -> name :: acc) t.models [] in
    send conn
      (Wire.Hello_ok
         {
           server = t.cfg.server_name;
           proto = Wire.proto_version;
           models = List.sort compare models;
         })
  | Wire.Describe { model } -> (
    match Hashtbl.find_opt t.models model with
    | None -> send conn (Wire.Err { code = Wire.Unknown_model; message = "unknown model " ^ model })
    | Some ms -> send conn (Wire.Model_info (model_info ms)))
  | Wire.Put_keys { tenant; model; oracle_seed; keys } ->
    handle_put_keys t conn ~tenant ~model ~oracle_seed ~keys_blob:keys
  | Wire.Infer { tenant; model; request_id; region; coalesce; ct } ->
    handle_infer t conn ~tenant ~model ~request_id ~region ~coalesce ~ct_blob:ct
  | Wire.Get_stats -> send conn (Wire.Stats_ok (stats t))
  | Wire.Reload { model } -> handle_reload t conn ~model
  | Wire.Drain ->
    Atomic.set t.drain_flag true;
    send conn Wire.Drain_ok

(* Frame extraction from the connection's input buffer. Header faults
   poison the stream (unknown resync point): typed error, then close.
   Payload faults keep framing intact: typed error, connection lives. *)
let process_input t conn =
  let q = conn.c_in in
  let progress = ref true in
  while !progress && conn.c_alive do
    progress := false;
    let buffered = Byte_queue.length q in
    if buffered >= Wire.frame_header_bytes then begin
      let hdr = Byte_queue.sub q 0 Wire.frame_header_bytes in
      match Wire.parse_header hdr with
      | Error (code, message) ->
        send conn (Wire.Err { code; message });
        conn.c_close_after_flush <- true
      | Ok h ->
        if buffered >= Wire.frame_header_bytes + h.Wire.h_len then begin
          let payload = Byte_queue.sub q Wire.frame_header_bytes h.h_len in
          Byte_queue.consume q (Wire.frame_header_bytes + h.h_len);
          (match Wire.decode_request h.h_type payload with
          | Error (code, message) -> send conn (Wire.Err { code; message })
          | Ok req -> (
            try handle_request t conn req
            with exn ->
              send conn (Wire.Err { code = Wire.Internal; message = Printexc.to_string exn })));
          progress := true
        end
    end
  done

let handle_readable t conn =
  let rec read_avail () =
    match Byte_queue.read conn.c_in conn.c_fd with
    | 0 -> drop t conn
    | _ -> read_avail ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_avail ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> drop t conn
  in
  read_avail ();
  if conn.c_alive then process_input t conn

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)

let finish_job t job result_blob =
  t.n_served <- t.n_served + 1;
  if job.j_conn.c_alive then
    send job.j_conn (Wire.Result { request_id = job.j_request_id; ct = result_blob })

let fail_job _t job message =
  if job.j_conn.c_alive then
    send job.j_conn (Wire.Err { code = Wire.Internal; message })

(* Shortest remaining work first (see server.mli): strict comparison, so
   an equal-cost queued job never preempts the execution ahead of it. *)
type next = Start of int | Slice of int | Idle

(* Index and value of the first minimum. *)
let first_min xs =
  let _, best =
    List.fold_left
      (fun (i, best) x ->
        let best =
          match best with Some (_, b) when b <= x -> best | _ -> Some (i, x)
        in
        (i + 1, best))
      (0, None) xs
  in
  best

let pick ~queued ~running =
  match (first_min queued, first_min running) with
  | Some (i, _), None -> Start i
  | Some (i, q), Some (_, r) when q < r -> Start i
  | _, Some (j, _) -> Slice j
  | None, None -> Idle

(* Pull the job at queue index [head_idx] plus every queued job that can
   share its execution: same session, same model, coalescing allowed,
   real packing, and a batch region nobody in the group occupies yet.
   Clients opting in pack their image into their own region (zeros
   elsewhere), so merging is a plain homomorphic add and the one
   execution serves the whole group. *)
let take_group t head_idx =
  let jobs = List.of_seq (Queue.to_seq t.queue) in
  let head = List.nth jobs head_idx in
  let c = head.j_model.ms_compiled in
  let coalescing = head.j_coalesce && c.Pipeline.batch >= 2 && c.cplx = None in
  let occupied = Array.make c.batch false in
  occupied.(head.j_region) <- true;
  let taken = ref [ head ] in
  Queue.clear t.queue;
  List.iteri
    (fun i j ->
      if i = head_idx then ()
      else if
        coalescing
        && List.length !taken < c.Pipeline.batch
        && j.j_coalesce
        && j.j_model.ms_name = head.j_model.ms_name
        && j.j_tenant = head.j_tenant
        && j.j_conn.c_alive
        && not occupied.(j.j_region)
      then begin
        occupied.(j.j_region) <- true;
        taken := j :: !taken
      end
      else Queue.add j t.queue)
    jobs;
  let group = List.rev !taken in
  List.iter (fun j -> t.queued_units <- t.queued_units -. j.j_units) group;
  group

let all_gone group = List.for_all (fun j -> not j.j_conn.c_alive) group

let start_group t group =
  let head = List.hd group in
  let ms = head.j_model in
  let c = ms.ms_compiled in
  if all_gone group then Telemetry.incr (Lazy.force m_cancelled)
  else
    match Hashtbl.find_opt t.sessions (session_key head.j_tenant ms.ms_name) with
    | None -> List.iter (fun j -> fail_job t j "session vanished before dispatch") group
    | Some sess ->
      let k = Pipeline.requests_per_ct c in
      (* Region r's id: the request that owns region r, or "idle:<r>" for
         unoccupied regions (their slots compute on replicated/zero data). *)
      let ids = Array.init k (fun r -> "idle:" ^ string_of_int r) in
      List.iter
        (fun j ->
          let slot = if c.cplx <> None then 2 * j.j_region else j.j_region in
          ids.(slot) <- j.j_request_id)
        group;
      let merged =
        match group with
        | [ only ] -> only.j_ct
        | first :: rest ->
          t.n_coalesced <- t.n_coalesced + List.length rest;
          List.iter (fun _ -> Telemetry.incr (Lazy.force m_coalesced)) rest;
          List.fold_left (fun acc j -> Ace_fhe.Eval.add acc j.j_ct) first.j_ct rest
        | [] -> assert false
      in
      let now = Unix.gettimeofday () in
      List.iter
        (fun j -> Telemetry.observe (Lazy.force m_queue_wait) (now -. j.j_admitted))
        group;
      let r_exec = Pipeline.start_rt ~request_ids:ids sess.sess_runtime merged in
      let r = { r_group = group; r_exec; r_context = c.context; r_started = now; r_slices = 0 } in
      t.running <- t.running @ [ r ]

let remove_running t r = t.running <- List.filter (fun x -> x != r) t.running

let run_slice t r =
  r.r_slices <- r.r_slices + 1;
  match Pipeline.step r.r_exec ~until:(Unix.gettimeofday () +. slice_seconds) with
  | None -> ()
  | Some result ->
    remove_running t r;
    Telemetry.observe (Lazy.force m_exec_wall) (Unix.gettimeofday () -. r.r_started);
    Telemetry.observe (Lazy.force m_slices) (float_of_int r.r_slices);
    let blob = Fhe_wire.encode_ct r.r_context result in
    List.iter (fun j -> finish_job t j blob) r.r_group
  | exception exn ->
    remove_running t r;
    Pipeline.abort r.r_exec;
    let msg = Printexc.to_string exn in
    List.iter (fun j -> fail_job t j msg) r.r_group

(* An execution whose every client has gone is dropped between slices;
   its buffers go back to the pool. *)
let cancel_abandoned t =
  List.iter
    (fun r ->
      if all_gone r.r_group then begin
        remove_running t r;
        Pipeline.abort r.r_exec;
        Telemetry.incr (Lazy.force m_cancelled)
      end)
    t.running

(* Start every group the pick rule admits, then run one slice. *)
let rec schedule t =
  let queued = List.of_seq (Seq.map (fun j -> j.j_model.ms_exec_units) (Queue.to_seq t.queue)) in
  let running = List.map (fun r -> Pipeline.remaining r.r_exec) t.running in
  match pick ~queued ~running with
  | Idle -> ()
  | Start i ->
    start_group t (take_group t i);
    Telemetry.observe (Lazy.force m_queue_depth) (float_of_int (Queue.length t.queue));
    Telemetry.observe (Lazy.force m_queued_units) t.queued_units;
    schedule t
  | Slice j -> run_slice t (List.nth t.running j)

(* ------------------------------------------------------------------ *)
(* The serve loop                                                      *)

let done_draining t =
  Atomic.get t.drain_flag
  && Queue.is_empty t.queue
  && t.running = []
  && List.for_all (fun c -> Byte_queue.length c.c_out = 0) t.conns

let run t =
  let serving = ref true in
  while !serving do
    if done_draining t then serving := false
    else begin
      let rds = t.listen_fd :: List.map (fun c -> c.c_fd) t.conns in
      let wrs =
        List.filter_map
          (fun c -> if Byte_queue.length c.c_out > 0 then Some c.c_fd else None)
          t.conns
      in
      let idle = Queue.is_empty t.queue && t.running = [] in
      let timeout = if idle then 0.25 else 0.0 in
      let readable, writable, _ =
        try Unix.select rds wrs [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      if List.memq t.listen_fd readable && not (Atomic.get t.drain_flag) then accept_conn t;
      List.iter
        (fun conn -> if List.memq conn.c_fd readable then handle_readable t conn)
        t.conns;
      List.iter
        (fun conn -> if List.memq conn.c_fd writable then flush_conn t conn)
        t.conns;
      cancel_abandoned t;
      schedule t;
      (* Opportunistic flush so results go out this iteration, not after
         the next select wake-up. *)
      List.iter (fun conn -> flush_conn t conn) t.conns
    end
  done;
  List.iter (fun conn -> drop t conn) t.conns;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  if Sys.file_exists t.cfg.socket_path then (try Unix.unlink t.cfg.socket_path with _ -> ())
