(* ace-bench: the benchmark of the ACE compiler and its ace-serve daemon.

     ace_bench run [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
                   [--out FILE]
     ace_bench compare BASE.jsonl CHANGE.jsonl

   [run] drives one workload (README.md says why each exists):

   - compile-zoo: resnet20/32/44 compiled over and over in a child process,
     no runtime at all;
   - small-coalesce: gemv:16:4 at batch 8 behind the shipped daemon, an
     open-loop Poisson load with batch-axis coalescing, then a saturation
     rung;
   - mixed-tenants: one daemon, a light gemv tenant open loop and a heavy
     resnet tenant closed loop sharing its serve loop.

   The daemon is bin/ace_serve.exe in its own process, reached through
   Ace_serve.Client (sessions) and Ace_serve.Wire frames on non-blocking
   sockets (load). Every served output is decrypted and checked against
   Model_spec.reference. [run] prints each metric of BENCHMARK.json by name
   with its unit — the end-to-end list, or with [--trace 1] the per-layer
   list — and ends with one JSON line {correct, attempted, failed,
   metrics}. It exits 1 when an output is wrong or a validity guard trips,
   2 on a usage or environment error.

   [compare] reads two files of runs written with [--out] and classifies
   every (workload, end-to-end metric) pair against its bound; it exits 1
   on any regression. *)

module Json = Ace_telemetry.Json_lite
module Telemetry = Ace_telemetry.Telemetry
module Pipeline = Ace_driver.Pipeline
module Stats = Ace_driver.Stats
module Client = Ace_serve.Client
module Wire = Ace_serve.Wire
module Model_spec = Ace_serve.Model_spec
module Resnet = Ace_models.Resnet
module Dataset = Ace_models.Dataset
module Context = Ace_fhe.Context
module Fhe_wire = Ace_fhe.Fhe_wire
module Rns_poly = Ace_rns.Rns_poly
module Ntt = Ace_rns.Ntt
module Crt = Ace_rns.Crt
module Keygen_plan = Ace_ckks_ir.Keygen_plan
module Level = Ace_ir.Level
module Layout = Ace_vector.Layout

let now = Unix.gettimeofday

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("ace_bench: " ^ m);
      exit 2)
    fmt

let log fmt = Printf.ksprintf (fun m -> prerr_endline ("[ace-bench] " ^ m)) fmt
let sum = List.fold_left ( +. ) 0.0
let sorted xs = Array.of_list (List.sort compare xs)

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json: the metric names, units and bounds                  *)

type metric_def = { name : string; unit_ : string; lower : bool; bound : float }

type bench_def = { e2e : metric_def list; layers : metric_def list; run_seconds : int }

let load_bench path =
  let doc =
    try Json.parse_file path with Sys_error m | Json.Parse_error m -> die "%s: %s" path m
  in
  let str key o =
    match Json.member key o with Some (Json.Str s) -> s | _ -> die "%s: no %S" path key
  in
  let metrics key =
    match Json.member key doc with
    | Some (Json.Arr l) ->
      List.map
        (fun o ->
          {
            name = str "name" o;
            unit_ = str "unit" o;
            lower = str "better" o = "lower";
            bound = (match Json.member "bound" o with Some (Json.Num b) -> b | _ -> nan);
          })
        l
    | _ -> die "%s: no %S list" path key
  in
  let run_seconds =
    match Json.member "run_seconds" doc with
    | Some (Json.Num n) -> int_of_float n
    | _ -> die "%s: no run_seconds" path
  in
  { e2e = metrics "end_to_end"; layers = metrics "per_layer"; run_seconds }

(* ------------------------------------------------------------------ *)
(* One run's result                                                    *)

type bench_run = {
  workload : string;
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
  values : (string, float) Hashtbl.t;
  mutable bypassed : string list;
      (** name prefixes of layers this workload never calls: they did no
          work, so they read 0 *)
}

let set r k v = Hashtbl.replace r.values k v
let add r k v = set r k (v +. Option.value ~default:0.0 (Hashtbl.find_opt r.values k))

let problem r fmt =
  Printf.ksprintf
    (fun m ->
      log "%s: %s" r.workload m;
      r.problems <- m :: r.problems)
    fmt

let json_num v =
  if Float.is_integer v && abs_float v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let report r ~defs =
  let rows =
    List.map
      (fun d ->
        let v =
          match Hashtbl.find_opt r.values d.name with
          | Some v -> v
          | None when List.exists (fun p -> String.starts_with ~prefix:p d.name) r.bypassed -> 0.0
          | None ->
            problem r "metric %s was not measured" d.name;
            nan
        in
        if not (Float.is_finite v) then problem r "metric %s = %f" d.name v;
        (d, v))
      defs
  in
  Printf.printf "%s: attempted %d, failed %d\n" r.workload r.attempted r.failed;
  List.iter (fun (d, v) -> Printf.printf "  %-28s %16.6g %s\n" d.name v d.unit_) rows;
  let metrics =
    List.map
      (fun (d, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" d.name
          (json_num (if Float.is_finite v then v else 0.0))
          d.unit_)
      rows
  in
  let correct = r.problems = [] && r.failed = 0 in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    r.attempted r.failed (String.concat ", " metrics)

(* ------------------------------------------------------------------ *)
(* Child processes                                                     *)

let children : int list ref = ref []
let forget pid = children := List.filter (( <> ) pid) !children

let reap pid =
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  forget pid

let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap pid

let () = at_exit (fun () -> List.iter kill !children)

(* Graceful stop: SIGTERM drains the daemon, whose exit flushes its last
   metrics window; SIGKILL after [grace] seconds. *)
let stop ~grace pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. grace in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ -> kill pid
    | _ | (exception Unix.Unix_error _) -> forget pid
  in
  wait ()

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ | (exception Unix.Unix_error _) ->
    forget pid;
    true

(* Children get the caller's environment minus every ACE_ knob and
   OCAMLRUNPARAM, plus [extra]: the benchmark, not the shell, decides how
   the daemon runs. *)
let child_env extra =
  Array.of_list
    (List.filter
       (fun kv ->
         not
           (String.starts_with ~prefix:"ACE_" kv || String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
       (Array.to_list (Unix.environment ()))
    @ extra)

let spawn ?stdout ~log_path ~env prog args =
  let logfd =
    Unix.openfile log_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let out = Option.value stdout ~default:logfd in
  let pid = Unix.create_process_env prog (Array.of_list (prog :: args)) env Unix.stdin out logfd in
  Unix.close logfd;
  children := pid :: !children;
  pid

let sibling rel =
  let p = Filename.concat (Filename.dirname Sys.executable_name) rel in
  if Sys.file_exists p then p else die "%s is not built (acebench/run.sh builds it)" p

let proc_status_kb pid key =
  List.find_map
    (fun l ->
      if String.starts_with ~prefix:key l then
        Scanf.sscanf (String.sub l (String.length key) (String.length l - String.length key))
          " %d" Option.some
      else None)
    (Kit.read_lines (Printf.sprintf "/proc/%d/status" pid))

let peak_rss_mb pid =
  match proc_status_kb pid "VmHWM:" with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> nan

(* utime + stime of [pid] in seconds (fields 14 and 15 of /proc/PID/stat,
   counted after the parenthesised command name; 100 ticks per second). *)
let cpu_seconds pid =
  let s = String.concat " " (Kit.read_lines (Printf.sprintf "/proc/%d/stat" pid)) in
  let i = String.rindex s ')' in
  let rest = String.sub s (i + 2) (String.length s - i - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  float_of_int (int_of_string f.(11) + int_of_string f.(12)) /. 100.0

(* The daemon and the generator each get a core of their own. Unpinned,
   the scheduler wakes the generator on the daemon's busy core when a
   reply lands, and sends then run milliseconds late: that run measures
   the OS scheduler, not the daemon. *)
let allowed_cpus =
  List.concat_map
    (fun l ->
      match String.split_on_char ':' l with
      | [ "Cpus_allowed_list"; v ] -> Kit.cpu_list (String.trim v)
      | _ -> [])
    (Kit.read_lines "/proc/self/status")

(* (daemon core, generator core); pins this process on first use *)
let cpu_plan =
  lazy
    (match allowed_cpus with
    | d :: g :: _ ->
      let pid =
        spawn ~log_path:(Filename.concat ".acebench" "taskset.log") ~env:(Unix.environment ())
          "taskset" [ "-p"; "-c"; string_of_int g; string_of_int (Unix.getpid ()) ]
      in
      reap pid;
      (d, g)
    | [ c ] -> (c, c)
    | [] -> die "no CPU in this process's affinity list")

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)

let max_abs_diff a b =
  if Array.length a <> Array.length b then infinity
  else
    let e = ref 0.0 in
    Array.iteri (fun i x -> e := Float.max !e (abs_float (x -. b.(i)))) a;
    !e

let gemv_tolerance = 1e-2

(* ResNet outputs carry the polynomial-ReLU approximation error (about
   2e-3 on resnet:8:10:8:4); 0.05 flags a broken result, not noise. *)
let resnet_max_abs = 0.05

let check_gemv reference out =
  let e = max_abs_diff reference out in
  if e <= gemv_tolerance then Ok () else Error (Printf.sprintf "max |diff| %.3g" e)

let check_resnet reference out =
  let e = max_abs_diff reference out in
  let ra = Dataset.argmax reference and oa = Dataset.argmax out in
  if e > resnet_max_abs then Error (Printf.sprintf "max |diff| %.3g > %g" e resnet_max_abs)
    (* with |diff| <= e a flip needs the reference's top two within 2e:
       then the class is not decided at this precision *)
  else if ra <> oa && reference.(ra) -. reference.(oa) > 2.0 *. e then
    Error (Printf.sprintf "argmax %d, reference %d" oa ra)
  else Ok ()

(* ------------------------------------------------------------------ *)
(* Per-layer measurements shared by the workloads                      *)

(* Median ns per call over five ~20 ms batches. *)
let time_kernel f =
  let batch () =
    let n = ref 0 in
    let t0 = now () in
    while now () -. t0 < 0.02 do
      f ();
      incr n
    done;
    (now () -. t0) /. float_of_int !n *. 1e9
  in
  Kit.median (List.init 5 (fun _ -> batch ()))

(* ns per call of the RNS kernels at [ctx]'s ring degree and top limb
   count. *)
let rns_kernels ctx =
  let crt = Context.crt ctx in
  let idx = Context.ciphertext_idx ctx ~level:(Context.max_level ctx) in
  let rng = Ace_util.Rng.create 7 in
  let ev = Rns_poly.sample_uniform crt ~chain_idx:idx rng in
  let ev2 = Rns_poly.sample_uniform crt ~chain_idx:idx rng in
  let co = Rns_poly.coeff_inplace (Rns_poly.clone ev2) in
  let fwd = Rns_poly.coeff_inplace (Rns_poly.clone ev) in
  let plans = Array.map (Crt.plan crt) idx in
  let acc = Array.map Array.copy ev.Rns_poly.data in
  let shoup = Array.mapi (fun k p -> Ntt.precompute_shoup p ev2.Rns_poly.data.(k)) plans in
  [
    ("rns.ntt_forward_ns", time_kernel (fun () -> ignore (Rns_poly.ntt_inplace fwd)));
    ("rns.ntt_inverse_ns", time_kernel (fun () -> ignore (Rns_poly.coeff_inplace ev)));
    ( "rns.mul_acc_shoup_ns",
      time_kernel (fun () ->
          Array.iteri
            (fun k p ->
              Ntt.pointwise_mul_acc_shoup p acc.(k) ev.Rns_poly.data.(k) ev2.Rns_poly.data.(k)
                shoup.(k))
            plans) );
    ( "rns.automorphism_ns",
      time_kernel (fun () -> Rns_poly.release (Rns_poly.automorphism ~galois:5 co)) );
    ("rns.rescale_ns", time_kernel (fun () -> Rns_poly.release (Rns_poly.rescale co)));
  ]

let level_metric = function
  | Level.Nn -> "compile.nn_s"
  | Level.Vector -> "compile.vector_s"
  | Level.Sihe -> "compile.sihe_s"
  | Level.Ckks -> "compile.ckks_s"
  | Level.Poly -> "compile.poly_s"

(* Fig. 5 split of one compile: per-IR-level seconds, weight emission
   ([other_seconds]) and the wall-clock remainder. *)
let compile_split (c : Pipeline.compiled) wall =
  let levels = List.map (fun (l, s) -> (level_metric l, s)) c.level_seconds in
  let attributed = sum (List.map snd levels) +. c.other_seconds in
  ("compile.weights_s", c.other_seconds) :: ("compile.unattributed_s", wall -. attributed) :: levels

(* Static sizes of one compiled model: IR, schedule, keys. *)
let compile_counts (c : Pipeline.compiled) =
  let st = Stats.of_compiled c in
  let nodes l =
    float_of_int (Option.value ~default:0 (List.assoc_opt l st.Stats.nodes_per_level))
  in
  let i = float_of_int in
  [
    ("ir.vector_nodes", nodes Level.Vector);
    ("ir.ckks_nodes", nodes Level.Ckks);
    ("ir.poly_stmts", i st.poly_stmts);
    ("ir.c_lines", i st.c_lines);
    ("ir.const_floats", i st.const_floats);
    ("sched.rotations", i st.rotations);
    ("sched.bootstraps", i st.bootstraps);
    ("sched.rescales", i st.rescales);
    ("sched.relins", i st.relins);
    ( "sched.predicted_units",
      Ace_ir.Irfunc.fold c.ckks ~init:0.0 ~f:(fun a n -> a +. Ace_codegen.Sched.node_cost n) );
    ("keys.rotation_keys", i (Keygen_plan.key_count c.key_plan));
    ("keys.evk_bytes", i (Keygen_plan.evaluation_key_bytes c.context c.key_plan));
  ]

(* Sum the values that share a name, in first-seen order. *)
let sum_by_name l =
  List.fold_left
    (fun acc (k, v) ->
      if List.mem_assoc k acc then
        List.map (fun (k', v') -> (k', if k' = k then v' +. v else v')) acc
      else acc @ [ (k, v) ])
    [] l

(* ------------------------------------------------------------------ *)
(* Load generator: non-blocking sockets, one thread                    *)

type conn = {
  fd : Unix.file_descr;
  outq : string Queue.t;
  mutable out_off : int;  (** bytes of the head frame already written *)
  inbuf : Buffer.t;
  mutable in_off : int;  (** bytes of [inbuf] already parsed *)
}

(* With the default ~200 KB send buffer only three or four 53 KB request
   frames fit in the kernel, so what the daemon finds on a read — and so
   how many requests it can coalesce — would hinge on socket timing. A
   4 MB buffer holds every outstanding frame. *)
let connect_raw path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_int fd Unix.SO_SNDBUF (4 lsl 20);
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.set_nonblock fd;
  { fd; outq = Queue.create (); out_off = 0; inbuf = Buffer.create 65536; in_off = 0 }

let rec flush_conn c =
  match Queue.peek_opt c.outq with
  | None -> ()
  | Some s -> (
    match Unix.write_substring c.fd s c.out_off (String.length s - c.out_off) with
    | n ->
      c.out_off <- c.out_off + n;
      if c.out_off = String.length s then begin
        ignore (Queue.pop c.outq);
        c.out_off <- 0;
        flush_conn c
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ())

let chunk = Bytes.create 65536

let rec fill c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> failwith "the daemon closed a connection"
  | n ->
    Buffer.add_subbytes c.inbuf chunk 0 n;
    fill c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill c

let next_frame c =
  let avail = Buffer.length c.inbuf - c.in_off in
  if avail < Wire.frame_header_bytes then None
  else
    match Wire.parse_header (Buffer.sub c.inbuf c.in_off Wire.frame_header_bytes) with
    | Error (_, m) -> failwith ("bad reply header: " ^ m)
    | Ok h when avail < Wire.frame_header_bytes + h.Wire.h_len -> None
    | Ok h ->
      let payload = Buffer.sub c.inbuf (c.in_off + Wire.frame_header_bytes) h.h_len in
      c.in_off <- c.in_off + Wire.frame_header_bytes + h.h_len;
      if c.in_off = Buffer.length c.inbuf then begin
        Buffer.clear c.inbuf;
        c.in_off <- 0
      end;
      Some (h, payload)

type req = {
  id : string;
  stream : string;
  conn : int;
  due : float;  (** scheduled send time (open loop) or send time (closed loop) *)
  sent : float;
  check : string -> (unit, string) result;  (** decrypt a result blob and compare *)
  release : unit -> unit;  (** lets a closed loop send its next request *)
  mutable done_at : float;
  mutable error : string option;
}

(* A stream of requests: [next_due ()] is when the next one is due
   (neg_infinity: now; infinity: nothing more), [emit due] sends it. *)
type source = { next_due : unit -> float; emit : float -> req * string }

type gen = {
  conns : conn array;
  pending : (string, req) Hashtbl.t;
  verify : (req * string) Queue.t;
  mutable finished : req list;
  mutable encode_s : float list;
  mutable decode_s : float list;
  mutable decrypt_s : float list;
  mutable request_bytes : float list;
  mutable result_bytes : float list;
  mutable late_s : float list;  (** open-loop send lateness *)
}

let gen_create conns =
  {
    conns;
    pending = Hashtbl.create 256;
    verify = Queue.create ();
    finished = [];
    encode_s = [];
    decode_s = [];
    decrypt_s = [];
    request_bytes = [];
    result_bytes = [];
    late_s = [];
  }

(* A payload: one pre-encrypted request body and how to judge its reply. *)
type payload = {
  tenant : string;
  model : string;
  region : int;
  coalesce : bool;
  ct : string;
  check_blob : string -> (unit, string) result;
}

let make_req g ~stream ~i ~conn ~due ~release p =
  let id = Printf.sprintf "%s-%d" stream i in
  let t0 = now () in
  let frame =
    Telemetry.span ~cat:"wire" ~args:[ ("id", id) ] "wire.encode_request" (fun () ->
        Wire.encode_request
          (Wire.Infer
             {
               tenant = p.tenant;
               model = p.model;
               request_id = id;
               region = p.region;
               coalesce = p.coalesce;
               ct = p.ct;
             }))
  in
  let sent = now () in
  g.encode_s <- (sent -. t0) :: g.encode_s;
  g.request_bytes <- float_of_int (String.length frame) :: g.request_bytes;
  let due = if due = neg_infinity then t0 else due in
  ( { id; stream; conn; due; sent; check = p.check_blob; release; done_at = nan; error = None },
    frame )

(* Open loop: request [i] is due at [t0 + offsets.(i)] whatever the
   daemon does; [pick i] chooses its connection and payload. *)
let open_loop g ~stream ~t0 ~offsets ~pick =
  let i = ref 0 in
  let next_due () = if !i < Array.length offsets then t0 +. offsets.(!i) else infinity in
  let emit due =
    let conn, p = pick !i in
    let r, frame = make_req g ~stream ~i:!i ~conn ~due ~release:ignore p in
    g.late_s <- (r.sent -. due) :: g.late_s;
    incr i;
    (r, frame)
  in
  { next_due; emit }

(* Closed loop: [k] requests outstanding until [total] were sent or
   [until] passed. *)
let closed_loop g ~stream ~k ~total ~until ~pick =
  let i = ref 0 and outstanding = ref 0 in
  let next_due () =
    if !outstanding < k && !i < total && now () < until then neg_infinity else infinity
  in
  let emit due =
    let conn, p = pick !i in
    let r, frame = make_req g ~stream ~i:!i ~conn ~due ~release:(fun () -> decr outstanding) p in
    incr i;
    incr outstanding;
    (r, frame)
  in
  { next_due; emit }

let finish_req g r =
  Hashtbl.remove g.pending r.id;
  g.finished <- r :: g.finished;
  Telemetry.emit_span ~cat:"request" ~args:[ ("id", r.id) ] ~name:r.stream ~t0:r.due
    ~dur:(r.done_at -. r.due) ();
  r.release ()

let verify_one g =
  let r, blob = Queue.pop g.verify in
  let t0 = now () in
  let res =
    Telemetry.span ~cat:"client" ~args:[ ("id", r.id) ] "client.decrypt" (fun () -> r.check blob)
  in
  g.decrypt_s <- (now () -. t0) :: g.decrypt_s;
  match res with
  | Ok () -> ()
  | Error m -> if r.error = None then r.error <- Some ("wrong output: " ^ m)

let handle_frame g ci (h, payload) =
  let t0 = now () in
  let resp =
    Telemetry.span ~cat:"wire" "wire.decode_response" (fun () ->
        Wire.decode_response h.Wire.h_type payload)
  in
  let t1 = now () in
  g.decode_s <- (t1 -. t0) :: g.decode_s;
  g.result_bytes <- float_of_int (Wire.frame_header_bytes + h.h_len) :: g.result_bytes;
  match resp with
  | Ok (Wire.Result { request_id; ct }) -> (
    match Hashtbl.find_opt g.pending request_id with
    | Some r ->
      r.done_at <- t1;
      Queue.add (r, ct) g.verify;
      finish_req g r
    | None -> failwith ("reply for unknown request " ^ request_id))
  | other -> (
    (* Refusals and errors carry no request id: charge the oldest request
       outstanding on this connection. *)
    let msg =
      match other with
      | Ok (Wire.Overloaded { queue_depth; _ }) ->
        Printf.sprintf "overloaded (queue %d)" queue_depth
      | Ok (Wire.Err { code; message }) -> Wire.error_code_name code ^ ": " ^ message
      | Ok _ -> "unexpected reply"
      | Error (_, m) -> "undecodable reply: " ^ m
    in
    let oldest =
      Hashtbl.fold
        (fun _ r acc ->
          match acc with
          | Some o when o.sent <= r.sent -> acc
          | _ -> if r.conn = ci then Some r else acc)
        g.pending None
    in
    match oldest with
    | Some r ->
      r.done_at <- t1;
      r.error <- Some msg;
      finish_req g r
    | None -> failwith ("unsolicited reply: " ^ msg))

(* Run [sources] until each is exhausted and every reply is in, or until
   [deadline]; requests still unanswered then count as failed. Checks run
   while the next send is more than 3 ms away; bench tracing switches on
   at [trace_from]. *)
let drive g ~sources ~deadline ~trace_from =
  let busy () =
    Hashtbl.length g.pending > 0 || List.exists (fun s -> s.next_due () < infinity) sources
  in
  while busy () && now () < deadline do
    if now () >= trace_from && not (Telemetry.tracing ()) then Telemetry.set_tracing true;
    let t = now () in
    List.iter
      (fun s ->
        while s.next_due () <= t do
          let r, frame = s.emit (s.next_due ()) in
          Hashtbl.replace g.pending r.id r;
          let c = g.conns.(r.conn) in
          Queue.add frame c.outq;
          flush_conn c
        done)
      sources;
    let next = List.fold_left (fun m s -> Float.min m (s.next_due ())) infinity sources in
    let slack = next -. now () in
    if slack > 0.003 && not (Queue.is_empty g.verify) then verify_one g
    else begin
      let timeout = if slack = infinity then 0.05 else Float.max 0.0 (Float.min slack 0.05) in
      let fds = Array.to_list (Array.map (fun c -> c.fd) g.conns) in
      let wfds =
        List.filter_map
          (fun c -> if Queue.is_empty c.outq then None else Some c.fd)
          (Array.to_list g.conns)
      in
      let readable, writable, _ =
        try Unix.select fds wfds [] timeout with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      Array.iteri
        (fun ci c ->
          if List.mem c.fd writable then flush_conn c;
          if List.mem c.fd readable then begin
            fill c;
            let rec frames () =
              match next_frame c with
              | Some f ->
                handle_frame g ci f;
                frames ()
              | None -> ()
            in
            frames ()
          end)
        g.conns
    end
  done;
  Hashtbl.iter
    (fun _ r ->
      r.error <- Some "no reply before the deadline";
      g.finished <- r :: g.finished)
    g.pending;
  Hashtbl.reset g.pending

let drain_checks g =
  while not (Queue.is_empty g.verify) do
    verify_one g
  done

let stream_reqs g stream = List.filter (fun r -> r.stream = stream) g.finished

let shape lat =
  String.concat " "
    (List.map
       (fun q -> Printf.sprintf "p%g %.4f" (100.0 *. q) (Kit.percentile lat q))
       [ 0.5; 0.9; 0.95; 0.99; 1.0 ])

(* Latency from due time; a failed request misses every limit. *)
let latency r = if r.error = None then r.done_at -. r.due else infinity
let latencies reqs = sorted (List.map latency reqs)
let tail reqs = Kit.tail (List.map (fun r -> (r.due, latency r)) reqs)

let count_outcomes r g =
  r.attempted <- r.attempted + List.length g.finished;
  List.iter
    (fun q ->
      match q.error with
      | Some m ->
        r.failed <- r.failed + 1;
        if r.failed <= 5 then log "%s: request %s failed: %s" r.workload q.id m
      | None -> ())
    g.finished

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)

type daemon = { pid : int; sock : string; metrics : string option }

let metrics_interval = 0.25

let start_daemon ~dir ~traced ~index args =
  let sock = Filename.concat dir "d.sock" in
  if Sys.file_exists sock then Sys.remove sock;
  let metrics =
    if traced then Some (Filename.concat dir (Printf.sprintf "metrics-%d.jsonl" index)) else None
  in
  let env =
    child_env
      ("ACE_DOMAINS=1"
      ::
      (match metrics with
      | Some p ->
        [ Printf.sprintf "ACE_METRICS_INTERVAL=%g" metrics_interval; "ACE_METRICS_PATH=" ^ p ]
      | None -> []))
  in
  let cpu, _ = Lazy.force cpu_plan in
  let pid =
    spawn ~log_path:(Filename.concat dir "daemon.log") ~env "taskset"
      ("-c" :: string_of_int cpu :: sibling "../bin/ace_serve.exe" :: "--socket" :: sock :: args)
  in
  { pid; sock; metrics }

let rec connect_client d ~deadline =
  if exited d.pid then failwith "the daemon exited during start-up (see its daemon.log)";
  if now () > deadline then failwith "the daemon did not open its socket";
  if not (Sys.file_exists d.sock) then begin
    Unix.sleepf 0.002;
    connect_client d ~deadline
  end
  else
    try Client.connect d.sock
    with Unix.Unix_error (Unix.ECONNREFUSED, _, _) ->
      Unix.sleepf 0.002;
      connect_client d ~deadline

(* One set-up: spawn the daemon with an empty artifact cache (no
   --cache-dir, so it compiles), then prepare every tenant — Describe,
   client keygen, Put_keys — on its own connection. *)
let setup_once ~dir ~traced ~seed ~index ~args ~tenants =
  let t0 = now () in
  let d = start_daemon ~dir ~traced ~index args in
  let prepared =
    List.mapi
      (fun i (tenant, model) ->
        let c = connect_client d ~deadline:(t0 +. 120.0) in
        let tp = now () in
        let sess =
          Telemetry.span ~cat:"client" ~args:[ ("tenant", tenant) ] "client.prepare" (fun () ->
              Client.prepare c ~tenant ~model
                ~key_seed:((seed * 7919) + (2 * i) + 1)
                ~oracle_seed:((seed * 7919) + (2 * i) + 2))
        in
        Client.close c;
        match sess with
        | Ok s -> (s, now () -. tp)
        | Error m -> failwith ("prepare " ^ tenant ^ ": " ^ m))
      tenants
  in
  (d, List.map fst prepared, now () -. t0, sum (List.map snd prepared))

(* Three set-ups, median reported; the last daemon serves the load. *)
let setup r ~dir ~traced ~seed ~args ~tenants =
  let runs =
    List.init 3 (fun index ->
        let ((d, _, _, _) as run) = setup_once ~dir ~traced ~seed ~index ~args ~tenants in
        if index < 2 then kill d.pid;
        run)
  in
  set r "setup_s" (Kit.median (List.map (fun (_, _, s, _) -> s) runs));
  set r "client.prepare_s" (Kit.median (List.map (fun (_, _, _, p) -> p) runs));
  let d, sessions, _, _ = List.nth runs 2 in
  (d, sessions)

let get_stats d =
  let c = Client.connect d.sock in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
      match Client.get_stats c with Ok s -> s | Error m -> failwith ("Get_stats: " ^ m))

let encrypt_timed times f =
  let t0 = now () in
  let ct = Telemetry.span ~cat:"client" "client.encrypt" f in
  times := (now () -. t0) :: !times;
  ct

(* Idle longer than one flush interval, so the first metrics line stamped
   after the window opens covers no earlier traffic. *)
let quiet_gap traced = if traced then Unix.sleepf (metrics_interval +. 0.05)

(* Per-layer numbers of a serve window: the generator's own timings, the
   daemon's flushed metrics since [since], Get_stats deltas and /proc.
   [served] is the number of requests answered in the window. *)
let serve_layers r g d ~since ~served ~stats0 ~stats1 ~cpu_s ~latency_p50 ~encrypt_s =
  let m, dropped =
    match d.metrics with
    | Some p -> Kit.merge_jsonl ~since (Kit.read_lines p)
    | None -> ([], 0)
  in
  if dropped > 0 then problem r "the daemon dropped %d trace events" dropped;
  if Telemetry.dropped_events () > 0 then
    problem r "the benchmark dropped %d trace events" (Telemetry.dropped_events ());
  let med xs = Kit.median xs in
  let n = float_of_int (max 1 served) in
  let per_req name = Kit.flushed_sum m name /. n in
  let count name = float_of_int (Kit.flushed_count m name) in
  set r "client.encrypt_s" (med encrypt_s);
  set r "client.decrypt_s" (med g.decrypt_s);
  set r "wire.request_bytes" (med g.request_bytes);
  set r "wire.result_bytes" (med g.result_bytes);
  set r "wire.encode_request_s" (med g.encode_s);
  set r "wire.decode_response_s" (med g.decode_s);
  set r "serve.admitted" (count "serve.admitted");
  set r "serve.rejected" (count "serve.rejected");
  set r "serve.coalesced" (float_of_int (stats1.Wire.sv_coalesced - stats0.Wire.sv_coalesced));
  let execs = count "request.per_ct" in
  set r "serve.requests_per_exec"
    (float_of_int (stats1.Wire.sv_served - stats0.Wire.sv_served) /. Float.max 1.0 execs);
  set r "serve.queue_depth_p50" (Kit.flushed_quantile m "serve.queue_depth" 0.5);
  set r "serve.queue_depth_p99" (Kit.flushed_quantile m "serve.queue_depth" 0.99);
  (* request.latency is one execution amortized over its batch regions *)
  let per_ct = Kit.flushed_sum m "request.per_ct" /. Float.max 1.0 execs in
  let exec_p50 = Kit.flushed_quantile m "request.latency" 0.5 *. per_ct in
  set r "vm.exec_p50_s" exec_p50;
  set r "vm.exec_p99_s" (Kit.flushed_quantile m "request.latency" 0.99 *. per_ct);
  let wire_s = med g.encode_s +. med g.decode_s in
  let wait_s = latency_p50 -. wire_s -. exec_p50 in
  set r "serve.wait_s" wait_s;
  List.iter
    (fun p -> set r ("phase." ^ p ^ "_s") (per_req ("phase." ^ p)))
    [ "conv"; "gemm"; "relu"; "bootstrap" ];
  List.iter
    (fun c -> set r ("fhe." ^ c ^ "_s") (per_req ("fhe." ^ c)))
    [ "key_switch"; "relinearize"; "rotate"; "rescale"; "encode"; "mult_plain"; "add" ];
  set r "fhe.key_switch.count" (count "fhe.key_switch" /. n);
  set r "fhe.bootstrap.count" (count "fhe.bootstrap" /. n);
  set r "gc.major_words_per_job" (per_req "gc.major_words");
  set r "gc.major_collections_per_job" (per_req "gc.major_collections");
  set r "proc.cpu_s_per_job" (cpu_s /. n);
  let calib =
    List.filter_map
      (fun (name, f) ->
        match f.Kit.f_sketch with
        | Some q when String.starts_with ~prefix:"calib." name ->
          let module Q = Ace_telemetry.Qsketch in
          Some
            {
              Telemetry.st_name = name;
              st_count = Q.count q;
              st_total = Q.sum q;
              st_min = Q.min_v q;
              st_max = Q.max_v q;
              st_p50 = Q.quantile q 0.5;
              st_p99 = Q.quantile q 0.99;
              st_p999 = Q.quantile q 0.999;
            }
        | _ -> None)
      m
  in
  let cal =
    Stats.calibration_of_snapshot
      { Telemetry.snap_domains = 1; snap_metrics = calib; snap_dropped = 0 }
  in
  set r "sched.cost_error_max"
    (List.fold_left
       (fun acc row ->
         let e = row.Stats.cal_error_ratio_p50 in
         if row.cal_category = "wavefront" || e <= 0.0 then acc
         else Float.max acc (Float.max e (1.0 /. e)))
       0.0 cal.Stats.cal_rows);
  let busy = Kit.flushed_sum m "request.latency" /. n in
  let phases =
    List.fold_left
      (fun acc (name, _) ->
        if String.starts_with ~prefix:"phase." name then acc +. per_req name else acc)
      0.0 m
  in
  Printf.printf
    "  attribution: latency_p50 %.6f s = wire %.6f + serve.wait %.6f + vm.exec_p50 %.6f\n"
    latency_p50 wire_s wait_s exec_p50;
  Printf.printf
    "  phase split per request: sum phase.* %.6f s of vm busy %.6f s, remainder %.6f s\n" phases
    busy (busy -. phases)

(* Compile the served models in this process: the daemon's compile is
   invisible from outside, and its cost is part of setup_s. *)
let served_compile r models =
  List.map
    (fun (spec, batch) ->
      let nn = Model_spec.nn spec in
      let t0 = now () in
      let c = Pipeline.compile ~batch Pipeline.ace nn in
      List.iter (fun (k, v) -> add r k v) (compile_split c (now () -. t0));
      List.iter (fun (k, v) -> add r k v) (compile_counts c);
      c)
    models

let wire_keys_bytes r sessions =
  set r "wire.keys_bytes"
    (sum
       (List.map
          (fun s -> float_of_int (String.length (Fhe_wire.encode_keys s.Client.keys)))
          sessions))

let check_nproc r ~daemon_domains =
  let nproc = List.length allowed_cpus in
  if 1 + daemon_domains > nproc then
    problem r "1 generator thread + %d daemon domain(s) exceed %d core(s)" daemon_domains nproc

(* A generator that cannot keep its schedule inflates every open-loop
   latency. Host stalls alone reached 6.5 ms at p99 in slow periods of
   the VM the bounds were measured on; 20 ms still catches a generator
   falling behind at a p50 latency of 40 ms. *)
let late_limit = 0.020

let check_lateness r g =
  let late = Kit.percentile (sorted g.late_s) 0.99 in
  set r "gen.late_p99_s" late;
  if late > late_limit then
    problem r "the generator ran late: p99 %.4f s > %g s" late late_limit

(* trace.overhead: the primary stream's p50 with bench tracing on (second
   half of its window) over the p50 with it off (first half). *)
let trace_overhead r reqs ~half =
  let p50 l = Kit.percentile (latencies l) 0.5 in
  let off, on = List.partition (fun q -> q.due < half) reqs in
  set r "trace.overhead" (p50 on /. p50 off)

let uniform_images ~seed ~n ~elems =
  let st = Random.State.make [| seed; elems |] in
  Array.init n (fun _ -> Array.init elems (fun _ -> Random.State.float st 2.0 -. 1.0))

let parse_spec s = match Model_spec.parse s with Ok m -> m | Error e -> failwith e

(* ------------------------------------------------------------------ *)
(* small-coalesce                                                      *)

let coalesce_rate = 150.0
let saturation_outstanding = 64

let small_coalesce r ~dir ~seed ~seconds ~traced =
  check_nproc r ~daemon_domains:1;
  let spec = parse_spec "gemv:16:4" in
  let batch = 8 in
  ignore (served_compile r [ (spec, batch) ]);
  let d, sessions =
    setup r ~dir ~traced ~seed
      ~args:[ "--model"; "s=gemv:16:4"; "--batch"; string_of_int batch; "--max-queue"; "256" ]
      ~tenants:[ ("t", "s") ]
  in
  let sess = List.hd sessions in
  let enc = ref [] in
  (* four inputs per region; request i uses pool.(i mod 32), region i mod 8 *)
  let pool =
    Array.mapi
      (fun j img ->
        let region = j mod batch in
        let reference = Model_spec.reference spec img in
        {
          tenant = "t";
          model = "s";
          region;
          coalesce = true;
          ct =
            encrypt_timed enc (fun () ->
                Client.encrypt_region sess ~seed:((seed * 1000) + j) ~region img);
          check_blob =
            (fun blob ->
              Result.bind (Client.decrypt sess ~region blob) (check_gemv reference));
        })
      (uniform_images ~seed ~n:(4 * batch) ~elems:(Model_spec.input_elems spec))
  in
  let pick i = (i mod 2, pool.(i mod Array.length pool)) in
  let g = gen_create [| connect_raw d.sock; connect_raw d.sock |] in
  if traced then Telemetry.set_tracing false;
  drive g ~trace_from:infinity ~deadline:(now () +. 60.0)
    ~sources:[ closed_loop g ~stream:"warmup" ~k:16 ~total:16 ~until:infinity ~pick ];
  quiet_gap traced;
  let stats0 = get_stats d and cpu0 = cpu_seconds d.pid in
  let steady = 0.75 *. seconds and sat = 0.25 *. seconds in
  let t0 = now () in
  let offsets = Kit.poisson_schedule ~seed ~rate:coalesce_rate ~duration:steady in
  drive g
    ~trace_from:(if traced then t0 +. (steady /. 2.0) else infinity)
    ~deadline:(t0 +. steady +. 30.0)
    ~sources:[ open_loop g ~stream:"steady" ~t0 ~offsets ~pick ];
  let t1 = now () in
  drive g
    ~trace_from:(if traced then t1 else infinity)
    ~deadline:(t1 +. sat +. 30.0)
    ~sources:
      [
        closed_loop g ~stream:"saturate" ~k:saturation_outstanding ~total:max_int
          ~until:(t1 +. sat) ~pick;
      ];
  drain_checks g;
  let stats1 = get_stats d and cpu1 = cpu_seconds d.pid in
  let steady_reqs = stream_reqs g "steady" in
  let lat = latencies steady_reqs in
  let latency_p50 = Kit.percentile lat 0.5 in
  let q, tail = tail steady_reqs in
  set r "latency_p50_s" latency_p50;
  set r "latency_tail_s" tail;
  let good =
    List.filter
      (fun q -> q.error = None && q.done_at <= t1 +. sat)
      (stream_reqs g "saturate")
  in
  set r "goodput_rps" (float_of_int (List.length good) /. sat);
  set r "peak_rss_mb" (peak_rss_mb d.pid);
  Printf.printf "  steady: %d requests at %.0f/s, tail = p%g; %s; saturation: %d outstanding\n"
    (List.length steady_reqs) coalesce_rate (100.0 *. q) (shape lat) saturation_outstanding;
  check_lateness r g;
  count_outcomes r g;
  if traced then begin
    let served = List.length (List.filter (fun q -> q.stream <> "warmup") g.finished) in
    Array.iter (fun c -> Unix.close c.fd) g.conns;
    stop ~grace:15.0 d.pid;
    trace_overhead r steady_reqs ~half:(t0 +. (steady /. 2.0));
    serve_layers r g d ~since:t0 ~served ~stats0 ~stats1 ~cpu_s:(cpu1 -. cpu0) ~latency_p50
      ~encrypt_s:!enc;
    wire_keys_bytes r sessions;
    List.iter (fun (k, v) -> set r k v) (rns_kernels sess.Client.context)
  end
  else begin
    Array.iter (fun c -> Unix.close c.fd) g.conns;
    stop ~grace:15.0 d.pid
  end

(* ------------------------------------------------------------------ *)
(* mixed-tenants                                                       *)

let light_rate = 25.0

(* The polynomial ReLU is only accurate on the range the model was
   calibrated for; an image driving some activation outside it yields
   garbage, encrypted or not. Keep the first [count] seeded images whose
   cleartext SIHE run (approximations in, no encryption) matches the NN
   reference. *)
let in_domain_images (c : Pipeline.compiled) spec ~seed ~count =
  let candidates =
    (Dataset.generate ~classes:10 ~image_size:8 ~count:(8 * count) ~noise:0.1 ~seed).Dataset.images
  in
  let valid x =
    let approx =
      Layout.tensor_of_vector (List.hd c.output_layouts)
        (Ace_sihe.Sihe_interp.run1 c.sihe (Layout.vector_of_tensor c.input_layout x))
    in
    max_abs_diff (Model_spec.reference spec x) approx <= 0.01
  in
  let chosen = List.filteri (fun i _ -> i < count) (List.filter valid (Array.to_list candidates)) in
  if List.length chosen < count then failwith "too few in-domain heavy inputs for this seed";
  Array.of_list chosen

let mixed_tenants r ~dir ~seed ~seconds ~traced =
  check_nproc r ~daemon_domains:1;
  let light_spec = parse_spec "gemv:16:4" and heavy_spec = parse_spec "resnet:8:10:8:4" in
  let heavy_c =
    match served_compile r [ (light_spec, 1); (heavy_spec, 1) ] with
    | [ _; h ] -> h
    | _ -> assert false
  in
  let heavy_images = in_domain_images heavy_c heavy_spec ~seed ~count:3 in
  let d, sessions =
    setup r ~dir ~traced ~seed
      ~args:
        [
          "--model"; "light=gemv:16:4"; "--model"; "heavy=resnet:8:10:8:4"; "--batch"; "1";
          "--max-queue"; "256";
        ]
      ~tenants:[ ("light", "light"); ("heavy", "heavy") ]
  in
  let light_sess, heavy_sess =
    match sessions with [ l; h ] -> (l, h) | _ -> assert false
  in
  let enc = ref [] in
  let payload sess ~tenant ~check ~seed img =
    let spec = if tenant = "light" then light_spec else heavy_spec in
    let reference = Model_spec.reference spec img in
    {
      tenant;
      model = tenant;
      region = 0;
      coalesce = false;
      ct = encrypt_timed enc (fun () -> Client.encrypt sess ~seed img);
      check_blob = (fun blob -> Result.bind (Client.decrypt sess ~region:0 blob) (check reference));
    }
  in
  let light =
    Array.mapi
      (fun j img ->
        payload light_sess ~tenant:"light" ~check:check_gemv ~seed:((seed * 1000) + j) img)
      (uniform_images ~seed ~n:16 ~elems:(Model_spec.input_elems light_spec))
  in
  let heavy =
    Array.mapi
      (fun j img ->
        payload heavy_sess ~tenant:"heavy" ~check:check_resnet ~seed:((seed * 1000) + 500 + j) img)
      heavy_images
  in
  let pick_light i = (0, light.(i mod Array.length light)) in
  let pick_heavy i = (1, heavy.(i mod Array.length heavy)) in
  let g = gen_create [| connect_raw d.sock; connect_raw d.sock |] in
  if traced then Telemetry.set_tracing false;
  drive g ~trace_from:infinity ~deadline:(now () +. 60.0)
    ~sources:
      [
        closed_loop g ~stream:"warmup-heavy" ~k:1 ~total:1 ~until:infinity ~pick:pick_heavy;
        closed_loop g ~stream:"warmup-light" ~k:4 ~total:4 ~until:infinity ~pick:pick_light;
      ];
  quiet_gap traced;
  let stats0 = get_stats d and cpu0 = cpu_seconds d.pid in
  let t0 = now () in
  let offsets = Kit.poisson_schedule ~seed ~rate:light_rate ~duration:seconds in
  drive g
    ~trace_from:(if traced then t0 +. (seconds /. 2.0) else infinity)
    ~deadline:(t0 +. seconds +. 60.0)
    ~sources:
      [
        open_loop g ~stream:"light" ~t0 ~offsets ~pick:pick_light;
        closed_loop g ~stream:"heavy" ~k:1 ~total:max_int ~until:(t0 +. seconds) ~pick:pick_heavy;
      ];
  drain_checks g;
  let stats1 = get_stats d and cpu1 = cpu_seconds d.pid in
  let light_reqs = stream_reqs g "light" and heavy_reqs = stream_reqs g "heavy" in
  let lat = latencies light_reqs in
  let latency_p50 = Kit.percentile lat 0.5 in
  let q, tail = tail light_reqs in
  set r "latency_p50_s" latency_p50;
  set r "latency_tail_s" tail;
  (* closed loop with one outstanding: completions per second of its own
     busy time, i.e. the inverse of the heavy tenant's mean latency *)
  let heavy_ok = List.filter (fun q -> q.error = None) heavy_reqs in
  set r "goodput_rps"
    (float_of_int (List.length heavy_ok) /. sum (List.map (fun q -> q.done_at -. q.due) heavy_ok));
  set r "peak_rss_mb" (peak_rss_mb d.pid);
  Printf.printf "  light: %d requests at %.0f/s, tail = p%g; %s; heavy: %d requests; %s\n"
    (List.length light_reqs) light_rate (100.0 *. q) (shape lat) (List.length heavy_reqs)
    (shape (latencies heavy_reqs));
  check_lateness r g;
  count_outcomes r g;
  Array.iter (fun c -> Unix.close c.fd) g.conns;
  stop ~grace:15.0 d.pid;
  if traced then begin
    let served = List.length light_reqs + List.length heavy_reqs in
    trace_overhead r light_reqs ~half:(t0 +. (seconds /. 2.0));
    serve_layers r g d ~since:t0 ~served ~stats0 ~stats1 ~cpu_s:(cpu1 -. cpu0) ~latency_p50
      ~encrypt_s:!enc;
    wire_keys_bytes r sessions;
    List.iter (fun (k, v) -> set r k v) (rns_kernels heavy_sess.Client.context)
  end

(* ------------------------------------------------------------------ *)
(* compile-zoo                                                         *)

(* The paper's Fig. 5 models; the seed picks their weights, which moves
   no compiler decision. *)
let zoo seed =
  List.map
    (fun s -> { s with Resnet.seed = s.Resnet.seed + (1000 * seed) })
    [ Resnet.resnet20; Resnet.resnet32; Resnet.resnet44 ]

let zoo_spec_string (s : Resnet.spec) =
  Printf.sprintf "resnet:%d:%d:%d:%d:%d" s.depth s.classes s.image_size s.base_channels s.seed

(* The child: build the graphs (set-up ends at "ready"), then compile the
   zoo in jobs until [seconds] pass, and report through stdout lines
   "set NAME VALUE", "problem TEXT" and "count ATTEMPTED FAILED". *)
let compile_child ~mode ~seed ~seconds ~traced ~dir =
  Ace_util.Domain_pool.set_num_domains 1;
  let models = List.map (fun s -> (s, Resnet.build_calibrated s)) (zoo seed) in
  print_endline "ready";
  if mode = "window" then begin
    let set k v = Printf.printf "set %s %s\n" k (json_num v) in
    let problems = ref [] in
    let failed = ref 0 in
    let digests = Hashtbl.create 4 in
    let jobs = ref [] in
    let splits = ref [] in
    let last = ref [] in
    let g0 = Gc.quick_stat () and c0 = Unix.times () in
    let t_start = now () in
    let k = ref 0 in
    (* Start a job only if it can end inside the window, judged by the
       previous job, so the job count does not hinge on a few ms. Traced
       runs alternate tracing off/on per job, so they run at least two. *)
    let last_job = ref 0.0 in
    while !k < (if traced then 2 else 1) || now () -. t_start +. !last_job <= seconds do
      Telemetry.set_tracing (traced && !k mod 2 = 1);
      let compiled =
        List.map
          (fun ((s : Resnet.spec), nn) ->
            let t0 = now () in
            let c =
              Telemetry.span ~cat:"bench"
                ~args:[ ("job", string_of_int !k); ("model", s.model_name) ]
                "pipeline.compile"
                (fun () -> Pipeline.compile ~batch:1 Pipeline.ace nn)
            in
            (s, nn, c, now () -. t0))
          models
      in
      last_job := sum (List.map (fun (_, _, _, w) -> w) compiled);
      jobs := (!k, !last_job) :: !jobs;
      splits :=
        sum_by_name (List.concat_map (fun (_, _, c, w) -> compile_split c w) compiled) :: !splits;
      (* artifact bytes must not depend on the repetition *)
      List.iter
        (fun ((s : Resnet.spec), _, c, _) ->
          let spec = zoo_spec_string s in
          let hash = Wire.artifact_hash ~spec ~strategy:Pipeline.ace ~batch:1 ~complex:false in
          let dg = Digest.string (Wire.encode_artifact (Wire.artifact_of_compiled ~spec ~hash c)) in
          match Hashtbl.find_opt digests spec with
          | None -> Hashtbl.replace digests spec dg
          | Some first when first = dg -> ()
          | Some _ ->
            incr failed;
            problems :=
              Printf.sprintf "%s: artifact bytes differ in job %d" s.model_name !k :: !problems)
        compiled;
      last := compiled;
      incr k
    done;
    let c1 = Unix.times () and g1 = Gc.quick_stat () in
    Telemetry.set_tracing false;
    let n = float_of_int !k in
    let job_times = List.map snd !jobs in
    set "latency_p50_s" (Kit.median job_times);
    set "latency_tail_s" (snd (Kit.tail (List.map (fun (j, t) -> (float_of_int j, t)) !jobs)));
    set "goodput_rps" (float_of_int (List.length models) *. n /. sum job_times);
    set "peak_rss_mb" (peak_rss_mb (Unix.getpid ()));
    (* the compiled VECTOR program must compute the NN function exactly *)
    let images = (Dataset.generate ~classes:10 ~image_size:8 ~count:1 ~noise:0.1 ~seed).images in
    List.iter
      (fun ((s : Resnet.spec), nn, (c : Pipeline.compiled), _) ->
        let x = images.(0) in
        let want = Ace_nn.Nn_interp.run1 nn x in
        let got =
          Layout.tensor_of_vector (List.hd c.output_layouts)
            (Ace_vector.Vec_interp.run1 c.vec (Layout.vector_of_tensor c.input_layout x))
        in
        let e = max_abs_diff want got in
        if not (e <= 1e-6) then begin
          incr failed;
          problems := Printf.sprintf "%s: VECTOR output differs by %g" s.model_name e :: !problems
        end)
      !last;
    if traced then begin
      List.iter
        (fun (name, _) -> set name (Kit.median (List.map (List.assoc name) !splits)))
        (List.hd !splits);
      List.iter
        (fun (k, v) -> set k v)
        (sum_by_name (List.concat_map (fun (_, _, c, _) -> compile_counts c) !last));
      let cpu = c1.Unix.tms_utime +. c1.tms_stime -. c0.Unix.tms_utime -. c0.tms_stime in
      set "proc.cpu_s_per_job" (cpu /. n);
      set "gc.major_words_per_job" ((g1.Gc.major_words -. g0.Gc.major_words) /. n);
      set "gc.major_collections_per_job"
        (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) /. n);
      let median_of traced_jobs =
        Kit.median
          (List.filter_map (fun (j, t) -> if j mod 2 = traced_jobs then Some t else None) !jobs)
      in
      set "trace.overhead" (median_of 1 /. median_of 0);
      let _, _, c, _ = List.hd !last in
      List.iter (fun (k, v) -> set k v) (rns_kernels c.context);
      Telemetry.write_trace (Filename.concat dir "trace.json");
      if Telemetry.dropped_events () > 0 then
        problems :=
          Printf.sprintf "dropped %d trace events" (Telemetry.dropped_events ()) :: !problems
    end;
    List.iter (fun p -> Printf.printf "problem %s\n" p) !problems;
    Printf.printf "count %d %d\n%!" (!k * List.length models) !failed
  end

let compile_zoo r ~dir ~seed ~seconds ~traced =
  check_nproc r ~daemon_domains:0;
  r.bypassed <-
    [ "client."; "wire."; "serve."; "vm."; "phase."; "fhe."; "gen."; "sched.cost_error_max" ];
  let child mode =
    let rd, wr = Unix.pipe ~cloexec:true () in
    let t0 = now () in
    let pid =
      spawn ~stdout:wr ~log_path:(Filename.concat dir "child.log") ~env:(child_env [])
        Sys.executable_name
        [
          "compile-child"; "--mode"; mode; "--seed"; string_of_int seed; "--seconds";
          Printf.sprintf "%g" seconds; "--trace"; (if traced then "1" else "0"); "--dir"; dir;
        ]
    in
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let ready = try input_line ic = "ready" with End_of_file -> false in
    let setup_s = now () -. t0 in
    let out = Kit.input_lines ic in
    close_in ic;
    let status = snd (Unix.waitpid [] pid) in
    forget pid;
    if (not ready) || status <> Unix.WEXITED 0 then
      problem r "compile child (%s) failed; see child.log" mode;
    (setup_s, out)
  in
  let s1, _ = child "setup" in
  let s2, _ = child "setup" in
  let s3, out = child "window" in
  set r "setup_s" (Kit.median [ s1; s2; s3 ]);
  List.iter
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "set"; k; v ] -> set r k (float_of_string v)
      | [ "count"; a; f ] ->
        r.attempted <- int_of_string a;
        r.failed <- int_of_string f
      | "problem" :: rest -> problem r "%s" (String.concat " " rest)
      | _ -> problem r "unexpected line from the compile child: %S" l)
    out

(* ------------------------------------------------------------------ *)
(* run                                                                 *)

let workloads =
  [
    ("compile-zoo", compile_zoo);
    ("small-coalesce", small_coalesce);
    ("mixed-tenants", mixed_tenants);
  ]

let run_workload bench ~workload ~seed ~seconds ~traced ~out =
  let r =
    {
      workload;
      attempted = 0;
      failed = 0;
      problems = [];
      values = Hashtbl.create 64;
      bypassed = [];
    }
  in
  let dir = Filename.concat ".acebench" workload in
  if not (Sys.file_exists ".acebench") then Unix.mkdir ".acebench" 0o755;
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  ignore (Lazy.force cpu_plan);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Telemetry.reset_all ();
  Telemetry.set_tracing traced;
  (try (List.assoc workload workloads) r ~dir ~seed ~seconds ~traced
   with e -> problem r "aborted: %s" (Printexc.to_string e));
  List.iter kill !children;
  if traced && workload <> "compile-zoo" then
    Telemetry.write_trace (Filename.concat dir "trace.json");
  let line = report r ~defs:(if traced then bench.layers else bench.e2e) in
  Option.iter
    (fun path ->
      let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
      Printf.fprintf oc "{\"workload\": %S, \"seed\": %d, \"trace\": %d, \"result\": %s}\n" workload
        seed (if traced then 1 else 0) line;
      close_out oc)
    out;
  print_endline line;
  r.problems = [] && r.failed = 0

(* ------------------------------------------------------------------ *)
(* compare                                                             *)

let compare_files bench base change =
  let runs path =
    List.filter_map
      (fun l ->
        if String.trim l = "" then None
        else
          let doc = try Json.parse l with Json.Parse_error m -> die "%s: %s" path m in
          (* untraced runs that passed every check *)
          match (Json.member "workload" doc, Json.member "trace" doc, Json.member "result" doc) with
          | Some (Json.Str w), Some (Json.Num 0.0), Some res
            when Json.member "correct" res = Some (Json.Bool true) ->
            Some (w, res)
          | _ -> None)
      (Kit.read_lines path)
  in
  let a = runs base and b = runs change in
  let values runs w name =
    List.filter_map
      (fun (w', res) ->
        if w' <> w then None
        else
          match Option.bind (Json.member "metrics" res) (Json.member name) with
          | Some m -> (match Json.member "value" m with Some (Json.Num v) -> Some v | _ -> None)
          | None -> None)
      runs
  in
  let regressed = ref false in
  Printf.printf "%-16s %-16s %12s %12s %8s %7s  %s\n" "workload" "metric" "base p50" "change p50"
    "change" "bound" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun d ->
          match (values a w d.name, values b w d.name) with
          | [], _ | _, [] -> ()
          | va, vb ->
            let v = Kit.classify ~lower_is_better:d.lower ~bound:d.bound ~base:va ~change:vb in
            if v = Kit.Regressed then regressed := true;
            let ma = Kit.median va and mb = Kit.median vb in
            Printf.printf
              "%-16s %-16s %12.6g %12.6g %+7.1f%% %6.0f%%  %s (n=%d/%d, spread %.1f%%/%.1f%%)\n" w
              d.name ma mb
              (100.0 *. (mb -. ma) /. ma)
              (100.0 *. d.bound) (Kit.verdict_name v) (List.length va) (List.length vb)
              (100.0 *. Kit.rel_spread va)
              (100.0 *. Kit.rel_spread vb))
        bench.e2e)
    (List.map fst workloads);
  if !regressed then exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let () =
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 143));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 130));
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = List.tl (Array.to_list Sys.argv) in
  (* "--key value" pairs anywhere, everything else positional *)
  let rec split o pos = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> split ((k, v) :: o) pos rest
    | [ k ] when String.starts_with ~prefix:"--" k -> die "%s needs a value" k
    | p :: rest -> split o (p :: pos) rest
    | [] -> (o, List.rev pos)
  in
  match args with
  | "run" :: rest ->
    let o, extra = split [] [] rest in
    if extra <> [] then die "unexpected argument %s" (List.hd extra);
    List.iter
      (fun (k, _) ->
        if not (List.mem k [ "--workload"; "--seed"; "--seconds"; "--trace"; "--out" ]) then
          die "unknown option %s" k)
      o;
    let get k = List.assoc_opt k o in
    let int k default =
      match get k with
      | None -> default
      | Some v -> (
        match int_of_string_opt v with Some n -> n | None -> die "%s: not an integer: %s" k v)
    in
    let bench = load_bench "BENCHMARK.json" in
    let seconds = float_of_int (int "--seconds" bench.run_seconds) in
    let traced =
      match int "--trace" 0 with 0 -> false | 1 -> true | _ -> die "--trace takes 0 or 1"
    in
    let seed = int "--seed" 1 in
    if seconds <= 0.0 then die "--seconds must be positive";
    let chosen =
      match get "--workload" with None | Some "all" -> List.map fst workloads | Some w -> [ w ]
    in
    List.iter
      (fun w -> if not (List.mem_assoc w workloads) then die "unknown workload %S" w)
      chosen;
    Ace_util.Domain_pool.set_num_domains 1;
    (* A lazier major GC keeps collection slices from delaying sends:
       the generator allocates ~100 KB of frames per request. *)
    Gc.set { (Gc.get ()) with space_overhead = 400 };
    let ok =
      List.fold_left
        (fun ok workload ->
          run_workload bench ~workload ~seed ~seconds ~traced ~out:(get "--out") && ok)
        true chosen
    in
    exit (if ok then 0 else 1)
  | "compare" :: rest -> (
    match split [] [] rest with
    | [], [ a; b ] -> compare_files (load_bench "BENCHMARK.json") a b
    | _ -> die "usage: ace_bench compare BASE.jsonl CHANGE.jsonl")
  | "compile-child" :: rest ->
    let o, _ = split [] [] rest in
    let get k =
      match List.assoc_opt k o with Some v -> v | None -> die "compile-child: %s missing" k
    in
    compile_child ~mode:(get "--mode") ~seed:(int_of_string (get "--seed"))
      ~seconds:(float_of_string (get "--seconds"))
      ~traced:(get "--trace" = "1") ~dir:(get "--dir")
  | _ ->
    die
      "usage: ace_bench run [--workload %s|all] [--seed N] [--seconds S] [--trace 0|1]\n\
      \                     [--out FILE]\n\
      \       ace_bench compare BASE.jsonl CHANGE.jsonl"
      (String.concat "|" (List.map fst workloads))
