module Fhe = Ace_fhe
module Ciphertext = Fhe.Ciphertext
module Eval = Fhe.Eval
module Encoder = Fhe.Encoder
module Context = Fhe.Context
module Cost = Fhe.Cost
module Telemetry = Ace_telemetry.Telemetry
module Cplx = Fhe.Cplx
open Ace_ir

type bootstrap_impl = node:int -> target_level:int -> Ciphertext.ct -> Ciphertext.ct

type t = {
  keys : Fhe.Keys.t;
  bootstrap : bootstrap_impl;
  func : Irfunc.t;
  (* Encoded weight plaintexts keyed by node id, filled on first use. A
     C_encode's input is a pure function of the weight constants (cleartext
     values never depend on encrypted parameters), so across runs of one VM
     the encode — embedding, rounding and the forward NTT — can be paid
     once per node instead of once per inference. [None] disables caching:
     a single-shot run then frees each plaintext after its last use.
     [pt_lock] keeps lookups safe when executions of one VM run on
     different domains; encoding is pure, so a racing double-encode is
     only wasted work and the first insertion wins. *)
  pt_cache : (int, Ciphertext.pt) Hashtbl.t option;
  pt_lock : Mutex.t;
  (* Sequential plan, computed on the first [step]: every execution of
     one prepared VM shares it. *)
  mutable plan : seq_plan option;
}

and seq_plan = {
  to_free : int array array;  (** {!Sched.plan}: values dead once node [i] has run *)
  node_ns : float array;  (** {!Sched.node_ns} of node [i] *)
  cost_before : float array;
      (** {!Sched.node_ns} of nodes [0..i-1], summed in program order so
          that entry [num_nodes] is {!Sched.func_ns} exactly *)
}

let phase_of_origin origin =
  match String.index_opt origin ':' with
  | Some i -> (
    match String.sub origin 0 i with
    | "conv" -> "conv"
    | "relu" -> "relu"
    | "gemm" -> "gemm"
    | "pool" -> "pool"
    | _ -> "other")
  | None -> "other"

let prepare ?(cache_plaintexts = false) ~keys ~bootstrap func =
  if Irfunc.level func <> Level.Ckks then invalid_arg "Vm.prepare: not a CKKS function";
  {
    keys;
    bootstrap;
    func;
    pt_cache = (if cache_plaintexts then Some (Hashtbl.create 256) else None);
    pt_lock = Mutex.create ();
    plan = None;
  }

(* Release each value after its last use ({!Sched.plan}, the plan the
   verifier checks): compiled functions hold tens of thousands of
   ciphertexts and plaintexts, far more than ever live at once (the
   generated C frees them the same way). *)
let seq_plan t =
  match t.plan with
  | Some p -> p
  | None ->
    let f = t.func in
    let num_nodes = Irfunc.num_nodes f in
    let to_free = Sched.free_after (Sched.plan f) in
    let ring_degree = Context.ring_degree t.keys.Fhe.Keys.context in
    let cached_encodes = t.pt_cache <> None in
    let node_ns =
      Array.init num_nodes (fun i -> Sched.node_ns ~ring_degree ~cached_encodes f (Irfunc.node f i))
    in
    let cost_before = Array.make (num_nodes + 1) 0.0 in
    for i = 0 to num_nodes - 1 do
      cost_before.(i + 1) <- cost_before.(i) +. node_ns.(i)
    done;
    let p = { to_free; node_ns; cost_before } in
    t.plan <- Some p;
    p

type value =
  | V_ct of Ciphertext.ct
  | V_pt of Ciphertext.pt
  | V_ct_batch of Ciphertext.ct array
      (* hoisted rotation bundle; elements are handed out through
         C_batch_get as non-owning views *)
  | V_clear of float array
  | V_none

(* Return a dead value's ciphertext buffers to the limb pool. Called at
   exactly the points [Sched.plan] marks a value dead, which is what
   makes recycling safe: no later node can name the value.

   A C_batch_get value is a VIEW — the same ciphertext record the batch
   still holds, and the same index may be extracted again much later (a
   gemm reads its rotation bundle once per diagonal block). Views
   therefore own nothing; the batch keeps ownership of every element and
   [Sched.plan] extends the batch's lifetime over all of its views'
   consumers. Plaintexts are recycled only when the encode cache is off —
   cached encodings are shared across runs and immortal. *)
let release_value t id v =
  match (Irfunc.node t.func id).Irfunc.op with
  | Op.C_batch_get _ -> ()
  | _ -> (
    match v with
    | V_ct c -> Ciphertext.release c
    | V_ct_batch cts -> Array.iter Ciphertext.release cts
    | V_pt p -> if t.pt_cache = None then Ciphertext.release_pt p
    | V_clear _ | V_none -> ())

(* Execute one node against [values] and return its result. Pure in the
   dataflow sense: reads only argument slots (written by strictly earlier
   nodes), writes nothing — the caller stores the result. Everything it
   calls is domain-safe (Limb_pool scratch is domain-local, Crt memo
   tables and automorphism caches take their own locks, telemetry records
   on the executing domain's shard). *)
let exec_node t values inputs (n : Irfunc.node) =
  let ctx = t.keys.Fhe.Keys.context in
  let f = t.func in
  let ct i =
    match values.(n.Irfunc.args.(i)) with
    | V_ct c -> c
    | _ -> invalid_arg (Printf.sprintf "Vm.run: node %%%d arg %d is not a ciphertext" n.Irfunc.id i)
  in
  let clear i =
    match values.(n.Irfunc.args.(i)) with
    | V_clear v -> v
    | _ -> invalid_arg (Printf.sprintf "Vm.run: node %%%d arg %d is not cleartext" n.Irfunc.id i)
  in
  let roll v k =
    let len = Array.length v in
    let k = ((k mod len) + len) mod len in
    Array.init len (fun i -> v.((i + k) mod len))
  in
  match n.Irfunc.op with
  | Op.Param i ->
    if i >= Array.length inputs then invalid_arg "Vm.run: missing encrypted input";
    (* The caller still holds this ciphertext; it must survive the run. *)
    Ciphertext.mark_shared inputs.(i);
    V_ct inputs.(i)
  | Op.Weight name -> V_clear (Irfunc.const f name)
  | Op.Const_scalar v -> V_clear [| v |]
  (* cleartext VECTOR ops surviving at CKKS level *)
  | Op.V_add -> V_clear (Array.map2 ( +. ) (clear 0) (clear 1))
  | Op.V_sub -> V_clear (Array.map2 ( -. ) (clear 0) (clear 1))
  | Op.V_mul -> V_clear (Array.map2 ( *. ) (clear 0) (clear 1))
  | Op.V_roll k -> V_clear (roll (clear 0) k)
  | Op.V_slice { Op.start; slice_len; stride } ->
    let v = clear 0 in
    V_clear (Array.init slice_len (fun i -> v.(start + (i * stride))))
  | Op.V_broadcast _ | Op.V_pad _ | Op.V_reshape _ | Op.V_tile _ | Op.V_nonlinear _ ->
    invalid_arg ("Vm.run: unsupported clear op " ^ Op.name n.Irfunc.op)
  | (Op.C_encode | Op.C_encode_pair) as enc_op -> (
    let encode () =
      match enc_op with
      | Op.C_encode_pair ->
        (* v + i*v: the plaintext addend of a complex-packed region must
           shift both streams (see Ckks_cplx). *)
        Encoder.encode_complex ctx ~level:n.Irfunc.node_level ~scale:n.Irfunc.scale
          (Array.map (fun x -> { Cplx.re = x; im = x }) (clear 0))
      | _ -> Encoder.encode ctx ~level:n.Irfunc.node_level ~scale:n.Irfunc.scale (clear 0)
    in
    match t.pt_cache with
    | None -> V_pt (encode ())
    | Some cache -> (
      let cached =
        Mutex.lock t.pt_lock;
        let r = Hashtbl.find_opt cache n.Irfunc.id in
        Mutex.unlock t.pt_lock;
        r
      in
      match cached with
      | Some p -> V_pt p
      | None ->
        let p = encode () in
        Mutex.lock t.pt_lock;
        let p =
          match Hashtbl.find_opt cache n.Irfunc.id with
          | Some winner -> winner
          | None ->
            Hashtbl.add cache n.Irfunc.id p;
            p
        in
        Mutex.unlock t.pt_lock;
        V_pt p))
  | Op.C_decode -> invalid_arg "Vm.run: CKKS.decode belongs to the decryptor"
  | Op.C_add -> (
    match values.(n.Irfunc.args.(1)) with
    | V_pt p -> V_ct (Eval.add_plain (ct 0) p)
    | _ -> V_ct (Eval.add (ct 0) (ct 1)))
  | Op.C_sub -> (
    match values.(n.Irfunc.args.(1)) with
    | V_pt p -> V_ct (Eval.sub_plain (ct 0) p)
    | _ -> V_ct (Eval.sub (ct 0) (ct 1)))
  | Op.C_mul -> (
    match values.(n.Irfunc.args.(1)) with
    | V_pt p -> V_ct (Eval.mul_plain (ct 0) p)
    | _ -> V_ct (Eval.mul_raw (ct 0) (ct 1)))
  | Op.C_relin -> V_ct (Eval.relinearize t.keys (ct 0))
  | Op.C_neg -> V_ct (Eval.neg (ct 0))
  | Op.C_rotate k -> V_ct (Eval.rotate t.keys (ct 0) k)
  | Op.C_conj -> V_ct (Eval.conjugate t.keys (ct 0))
  | Op.C_mul_i -> V_ct (Eval.mul_i (ct 0))
  | Op.C_rotate_batch steps -> V_ct_batch (Eval.rotate_batch t.keys (ct 0) steps)
  | Op.C_batch_get i -> (
    match values.(n.Irfunc.args.(0)) with
    | V_ct_batch cts ->
      (* A view into the batch: the batch keeps ownership (the same index
         may be extracted again by a later consumer), and [Sched.plan]
         keeps the batch alive past every view's last use. *)
      V_ct cts.(i)
    | _ ->
      invalid_arg
        (Printf.sprintf "Vm.run: node %%%d batch_get argument is not a batch" n.Irfunc.id))
  | Op.C_rescale -> V_ct (Eval.rescale (ct 0))
  | Op.C_mod_switch -> V_ct (Eval.mod_switch (ct 0))
  | Op.C_upscale r ->
    let c = ct 0 in
    V_ct (Eval.upscale ctx c ~target_scale:(Ciphertext.scale_of c *. r))
  | Op.C_downscale r ->
    (* Scale re-interpretation: bounded error (DESIGN.md). The polynomial
       copies keep result and operand independently recyclable — one slab
       memcpy instead of aliasing both out of the pool. *)
    let c = ct 0 in
    V_ct
      {
        Ciphertext.polys = Array.map Ace_rns.Rns_poly.clone c.Ciphertext.polys;
        ct_scale = c.Ciphertext.ct_scale /. r;
      }
  | Op.C_bootstrap target ->
    Cost.count Cost.Bootstrap;
    V_ct (t.bootstrap ~node:n.Irfunc.id ~target_level:target (ct 0))
  | op -> invalid_arg ("Vm.run: unexpected op " ^ Op.name op)

(* Cost-model accountability: one metric per Sched category collecting
   measured / predicted ns. Pre-registered so the hot path never takes
   the registry mutex. Nodes predicted under [calib_floor_ns] are
   skipped: the clock ticks in microseconds, so their measurement is
   mostly quantisation, not model signal. *)
let calib_metrics =
  lazy
    (List.map
       (fun c -> (c, Telemetry.metric ("calib." ^ c)))
       [ "key_switch"; "mul"; "rescale"; "encode"; "add"; "bootstrap" ])

let calib_floor_ns = 10_000.0

let observe_calib (n : Irfunc.node) ~predicted busy =
  if predicted >= calib_floor_ns then
    match List.assoc_opt (Sched.node_category n) (Lazy.force calib_metrics) with
    | Some m -> Telemetry.observe m (busy *. 1e9 /. predicted)
    | None -> ()

(* Node accounting, once per node whatever the number of pieces it ran
   in: phase time, the calibration ratio and the per-node span, all from
   [busy], the node's time summed over its pieces. [tag] carries
   request-attribution args (batch request ids) into every span. *)
let record_node ~tag ~predicted (n : Irfunc.node) ~t0 ~busy =
  let phase =
    match n.Irfunc.op with
    | Op.C_bootstrap _ -> "bootstrap"
    | _ -> phase_of_origin n.Irfunc.origin
  in
  Cost.add_phase_time phase busy;
  observe_calib n ~predicted busy;
  Telemetry.emit_span ~cat:phase
    ~args:(("origin", n.Irfunc.origin) :: tag)
    ~name:("vm." ^ Op.name n.Irfunc.op) ~t0 ~dur:busy ()

let m_suspensions = lazy (Telemetry.metric "vm.node_suspensions")

let collect_returns f values =
  List.map
    (fun r ->
      match values.(r) with
      | V_ct c -> c
      | _ -> invalid_arg "Vm.run: non-ciphertext return")
    (Irfunc.returns f)

(* A node suspended between two of its pieces ({!Ace_fhe.Job}). *)
type in_flight = { job : value Fhe.Job.t; started : float; busy : float }

(* A paused sequential execution: the program-order cursor plus the value
   table. Everything the loop needs between slices lives here, so several
   executions of one prepared VM can be interleaved node by node. *)
type exec = {
  vm : t;
  tag : (string * string) list;
  observe : Irfunc.node -> Ciphertext.ct -> unit;
  inputs : Ciphertext.ct array;
  values : value array;
  mutable next : int;  (** id of the next node to execute *)
  mutable in_flight : in_flight option;  (** node [next], suspended part-way *)
  mutable finished : bool;  (** outputs returned, or aborted *)
  (* the open per-NN-operator group span, "" when none is open *)
  mutable cur_origin : string;
  mutable cur_start : float;
}

let start_observed ?(tag = []) ~observe t inputs =
  {
    vm = t;
    tag;
    observe;
    inputs = Array.of_list inputs;
    values = Array.make (Irfunc.num_nodes t.func) V_none;
    next = 0;
    in_flight = None;
    finished = false;
    cur_origin = "";
    cur_start = 0.0;
  }

let start ?tag t inputs = start_observed ?tag ~observe:(fun _ _ -> ()) t inputs

(* Per-NN-operator trace grouping: consecutive nodes sharing an origin
   (one conv, one relu block...) become a single enclosing span, so the
   Chrome view nests per-FHE-op spans (from [Cost.timed]) under the NN
   operator that issued them. The group is closed at every slice end, so
   a group span never covers another execution's nodes. Pure bookkeeping
   unless tracing is on. *)
let close_group e now =
  if e.cur_origin <> "" then
    Telemetry.emit_span ~cat:"nn" ~name:("nn." ^ e.cur_origin) ~t0:e.cur_start
      ~dur:(now -. e.cur_start) ();
  e.cur_origin <- ""

let step e ~until =
  if e.finished then invalid_arg "Vm.step: the execution already finished";
  let t = e.vm in
  let f = t.func in
  let num_nodes = Irfunc.num_nodes f in
  let plan = seq_plan t in
  let rec go () =
    if e.next = num_nodes then begin
      close_group e (Unix.gettimeofday ());
      e.finished <- true;
      Some (collect_returns f e.values)
    end
    else begin
      let n = Irfunc.node f e.next in
      let t0 = Unix.gettimeofday () in
      if Telemetry.tracing () && n.Irfunc.origin <> e.cur_origin then begin
        close_group e t0;
        e.cur_origin <- n.Irfunc.origin;
        e.cur_start <- t0
      end;
      let outcome, started, busy_before =
        match e.in_flight with
        | Some fl ->
          e.in_flight <- None;
          (Fhe.Job.resume fl.job ~until, fl.started, fl.busy)
        | None -> (Fhe.Job.run ~until (fun () -> exec_node t e.values e.inputs n), t0, 0.0)
      in
      let t1 = Unix.gettimeofday () in
      let busy = busy_before +. (t1 -. t0) in
      match outcome with
      | Fhe.Job.Paused job ->
        e.in_flight <- Some { job; started; busy };
        Telemetry.incr (Lazy.force m_suspensions);
        close_group e t1;
        None
      | Fhe.Job.Done result ->
        record_node ~tag:e.tag ~predicted:plan.node_ns.(n.Irfunc.id) n ~t0:started ~busy;
        e.values.(n.Irfunc.id) <- result;
        (match result with V_ct c -> e.observe n c | _ -> ());
        Array.iter
          (fun a ->
            release_value t a e.values.(a);
            e.values.(a) <- V_none)
          plan.to_free.(n.Irfunc.id);
        e.next <- e.next + 1;
        if e.next < num_nodes && Unix.gettimeofday () >= until then begin
          close_group e (Unix.gettimeofday ());
          None
        end
        else go ()
    end
  in
  go ()

let remaining e =
  if e.finished then 0.0
  else
    let c = (seq_plan e.vm).cost_before in
    c.(Array.length c - 1) -. c.(e.next)

let abort e =
  if not e.finished then begin
    e.finished <- true;
    close_group e (Unix.gettimeofday ());
    Option.iter (fun fl -> Fhe.Job.abort fl.job) e.in_flight;
    e.in_flight <- None;
    Array.iteri
      (fun id v ->
        release_value e.vm id v;
        e.values.(id) <- V_none)
      e.values
  end

let run_observed ?tag ~observe t inputs =
  match step (start_observed ?tag ~observe t inputs) ~until:infinity with
  | Some outputs -> outputs
  | None -> assert false

let run ?tag t inputs = run_observed ?tag ~observe:(fun _ _ -> ()) t inputs
