module Layout = Ace_vector.Layout
module Lower_nn = Ace_vector.Lower_nn
module Lower_vec = Ace_sihe.Lower_vec
module Lower_sihe = Ace_ckks_ir.Lower_sihe
module Ckks_fusion = Ace_ckks_ir.Ckks_fusion
module Ckks_lazy = Ace_ckks_ir.Ckks_lazy
module Ckks_cplx = Ace_ckks_ir.Ckks_cplx
module Keygen_plan = Ace_ckks_ir.Keygen_plan
module Param_select = Ace_ckks_ir.Param_select
module Verifier = Ace_verify.Verifier
module Fhe = Ace_fhe
open Ace_ir

(* The cross-level verifier runs after every lowering stage (ACE_VERIFY,
   on by default; see lib/verify). A diagnostic here means the stage just
   executed miscompiled the function — [Verifier.Rejected] carries the
   typed findings and names the offending IR nodes. *)
let verify_stage ~pass ?plan ?context f =
  if Verifier.enabled () then Verifier.check_exn ~pass ?plan ?context f

type strategy = {
  strategy_name : string;
  conv_regroup : bool;
  gemm_bsgs : bool;
  lazy_rescale : bool;
  lazy_passes : bool;
  min_level_bootstrap : bool;
  pruned_keys : bool;
  hoist_rotations : bool;
  relu_alpha : int;
  chain_depth : int;
}

let ace =
  {
    strategy_name = "ACE";
    conv_regroup = true;
    gemm_bsgs = true;
    lazy_rescale = true;
    lazy_passes = true;
    min_level_bootstrap = true;
    pruned_keys = true;
    hoist_rotations = true;
    relu_alpha = 5;
    chain_depth = 12;
  }

let expert =
  {
    strategy_name = "Expert";
    conv_regroup = false;
    gemm_bsgs = false;
    lazy_rescale = false;
    lazy_passes = false;
    min_level_bootstrap = false;
    (* Lee et al. generate exactly the (large) rotation set their layout
       needs; pruning is not the differentiator, the set's size is. *)
    pruned_keys = true;
    (* Hoisting is a runtime technique hand-written kernels also use; it
       does not separate the strategies, so both get it. *)
    hoist_rotations = true;
    relu_alpha = 5;
    chain_depth = 12;
  }

(* Library-default keying: power-of-two keys only, arbitrary rotations
   decomposed into binary hops (paper Section 2.2). Used by the ablation
   bench; far slower than either ACE or the expert baseline. *)
let library_default =
  { expert with strategy_name = "Library-pow2-keys"; pruned_keys = false }

type compiled = {
  strategy : strategy;
  batch : int;
  cplx : Ckks_cplx.info option;
  context : Fhe.Context.t;
  nn : Irfunc.t;
  vec : Irfunc.t;
  sihe : Irfunc.t;
  ckks : Irfunc.t;
  input_layout : Layout.t;
  output_layouts : Layout.t list;
  key_plan : Keygen_plan.plan;
  lazy_stats : Ckks_lazy.stats;
  placement : Lower_sihe.decision list;
  level_seconds : (Level.t * float) list;
  other_seconds : float;
}

(* [ACE_LAZY] overrides the strategy's lazy relin/rescale toggle, mirroring
   ACE_DOMAINS: a compiled-in default the environment can sweep without
   recompiling callers. *)
let lazy_enabled strategy =
  match Sys.getenv_opt "ACE_LAZY" with
  | None -> strategy.lazy_passes
  | Some s -> (
    match String.lowercase_ascii (String.trim s) with
    | "0" | "off" | "false" | "no" -> false
    | _ -> true)

(* [ACE_BATCH] sets the default cross-request batch factor; an explicit
   [?batch] argument to [compile] overrides it, mirroring ACE_DOMAINS. *)
let default_batch () =
  match Sys.getenv_opt "ACE_BATCH" with
  | None -> 1
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some k when k >= 1 -> k
    | _ -> invalid_arg ("ACE_BATCH must be a positive integer, got " ^ s))

(* [ACE_CPLX] turns on complex packing: two request streams per slot
   (real/imaginary parts), on top of the slot-region batch axis. *)
let default_complex () =
  match Sys.getenv_opt "ACE_CPLX" with
  | None -> false
  | Some s -> (
    match String.lowercase_ascii (String.trim s) with
    | "" | "0" | "off" | "false" | "no" -> false
    | "1" | "on" | "true" | "yes" -> true
    | other -> invalid_arg ("ACE_CPLX must be 0 or 1, got " ^ other))

let next_pow2 n =
  let rec go p = if p >= n then p else go (2 * p) in
  go 1

let slots_needed nn =
  (* Largest channel count along the network times the input block size. *)
  let input_block =
    match (Irfunc.params nn).(0) with
    | _, Types.Tensor [| _; h; w |] -> h * w
    | _, Types.Tensor [| c |] | _, Types.Tensor [| c; 1 |] -> next_pow2 c
    | _ -> invalid_arg "slots_needed: unsupported input"
  in
  (* Feature maps keep the input's block spacing; 1-D heads are compacted
     onto a tight stride by the GEMM lowering, so they only demand their
     own power-of-two length. *)
  let chw_channels =
    Irfunc.fold nn ~init:1 ~f:(fun acc n ->
        match n.Irfunc.ty with
        | Types.Tensor [| c; _; _ |] -> max acc c
        | _ -> acc)
  in
  let flat_len =
    Irfunc.fold nn ~init:1 ~f:(fun acc n ->
        match n.Irfunc.ty with
        | Types.Tensor [| c |] -> max acc c
        | _ -> acc)
  in
  match (Irfunc.params nn).(0) with
  | _, Types.Tensor [| _; _; _ |] ->
    max (next_pow2 chw_channels * input_block) (next_pow2 flat_len)
  | _ -> max input_block (next_pow2 flat_len)

(* Each IR level of the lowering is both timed (Figure 5 rows in
   [level_seconds]) and recorded as a compile-phase span when tracing. *)
let timed name f = Ace_telemetry.Telemetry.timed ~cat:"compile" ("compile." ^ name) f

let compile ?context ?batch ?complex strategy nn_input =
  let batch = match batch with Some k -> k | None -> default_batch () in
  let complex = match complex with Some b -> b | None -> default_complex () in
  let need = slots_needed nn_input * batch in
  let slots =
    match context with
    | Some c -> Fhe.Context.slots c
    | None -> need
  in
  let context =
    match context with
    | Some c -> c
    | None -> Param_select.execution_context ~depth:strategy.chain_depth ~slots ()
  in
  if Fhe.Context.slots context < need then
    invalid_arg
      (Printf.sprintf
         "Pipeline.compile: context has %d slots but the model layout needs %d (%d per \
          request x batch %d)"
         (Fhe.Context.slots context) need (need / batch) batch);
  let slots = Fhe.Context.slots context in
  (* NN level: import-side cleanups. *)
  let nn, t_nn =
    timed "nn" (fun () ->
        let f = Ace_nn.Fusion.collapse_shape_ops nn_input in
        let f = Ace_nn.Fusion.dce f in
        Verify.verify f;
        f)
  in
  verify_stage ~pass:"nn" nn;
  (* VECTOR level. *)
  let (vec, out_layouts, in_layout), t_vec =
    timed "vector" (fun () ->
        let cfg =
          {
            Lower_nn.slots;
            batch;
            conv_regroup = strategy.conv_regroup;
            gemm_bsgs = strategy.gemm_bsgs;
          }
        in
        let vf, outs = Lower_nn.lower cfg nn in
        (vf, outs, Lower_nn.input_layout cfg nn))
  in
  verify_stage ~pass:"vector" vec;
  (* SIHE level. *)
  let sihe, t_sihe =
    timed "sihe" (fun () -> Lower_vec.lower { Lower_vec.relu_alpha = strategy.relu_alpha } vec)
  in
  verify_stage ~pass:"sihe" sihe;
  (* CKKS level. *)
  let (ckks, lazy_stats, placement), t_ckks =
    timed "ckks" (fun () ->
        let f, placement =
          Lower_sihe.lower
            {
              Lower_sihe.context;
              lazy_rescale = strategy.lazy_rescale;
              min_level_bootstrap = strategy.min_level_bootstrap;
            }
            sihe
        in
        let f = Ckks_fusion.run f in
        (* Lazy relin/rescale run on the fused function, before key
           planning and rotation batching: the rewrites move relins across
           rescale boundaries, so they must see final rescale placement but
           precede any pass that fixes rotation structure. *)
        let f, lazy_stats =
          if lazy_enabled strategy then Ckks_lazy.run f else (f, Ckks_lazy.observe f)
        in
        (* Complex packing rewrites AFTER the lazy passes (it wants final
           relin/rescale placement to classify regions) and BEFORE key
           planning, so the plan and the hoisted bundles see the final
           rotation structure of the split stretches. *)
        let f, cplx_info =
          if complex then begin
            let f, info = Ckks_cplx.run f in
            (f, Some info)
          end
          else (f, None)
        in
        ((f, cplx_info), lazy_stats, placement))
  in
  let ckks, cplx_info = ckks in
  (* No keygen plan yet: the plan is derived from this function below, so
     this stage checks well-formedness and the abstract (scale, level,
     limbs) interpretation plus the release plan. *)
  verify_stage ~pass:"ckks" ~context ckks;
  let key_plan =
    if strategy.pruned_keys then Keygen_plan.pruned ckks
    else Keygen_plan.power_of_two ~slots
  in
  let ckks, t_keys =
    timed "keys" (fun () ->
        let f =
          if strategy.pruned_keys then ckks else Keygen_plan.rewrite_rotations key_plan ckks
        in
        (* Hoisting batches run on the FINAL rotation steps, so grouping
           must follow the hop rewrite above — a bundle is executed
           verbatim against its Galois keys. *)
        if strategy.hoist_rotations then begin
          let f = Ckks_fusion.batch_rotations f in
          Verify.verify f;
          f
        end
        else f)
  in
  (* The execution-ready function: every rotation step must now have a
     planned Galois key, and hoisted bundles must be accessed only through
     batch_get — the checks that subsume a runtime Missing_rotation_key. *)
  verify_stage ~pass:"keys" ~plan:key_plan ~context ckks;
  {
    strategy;
    batch;
    cplx = cplx_info;
    context;
    nn;
    vec;
    sihe;
    ckks;
    input_layout = in_layout;
    output_layouts = out_layouts;
    key_plan;
    lazy_stats;
    placement;
    level_seconds =
      [
        (Level.Nn, t_nn);
        (Level.Vector, t_vec);
        (Level.Sihe, t_sihe);
        (Level.Ckks, t_ckks +. t_keys);
        (* POLY and the generated C are exports ([emit_c]), not part of
           compiling: the row stays so Figure 5 keeps its columns. *)
        (Level.Poly, 0.0);
      ];
    other_seconds = 0.0;
  }

(* The generated-code export (paper Section 3.4): POLY lowering, loop/op
   fusion and C emission. Execution never reads it — the VM runs the CKKS
   function — so only callers that write or inspect C pay for it. *)
let emit_c c =
  Ace_telemetry.Telemetry.span ~cat:"export" "export.c" (fun () ->
      let p = Ace_poly_ir.Lower_ckks.lower c.ckks in
      let p = Ace_poly_ir.Loop_fusion.fuse p in
      let p = Ace_poly_ir.Op_fusion.fuse p in
      if Verifier.enabled () then Verifier.poly_exn ~pass:"poly" p;
      (p, Ace_codegen.C_backend.emit c.ckks p))

(* Reassembling a [compiled] from a persisted artifact: the serving
   daemon's warm-restart path. Only the execution-side fields are real;
   the upper IR levels get placeholders (serving never reads them), and
   the keygen plan is re-derived from the CKKS function exactly as
   [compile] derives it — [Keygen_plan.pruned] is a linear walk, so
   restoring costs microseconds where [compile] costs seconds. *)
let restore ~strategy ~batch ~cplx ~context ~ckks ~input_layout ~output_layouts ~lazy_stats ()
    =
  let placeholder level =
    let f = Irfunc.create ~name:"restored-artifact" ~level ~params:[] in
    Irfunc.set_returns f [];
    f
  in
  let key_plan =
    if strategy.pruned_keys then Keygen_plan.pruned ckks
    else Keygen_plan.power_of_two ~slots:(Fhe.Context.slots context)
  in
  {
    strategy;
    batch;
    cplx;
    context;
    nn = placeholder Level.Nn;
    vec = placeholder Level.Vector;
    sihe = placeholder Level.Sihe;
    ckks;
    input_layout;
    output_layouts;
    key_plan;
    lazy_stats;
    placement = [];
    level_seconds = [];
    other_seconds = 0.0;
  }

let runtime_domains () = Ace_util.Domain_pool.size ()

let make_keys c ~seed =
  let rng = Ace_util.Rng.create seed in
  let keys =
    Fhe.Keys.generate c.context ~rng ~rotations:c.key_plan.Keygen_plan.rotation_steps
  in
  (* Pay the lazy one-off costs (limb-pool growth, CRT memo fills, domain
     wake-up) here rather than inside the first measured key switch. *)
  Fhe.Eval.warm keys;
  keys

let requests_per_ct c = c.batch * if c.cplx <> None then 2 else 1

let encrypt_packed c keys ~seed packed =
  let pt =
    Fhe.Encoder.encode c.context ~level:(Fhe.Context.max_level c.context)
      ~scale:(Fhe.Context.scale c.context) packed
  in
  Fhe.Eval.encrypt keys ~rng:(Ace_util.Rng.create seed) pt

(* Complex packing: stream A in the real parts, stream B in the imaginary
   parts, encoded as (a+ib)/2 so the conjugation-based unpacks inside the
   rewritten function are exact (see Ckks_cplx). *)
let encrypt_packed_cplx c keys ~seed va vb =
  let z =
    Array.init (Array.length va) (fun i ->
        { Fhe.Cplx.re = 0.5 *. va.(i); im = 0.5 *. vb.(i) })
  in
  let pt =
    Fhe.Encoder.encode_complex c.context ~level:(Fhe.Context.max_level c.context)
      ~scale:(Fhe.Context.scale c.context) z
  in
  Fhe.Eval.encrypt keys ~rng:(Ace_util.Rng.create seed) pt

let encrypt_input c keys ~seed image =
  let v = Layout.vector_of_tensor c.input_layout image in
  match c.cplx with
  | None -> encrypt_packed c keys ~seed v
  | Some _ -> encrypt_packed_cplx c keys ~seed v (Array.map (fun _ -> 0.0) v)

(* Batched requests: each image lands in its own slot region; everything
   past encryption runs the identical schedule regardless of [batch]. *)
let encrypt_batch c keys ~seed images =
  match c.cplx with
  | None -> encrypt_packed c keys ~seed (Layout.vector_of_batch c.input_layout images)
  | Some _ ->
    let n = Array.length images in
    if n <> 2 * c.batch then
      invalid_arg
        (Printf.sprintf
           "Pipeline.encrypt_batch: complex packing carries %d requests (2 per region), got %d"
           (2 * c.batch) n)
    else begin
      let va =
        Layout.vector_of_batch c.input_layout (Array.init c.batch (fun r -> images.(2 * r)))
      in
      let vb =
        Layout.vector_of_batch c.input_layout
          (Array.init c.batch (fun r -> images.((2 * r) + 1)))
      in
      encrypt_packed_cplx c keys ~seed va vb
    end

(* Per-request attribution (nGraph-HE2-style amortized accounting): one
   homomorphic execution carries requests_per_ct requests, so the span/k
   amortized latency — not the raw span — is what a request actually
   cost. The metrics count once PER REQUEST, so their quantiles describe
   the per-request amortized distribution directly. *)
let request_latency = lazy (Ace_telemetry.Telemetry.metric "request.latency")
let request_count = lazy (Ace_telemetry.Telemetry.metric "request.count")
let request_per_ct = lazy (Ace_telemetry.Telemetry.metric "request.per_ct")

(* GC pressure per execution, as quick_stat deltas summed over the
   execution's own slices (so interleaved executions never count each
   other's allocation). In a pooled steady state gc.major_words sits near
   zero; a regression that reintroduces per-inference slab churn shows up
   here long before it shows up in latency tails. quick_stat reads
   domain-local counters and never forces a collection, so the probe
   itself is free. *)
let gc_metrics =
  lazy
    (Array.map Ace_telemetry.Telemetry.metric
       [|
         "gc.minor_words"; "gc.major_words"; "gc.minor_collections"; "gc.major_collections";
         "gc.compactions";
       |])

let gc_sample () =
  let g = Gc.quick_stat () in
  [|
    g.Gc.minor_words;
    g.Gc.major_words;
    float_of_int g.Gc.minor_collections;
    float_of_int g.Gc.major_collections;
    float_of_int g.Gc.compactions;
  |]

let default_request_ids k = Array.init k (fun i -> "r" ^ string_of_int i)

type exec = {
  x_compiled : compiled;
  x_k : int;
  x_tag : (string * string) list;
  x_vm : Ace_codegen.Vm.exec;
  x_started : float;
  mutable x_busy : float;  (** wall time inside this execution's own slices *)
  x_gc : float array;  (** summed per-slice deltas, in [gc_metrics] order *)
}

let start_vm ?request_ids c vm ct =
  let k = requests_per_ct c in
  let ids =
    match request_ids with
    | None -> default_request_ids k
    | Some ids ->
      if Array.length ids <> k then
        invalid_arg
          (Printf.sprintf "Pipeline: %d request ids for a %d-requests-per-ct execution"
             (Array.length ids) k);
      ids
  in
  let tag =
    [ ("request_ids", String.concat "," (Array.to_list ids)); ("k", string_of_int k) ]
  in
  {
    x_compiled = c;
    x_k = k;
    x_tag = tag;
    x_vm = Ace_codegen.Vm.start ~tag vm [ ct ];
    x_started = Unix.gettimeofday ();
    x_busy = 0.0;
    x_gc = Array.make (Array.length (Lazy.force gc_metrics)) 0.0;
  }

let finish x out =
  let module T = Ace_telemetry.Telemetry in
  Array.iteri (fun i m -> T.observe m x.x_gc.(i)) (Lazy.force gc_metrics);
  let k = x.x_k in
  let amortized = x.x_busy /. float_of_int k in
  for _ = 1 to k do
    T.incr (Lazy.force request_count);
    T.observe (Lazy.force request_latency) amortized
  done;
  T.observe (Lazy.force request_per_ct) (float_of_int k);
  T.emit_span ~cat:"request"
    ~args:
      (x.x_tag
      @ [
          ("requests_per_ct", string_of_int k);
          ("busy_us", Printf.sprintf "%.1f" (x.x_busy *. 1e6));
          ("amortized_us", Printf.sprintf "%.1f" (amortized *. 1e6));
        ])
    ~name:"request.batch" ~t0:x.x_started
    ~dur:(Unix.gettimeofday () -. x.x_started)
    ();
  match out with
  | [ ct ] -> ct
  | _ -> invalid_arg "Pipeline.run_encrypted: expected a single output"

(* A missing Galois key at execution time means the compile-time key plan
   and the runtime key set disagree — a planning bug or keys generated
   from a different plan — so the error names all three sides. *)
let step x ~until =
  let t0 = Unix.gettimeofday () in
  let g0 = gc_sample () in
  let out =
    try Ace_codegen.Vm.step x.x_vm ~until
    with Fhe.Eval.Missing_rotation_key { step; available } ->
      let show l = String.concat "; " (List.map string_of_int l) in
      failwith
        (Printf.sprintf
           "Pipeline: keygen-plan mismatch: execution needs rotation step %d, keys exist for \
            steps [%s], plan requested [%s]"
           step (show available)
           (show x.x_compiled.key_plan.Keygen_plan.rotation_steps))
  in
  x.x_busy <- x.x_busy +. (Unix.gettimeofday () -. t0);
  let g1 = gc_sample () in
  Array.iteri (fun i v -> x.x_gc.(i) <- x.x_gc.(i) +. (v -. g0.(i))) g1;
  Option.map (finish x) out

let remaining x = Ace_codegen.Vm.remaining x.x_vm
let abort x = Ace_codegen.Vm.abort x.x_vm

let run_to_end x =
  match step x ~until:infinity with Some ct -> ct | None -> assert false

(* Every VM is prepared here, and every one is checked first, whatever
   [ACE_VERIFY] says: a function restored from disk or built by hand has
   not been through [compile]'s stage checks, and a bad scale or level
   annotation would otherwise surface only as garbage decrypts. *)
let prepare_vm ?cache_plaintexts c keys ~seed =
  (match Verifier.ckks ~pass:"load" keys.Fhe.Keys.context c.ckks with
  | [] -> ()
  | ds -> raise (Verifier.Rejected ds));
  let bootstrap ~node ~target_level x =
    Fhe.Bootstrap.refresh_impl keys ~seed ~ordinal:node ~target_level x
  in
  Ace_codegen.Vm.prepare ?cache_plaintexts ~keys ~bootstrap c.ckks

let run_encrypted ?request_ids c keys ~seed ct =
  run_to_end (start_vm ?request_ids c (prepare_vm c keys ~seed) ct)

(* Under complex packing the decrypted slots hold m*(a + i*b); divide by
   the multiplier the cplx pass recorded for this output. *)
let output_mult c =
  match c.cplx with
  | None -> 1.0
  | Some info -> (
    match info.Ckks_cplx.output_mults with m :: _ -> m | [] -> 1.0)

let decrypt_output c keys ct =
  match c.cplx with
  | None ->
    let decoded = Fhe.Encoder.decode c.context (Fhe.Eval.decrypt keys ct) in
    Layout.tensor_of_vector (List.hd c.output_layouts) decoded
  | Some _ ->
    let m = output_mult c in
    let z = Fhe.Encoder.decode_complex c.context (Fhe.Eval.decrypt keys ct) in
    Layout.tensor_of_vector (List.hd c.output_layouts)
      (Array.map (fun v -> v.Fhe.Cplx.re /. m) z)

let decrypt_batch c keys ct =
  match c.cplx with
  | None ->
    let decoded = Fhe.Encoder.decode c.context (Fhe.Eval.decrypt keys ct) in
    Layout.batch_of_vector (List.hd c.output_layouts) decoded
  | Some _ ->
    let m = output_mult c in
    let z = Fhe.Encoder.decode_complex c.context (Fhe.Eval.decrypt keys ct) in
    let layout = List.hd c.output_layouts in
    let ra = Layout.batch_of_vector layout (Array.map (fun v -> v.Fhe.Cplx.re /. m) z) in
    let rb = Layout.batch_of_vector layout (Array.map (fun v -> v.Fhe.Cplx.im /. m) z) in
    Array.init (2 * c.batch) (fun i -> if i mod 2 = 0 then ra.(i / 2) else rb.(i / 2))

let infer_encrypted c keys ~seed image =
  decrypt_output c keys (run_encrypted c keys ~seed (encrypt_input c keys ~seed image))

let infer_encrypted_batch ?request_ids c keys ~seed images =
  decrypt_batch c keys
    (run_encrypted ?request_ids c keys ~seed (encrypt_batch c keys ~seed images))

(* A resident runtime: the prepared VM lives across inferences, so weight
   plaintexts are encoded (embed + round + forward NTT) once ever instead
   of once per image. Single-shot entry points above keep the throwaway
   VM, whose peak memory stays at the live-range minimum. *)
type runtime = {
  rt_compiled : compiled;
  rt_keys : Fhe.Keys.t;
  rt_vm : Ace_codegen.Vm.t;
}

let make_runtime ?telemetry c keys ~seed =
  (match telemetry with
  | Some cfg -> Ace_telemetry.Telemetry.configure cfg
  | None -> ());
  { rt_compiled = c; rt_keys = keys; rt_vm = prepare_vm ~cache_plaintexts:true c keys ~seed }

let runtime_vm rt = rt.rt_vm

let runtime_exec_ns c =
  Ace_codegen.Sched.func_ns
    ~ring_degree:(Fhe.Context.ring_degree c.context)
    ~cached_encodes:true c.ckks

let start_rt ?request_ids rt ct = start_vm ?request_ids rt.rt_compiled rt.rt_vm ct

let run_encrypted_rt ?request_ids rt ct = run_to_end (start_rt ?request_ids rt ct)

let infer_encrypted_rt rt ~seed image =
  decrypt_output rt.rt_compiled rt.rt_keys
    (run_encrypted_rt rt (encrypt_input rt.rt_compiled rt.rt_keys ~seed image))
