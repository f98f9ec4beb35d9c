module Pipeline = Ace_driver.Pipeline
module Import = Ace_nn.Import
module Nn_interp = Ace_nn.Nn_interp
module Domain_pool = Ace_util.Domain_pool
module Telemetry = Ace_telemetry.Telemetry
module Rng = Ace_util.Rng
module Ciphertext = Ace_fhe.Ciphertext
module Rns_poly = Ace_rns.Rns_poly
module Model = Ace_onnx.Model

type case = {
  case_seed : int;
  graph : Model.graph;
  nn : Ace_ir.Irfunc.t;
  compiled : Pipeline.compiled;
  keys : Ace_fhe.Keys.t;
  input : float array;
  reference : float array;
  sihe_reference : float array;
}

type outcome = {
  domains : int;
  ct_out : Ciphertext.ct;
  output : float array;
  max_err : float;
  tolerance : float;
  crypto_err : float;
  crypto_tolerance : float;
  min_budget_bits : float;
}

let prepare ?cfg ?(strategy = Pipeline.ace) ~seed () =
  let graph = Graph_gen.generate ?cfg ~seed () in
  let nn = Import.import graph in
  let compiled = Pipeline.compile strategy nn in
  let keys = Pipeline.make_keys compiled ~seed:(0x5eed_0000 + seed) in
  let rng = Rng.create (0x1234 + seed) in
  let input =
    Array.init (Graph_gen.input_dim graph) (fun _ -> Rng.float rng 1.6 -. 0.8)
  in
  let reference = Nn_interp.run1 nn input in
  (* Approximation-exact, noise-free reference: the SIHE IR interpreted in
     cleartext already contains the polynomial activations, so any gap
     between it and the decrypted output is purely crypto (noise, encode
     rounding, bootstrap) — the part the compiler must keep tiny. *)
  let sihe_reference =
    let packed = Ace_vector.Layout.vector_of_tensor compiled.Pipeline.input_layout input in
    let out = Ace_sihe.Sihe_interp.run1 compiled.Pipeline.sihe packed in
    Ace_vector.Layout.tensor_of_vector (List.hd compiled.Pipeline.output_layouts) out
  in
  { case_seed = seed; graph; nn; compiled; keys; input; reference; sihe_reference }

(* Two-tier error budget.  The tight bound is against the SIHE cleartext
   reference (same polynomial activations, zero noise): whatever remains
   is crypto error, limited by the flight recorder's observed headroom —
   a ciphertext whose budget bottomed out at [b] bits cannot carry much
   more than [2^-b] of message error into the decode.  The loose bound is
   against the exact NN reference and absorbs the approximation error
   itself: each activation's fitted polynomial is ~1e-2 sup error on its
   domain, but errors compound (and occasionally escape the fitted
   domain) through following layers, so this is a gross-wrongness guard,
   not a precision claim. *)
let tolerance_for case ~min_budget_bits =
  let nonlinear = float_of_int (Graph_gen.nonlinear_count case.graph) in
  let approx = 0.05 +. (0.2 *. nonlinear) in
  let noise = if Float.is_finite min_budget_bits then Float.exp2 (-.min_budget_bits) else 0.0 in
  approx +. noise

let crypto_tolerance_for ~min_budget_bits =
  if Float.is_finite min_budget_bits then
    Float.max 1e-4 (Float.exp2 (-.min_budget_bits) *. 4.0)
  else 1e-4

let run_case ~domains case =
  Domain_pool.set_num_domains domains;
  Fun.protect ~finally:(fun () -> Domain_pool.set_num_domains 1) @@ fun () ->
  let flight_was = Telemetry.flight_on () in
  Telemetry.set_flight true;
  Telemetry.reset_flight ();
  Fun.protect ~finally:(fun () -> Telemetry.set_flight flight_was) @@ fun () ->
  let ct = Pipeline.encrypt_input case.compiled case.keys ~seed:7 case.input in
  let ct_out = Pipeline.run_encrypted case.compiled case.keys ~seed:8 ct in
  let output = Pipeline.decrypt_output case.compiled case.keys ct_out in
  let min_budget_bits =
    (* Degree-2 records (anything touched inside a lazy-relin region) and
       the relinearization closing it carry the s^2-term penalty (see
       Eval.record_flight): they describe transient Cipher3 headroom, not
       a state the decryptor ever sees — the decode tolerance is governed
       by decryptable degree-1 records, so the penalized records are
       excluded here (the flight-monotonicity test in test_telemetry
       covers them). *)
    List.fold_left
      (fun acc (r : Telemetry.flight_record) ->
        if r.Telemetry.fl_degree >= 2 || r.Telemetry.fl_op = "relinearize" then acc
        else min acc r.Telemetry.fl_budget_bits)
      infinity (Telemetry.flight_records ())
  in
  let worst_against reference =
    let worst = ref 0.0 in
    Array.iteri (fun i v -> worst := max !worst (abs_float (v -. reference.(i)))) output;
    !worst
  in
  {
    domains;
    ct_out;
    output;
    max_err = worst_against case.reference;
    tolerance = tolerance_for case ~min_budget_bits;
    crypto_err = worst_against case.sihe_reference;
    crypto_tolerance = crypto_tolerance_for ~min_budget_bits;
    min_budget_bits;
  }

let check case outcome =
  if Array.length outcome.output <> Array.length case.reference then
    Error
      (Printf.sprintf "seed %d: output length %d, reference %d" case.case_seed
         (Array.length outcome.output)
         (Array.length case.reference))
  else if not (Float.is_finite outcome.min_budget_bits) then
    Error (Printf.sprintf "seed %d: no flight records — recorder was off?" case.case_seed)
  else if outcome.min_budget_bits <= 1.0 then
    Error
      (Printf.sprintf "seed %d: noise budget ran dry (min %.2f bits)" case.case_seed
         outcome.min_budget_bits)
  else if outcome.crypto_err > outcome.crypto_tolerance then
    Error
      (Printf.sprintf
         "seed %d (%d domains): crypto error %.2e vs SIHE reference exceeds %.2e (budget %.1f bits)"
         case.case_seed outcome.domains outcome.crypto_err outcome.crypto_tolerance outcome.min_budget_bits)
  else if outcome.max_err > outcome.tolerance then
    Error
      (Printf.sprintf "seed %d (%d domains): max error %.5f exceeds tolerance %.5f"
         case.case_seed outcome.domains outcome.max_err outcome.tolerance)
  else Ok ()

let ct_equal (a : Ciphertext.ct) (b : Ciphertext.ct) =
  Ciphertext.size a = Ciphertext.size b
  && a.Ciphertext.ct_scale = b.Ciphertext.ct_scale
  && Array.length a.Ciphertext.polys = Array.length b.Ciphertext.polys
  && Array.for_all2 Rns_poly.equal a.Ciphertext.polys b.Ciphertext.polys

(* ---- batch tier: k requests in one ciphertext vs k solo runs ---- *)

type batch_case = {
  bc_seed : int;
  bc_batch : int;
  bc_compiled : Pipeline.compiled;
  bc_keys : Ace_fhe.Keys.t;
  bc_inputs : float array array;
  bc_solo : float array array;
}

type batch_outcome = {
  b_domains : int;
  b_ct_out : Ciphertext.ct;
  b_outputs : float array array;
  b_worst_vs_solo : float;
}

let prepare_batch ?cfg ?(strategy = Pipeline.ace) ~seed ~batch () =
  let graph = Graph_gen.generate ?cfg ~seed () in
  let nn = Import.import graph in
  let compiled = Pipeline.compile ~batch strategy nn in
  let keys = Pipeline.make_keys compiled ~seed:(0x5eed_0000 + seed) in
  let rng = Rng.create (0xba7c4 + seed) in
  let dim = Graph_gen.input_dim graph in
  let inputs =
    Array.init batch (fun _ -> Array.init dim (fun _ -> Rng.float rng 1.6 -. 0.8))
  in
  (* Unbatched reference: a separate batch-1 compile with its own default
     context, run encrypted once per request. Differing ring parameters
     mean the comparison is numeric (crypto tolerance), not bit-level. *)
  let solo_c = Pipeline.compile ~batch:1 strategy nn in
  let solo_keys = Pipeline.make_keys solo_c ~seed:(0x5010 + seed) in
  let solo = Array.map (fun x -> Pipeline.infer_encrypted solo_c solo_keys ~seed:9 x) inputs in
  { bc_seed = seed; bc_batch = batch; bc_compiled = compiled; bc_keys = keys;
    bc_inputs = inputs; bc_solo = solo }

let run_batch_case ~domains bc =
  Domain_pool.set_num_domains domains;
  Fun.protect ~finally:(fun () -> Domain_pool.set_num_domains 1) @@ fun () ->
  let ct = Pipeline.encrypt_batch bc.bc_compiled bc.bc_keys ~seed:7 bc.bc_inputs in
  let ct_out = Pipeline.run_encrypted bc.bc_compiled bc.bc_keys ~seed:8 ct in
  let outputs = Pipeline.decrypt_batch bc.bc_compiled bc.bc_keys ct_out in
  let worst = ref 0.0 in
  Array.iteri
    (fun r out ->
      Array.iteri
        (fun i v -> worst := max !worst (abs_float (v -. bc.bc_solo.(r).(i))))
        out)
    outputs;
  {
    b_domains = domains;
    b_ct_out = ct_out;
    b_outputs = outputs;
    b_worst_vs_solo = !worst;
  }

(* Both runs share the polynomial approximations and differ only in ring
   parameters and noise draws, so the per-request gap is crypto-scale;
   bootstrapped graphs get the oracle's refresh tolerance. *)
let check_batch bc o =
  let tol = 1e-2 in
  if Array.length o.b_outputs <> bc.bc_batch then
    Error
      (Printf.sprintf "seed %d: %d batched outputs for batch %d" bc.bc_seed
         (Array.length o.b_outputs) bc.bc_batch)
  else if o.b_worst_vs_solo > tol then
    Error
      (Printf.sprintf
         "seed %d (%d domains, batch %d): worst per-request gap %.2e vs unbatched exceeds %.0e"
         bc.bc_seed o.b_domains bc.bc_batch o.b_worst_vs_solo tol)
  else Ok ()

let describe o =
  Printf.sprintf "x%d: err %.5f (tol %.5f), crypto err %.2e (tol %.2e), budget %.1f bits"
    o.domains o.max_err o.tolerance o.crypto_err o.crypto_tolerance o.min_budget_bits
