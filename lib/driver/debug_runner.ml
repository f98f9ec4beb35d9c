module Layout = Ace_vector.Layout

type report = {
  nn_output : float array;
  vector_output : float array;
  encrypted_output : float array;
  layout_error : float;
  crypto_error : float;
}

let max_err a b =
  let e = ref 0.0 in
  Array.iteri (fun i x -> e := max !e (abs_float (x -. b.(i)))) a;
  !e

let run (c : Pipeline.compiled) keys ~seed input =
  let nn_output = Ace_nn.Nn_interp.run1 c.Pipeline.nn input in
  let packed = Layout.vector_of_tensor c.Pipeline.input_layout input in
  let out_layout = List.hd c.Pipeline.output_layouts in
  let vector_output =
    Layout.tensor_of_vector out_layout (Ace_vector.Vec_interp.run1 c.Pipeline.vec packed)
  in
  let encrypted_output = Pipeline.infer_encrypted c keys ~seed input in
  {
    nn_output;
    vector_output;
    encrypted_output;
    layout_error = max_err nn_output vector_output;
    crypto_error = max_err vector_output encrypted_output;
  }

let pp fmt r =
  Format.fprintf fmt
    "@[<v>instrumented run:@,  NN vs VECTOR (layout):      %.3e@,  VECTOR vs encrypted (noise): %.3e@]"
    r.layout_error r.crypto_error

(* Per-layer mode: run the encrypted VM with an observer that decrypts
   every intermediate ciphertext and compares it against a cleartext
   shadow evaluation of the same CKKS function — actual error next to the
   structural noise-budget estimate, per node (paper Section 5's
   per-layer instrumentation, extended below the VECTOR level). *)

open Ace_ir
module Fhe = Ace_fhe
module Ciphertext = Fhe.Ciphertext

type layer_record = {
  lr_id : int;
  lr_op : string;
  lr_origin : string;
  lr_level : int;
  lr_scale_bits : float;
  lr_budget_bits : float;  (** modulus headroom over the scale, from the ct *)
  lr_actual_err : float;  (** max |decrypt(ct) - shadow|, all slots *)
}

(* Cleartext shadow of the CKKS ops the VM executes. Rescale, mod-switch,
   relinearisation, bootstrap and upscale do not change the encoded value;
   downscale reinterprets the scale, multiplying the decoded value by r. *)
type sval = S_vec of float array | S_batch of float array array | S_none

let shadow_eval (f : Irfunc.t) ~slots input =
  let values = Array.make (Irfunc.num_nodes f) S_none in
  let vec i (n : Irfunc.node) =
    match values.(n.Irfunc.args.(i)) with
    | S_vec v -> v
    | _ -> invalid_arg (Printf.sprintf "shadow_eval: node %%%d arg %d is not a vector" n.Irfunc.id i)
  in
  let roll v k =
    let len = Array.length v in
    let k = ((k mod len) + len) mod len in
    Array.init len (fun i -> v.((i + k) mod len))
  in
  let pad v = Array.init slots (fun i -> if i < Array.length v then v.(i) else 0.0) in
  Irfunc.iter f (fun n ->
      let result =
        match n.Irfunc.op with
        | Op.Param 0 -> S_vec (pad input)
        | Op.Param _ -> invalid_arg "shadow_eval: single-input functions only"
        | Op.Weight name -> S_vec (Irfunc.const f name)
        | Op.Const_scalar v -> S_vec [| v |]
        | Op.V_add -> S_vec (Array.map2 ( +. ) (vec 0 n) (vec 1 n))
        | Op.V_sub -> S_vec (Array.map2 ( -. ) (vec 0 n) (vec 1 n))
        | Op.V_mul -> S_vec (Array.map2 ( *. ) (vec 0 n) (vec 1 n))
        | Op.V_roll k -> S_vec (roll (vec 0 n) k)
        | Op.V_slice { Op.start; slice_len; stride } ->
          let v = vec 0 n in
          S_vec (Array.init slice_len (fun i -> v.(start + (i * stride))))
        | Op.C_encode | Op.C_encode_pair -> S_vec (pad (vec 0 n))
        | Op.C_add -> S_vec (Array.map2 ( +. ) (vec 0 n) (vec 1 n))
        | Op.C_sub -> S_vec (Array.map2 ( -. ) (vec 0 n) (vec 1 n))
        | Op.C_mul -> S_vec (Array.map2 ( *. ) (vec 0 n) (vec 1 n))
        | Op.C_relin | Op.C_rescale | Op.C_mod_switch | Op.C_bootstrap _ | Op.C_upscale _ ->
          S_vec (vec 0 n)
        | Op.C_neg -> S_vec (Array.map (fun x -> -.x) (vec 0 n))
        | Op.C_rotate k -> S_vec (roll (vec 0 n) k)
        | Op.C_rotate_batch steps -> S_batch (Array.map (fun k -> roll (vec 0 n) k) steps)
        | Op.C_downscale r -> S_vec (Array.map (fun x -> x *. r) (vec 0 n))
        | Op.C_batch_get i -> (
          match values.(n.Irfunc.args.(0)) with
          | S_batch b -> S_vec b.(i)
          | _ -> invalid_arg "shadow_eval: batch_get argument is not a batch")
        | op -> invalid_arg ("shadow_eval: unexpected op " ^ Op.name op)
      in
      values.(n.Irfunc.id) <- result);
  values

let budget_bits_of (ct : Ciphertext.ct) =
  let p0 = ct.Ciphertext.polys.(0) in
  let crt = p0.Ace_rns.Rns_poly.ctx in
  let modulus_bits =
    Array.fold_left
      (fun acc ci -> acc +. Float.log2 (float_of_int (Ace_rns.Crt.modulus crt ci)))
      0.0 p0.Ace_rns.Rns_poly.chain_idx
  in
  modulus_bits -. Float.log2 ct.Ciphertext.ct_scale

let run_layers (c : Pipeline.compiled) keys ~seed input =
  let ctx = c.Pipeline.context in
  let slots = Fhe.Context.slots ctx in
  let packed = Layout.vector_of_tensor c.Pipeline.input_layout input in
  let shadow = shadow_eval c.Pipeline.ckks ~slots packed in
  let records = ref [] in
  let observe (n : Irfunc.node) ct =
    (* A size-3 product decrypts only after relinearisation; observe it
       through a throwaway key switch (adds only relin noise, far below
       the divergences this instrument exists to locate). *)
    let ct = if Ciphertext.size ct = 3 then Fhe.Eval.relinearize keys ct else ct in
    if Ciphertext.size ct = 2 then begin
      match shadow.(n.Irfunc.id) with
      | S_vec expected ->
        let got = Fhe.Encoder.decode ctx (Fhe.Eval.decrypt keys ct) in
        let err = ref 0.0 in
        Array.iteri
          (fun i e -> if i < Array.length got then err := max !err (abs_float (got.(i) -. e)))
          expected;
        records :=
          {
            lr_id = n.Irfunc.id;
            lr_op = Op.name n.Irfunc.op;
            lr_origin = n.Irfunc.origin;
            lr_level = Ciphertext.level ct;
            lr_scale_bits = Float.log2 (Ciphertext.scale_of ct);
            lr_budget_bits = budget_bits_of ct;
            lr_actual_err = !err;
          }
          :: !records
      | _ -> ()
    end
  in
  let vm = Pipeline.prepare_vm c keys ~seed in
  let ct = Pipeline.encrypt_input c keys ~seed input in
  (match Ace_codegen.Vm.run_observed ~observe vm [ ct ] with
  | [ _ ] -> ()
  | _ -> invalid_arg "Debug_runner.run_layers: expected a single output");
  List.rev !records

let pp_layer fmt r =
  Format.fprintf fmt "%%%-5d %-12s %-16s L%-2d scale=2^%-6.1f budget=%6.1f bits err=%.3e"
    r.lr_id r.lr_op
    (if r.lr_origin = "" then "-" else r.lr_origin)
    r.lr_level r.lr_scale_bits r.lr_budget_bits r.lr_actual_err
