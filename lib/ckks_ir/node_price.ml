open Ace_ir

(* Cost model: nanoseconds on one domain. A node costs a fixed overhead
   (dispatch, timing, value bookkeeping) plus the RNS kernels it runs,
   counted off Eval in rows (one residue row of N coefficients each). A
   row costs a per-row overhead (pool acquire, loop and pool dispatch)
   plus N times the kernel's cost per coefficient; an NTT row's cost per
   coefficient is a cost per butterfly stage times log2 N.

   The constants were measured on the benchmark host (2-core x86-64,
   OCaml 5.1, ACE_DOMAINS=1, no tracing). Per kernel: one residue row
   timed alone, best of five 50 ms batches, at N = 2^5, 2^8 and 2^11.
   Then per node: every node of a resident gemv:16:4 (N = 2^5) and
   resnet:8:10:8:4 (N = 2^11) execution, stepped one piece at a time,
   its busy time set against its kernel counts. Inside an execution the
   kernels run 1.2x (NTT, lift, mul-acc: the key digits no longer fit in
   cache) to 3x (plaintext products, which read cold cached plaintexts)
   slower than alone, so the constants below are the in-execution ones;
   the bootstrap oracle (decrypt, decode, encode, encrypt) is priced
   whole, per limb of its target level. *)
type kernel =
  | Ntt_fwd
  | Ntt_inv
  | Lift  (** centered digit lift into another prime *)
  | Mac  (** Shoup multiply-accumulate against a key row *)
  | Gather_mac  (** the same through an automorphism permutation *)
  | Pmul  (** pointwise product *)
  | Sub_mul  (** mod-down's subtract and multiply *)
  | Add
  | Automorphism
  | Copy
  | Fill
  | Encode  (** slot embedding and rounding (the NTTs are counted apart) *)
  | Bootstrap  (** the bootstrap oracle, per limb *)

let row_ns = 100.0
let node_fixed_ns = 1000.0

let coef_ns ~lg = function
  | Ntt_fwd -> 6.0 *. lg
  | Ntt_inv -> 5.5 *. lg
  | Lift -> 2.2
  | Mac -> 10.5
  | Gather_mac -> 11.0
  | Pmul -> 8.5
  | Sub_mul -> 7.5
  | Add -> 10.0
  | Automorphism -> 1.0
  | Copy -> 2.5
  | Fill -> 1.0
  | Encode -> 40.0
  | Bootstrap -> 500.0

(* [work c n]: the kernel rows of node [n], each weighted by [c]. *)
let work ~cached_encodes c (n : Irfunc.node) =
  let l = float_of_int (max 1 (n.Irfunc.node_level + 1)) in
  let comps = if Types.equal n.Irfunc.ty Types.Cipher3 then 3.0 else 2.0 in
  (* divide an extended-basis accumulator by the special prime *)
  let mod_down () = c Ntt_inv +. (l *. (c Lift +. c Ntt_fwd +. c Sub_mul)) in
  (* to_coeff of the operand, then per basis position lift (or copy)
     and NTT every digit *)
  let decompose () =
    (l *. (c Copy +. c Ntt_inv))
    +. (l *. (l +. 1.0) *. c Ntt_fwd)
    +. (l *. l *. c Lift)
    +. (l *. c Copy)
  in
  let accumulate mac =
    (2.0 *. l *. (l +. 1.0) *. c mac) +. (2.0 *. (l +. 1.0) *. c Fill) +. (2.0 *. mod_down ())
  in
  let key_switch () = decompose () +. accumulate Mac in
  let encode () = c Encode +. (l *. c Ntt_fwd) in
  match n.Irfunc.op with
  | Op.C_relin -> key_switch () +. (2.0 *. l *. c Add)
  | Op.C_rotate _ | Op.C_conj -> key_switch () +. (2.0 *. l *. c Automorphism) +. (l *. c Add)
  | Op.C_rotate_batch steps ->
    decompose ()
    +. float_of_int (Array.length steps)
       *. (accumulate Gather_mac +. (l *. c Automorphism) +. (l *. c Add))
  | Op.C_mul when comps = 3.0 -> (4.0 *. l *. c Pmul) +. (l *. c Add) (* ciphertext product *)
  | Op.C_mul | Op.C_mul_i -> comps *. l *. c Pmul
  | Op.C_rescale -> comps *. (c Copy +. c Ntt_inv +. (l *. (c Lift +. c Ntt_fwd +. c Sub_mul)))
  | Op.C_encode | Op.C_encode_pair -> if cached_encodes then 0.0 else encode ()
  | Op.C_upscale _ -> encode () +. (comps *. l *. c Pmul)
  | Op.C_add | Op.C_sub | Op.C_neg -> comps *. l *. c Add
  | Op.C_mod_switch | Op.C_downscale _ -> comps *. l *. c Copy
  | Op.C_bootstrap _ -> (l +. 1.0) *. c Bootstrap
  | _ -> 0.0 (* parameters, constants, views, cleartext vector ops *)

let log2_degree ring_degree =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  float_of_int (go 0 ring_degree)

let node_ns ~ring_degree ~cached_encodes n =
  let lg = log2_degree ring_degree and coefs = float_of_int ring_degree in
  node_fixed_ns +. work ~cached_encodes (fun k -> row_ns +. (coefs *. coef_ns ~lg k)) n

let func_ns ~ring_degree ~cached_encodes f =
  Irfunc.fold f ~init:0.0 ~f:(fun acc n -> acc +. node_ns ~ring_degree ~cached_encodes n)

let node_cost n = work ~cached_encodes:false (coef_ns ~lg:11.0) n
