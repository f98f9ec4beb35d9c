module B = Ace_util.Bytesio
open Ace_ir

let fail fmt = Printf.ksprintf (fun m -> raise (B.Error m)) fmt

(* -- leaf codecs -- *)

let write_type w = function
  | Types.Tensor dims ->
    B.w_u8 w 0;
    B.w_int_array w dims
  | Types.Vec n ->
    B.w_u8 w 1;
    B.w_i64 w n
  | Types.Plain -> B.w_u8 w 2
  | Types.Cipher -> B.w_u8 w 3
  | Types.Cipher3 -> B.w_u8 w 4
  | Types.Scalar -> B.w_u8 w 5

let read_type r =
  match B.r_u8 r with
  | 0 -> Types.Tensor (B.r_int_array r)
  | 1 -> Types.Vec (B.r_i64 r)
  | 2 -> Types.Plain
  | 3 -> Types.Cipher
  | 4 -> Types.Cipher3
  | 5 -> Types.Scalar
  | t -> fail "bad type tag %d" t

let write_level w l =
  B.w_u8 w
    (match l with
    | Level.Nn -> 0
    | Level.Vector -> 1
    | Level.Sihe -> 2
    | Level.Ckks -> 3
    | Level.Poly -> 4)

let read_level r =
  match B.r_u8 r with
  | 0 -> Level.Nn
  | 1 -> Level.Vector
  | 2 -> Level.Sihe
  | 3 -> Level.Ckks
  | 4 -> Level.Poly
  | t -> fail "bad level tag %d" t

let write_conv w (a : Op.conv_attrs) =
  B.w_i64 w a.Op.out_channels;
  B.w_i64 w a.Op.in_channels;
  B.w_i64 w a.Op.kernel;
  B.w_i64 w a.Op.stride;
  B.w_i64 w a.Op.pad

let read_conv r =
  let out_channels = B.r_i64 r in
  let in_channels = B.r_i64 r in
  let kernel = B.r_i64 r in
  let stride = B.r_i64 r in
  let pad = B.r_i64 r in
  { Op.out_channels; in_channels; kernel; stride; pad }

let write_slice w (a : Op.slice_attrs) =
  B.w_i64 w a.Op.start;
  B.w_i64 w a.Op.slice_len;
  B.w_i64 w a.Op.stride

let read_slice r =
  let start = B.r_i64 r in
  let slice_len = B.r_i64 r in
  let stride = B.r_i64 r in
  { Op.start; slice_len; stride }

(* One fixed tag per opcode across all four DAG levels. Tags are part of
   the wire format: append new ones, never renumber. *)
let write_op w = function
  | Op.Param i ->
    B.w_u8 w 0;
    B.w_i64 w i
  | Op.Weight s ->
    B.w_u8 w 1;
    B.w_string w s
  | Op.Const_scalar f ->
    B.w_u8 w 2;
    B.w_f64 w f
  | Op.Nn (Op.Conv a) ->
    B.w_u8 w 10;
    write_conv w a
  | Op.Nn (Op.Gemm a) ->
    B.w_u8 w 11;
    B.w_i64 w a.Op.rows;
    B.w_i64 w a.Op.cols
  | Op.Nn Op.Relu -> B.w_u8 w 12
  | Op.Nn Op.Sigmoid -> B.w_u8 w 13
  | Op.Nn Op.Tanh -> B.w_u8 w 14
  | Op.Nn (Op.Average_pool a) ->
    B.w_u8 w 15;
    B.w_i64 w a.Op.pool_kernel;
    B.w_i64 w a.Op.pool_stride
  | Op.Nn Op.Global_average_pool -> B.w_u8 w 16
  | Op.Nn Op.Flatten -> B.w_u8 w 17
  | Op.Nn (Op.Reshape dims) ->
    B.w_u8 w 18;
    B.w_int_array w dims
  | Op.Nn Op.Add -> B.w_u8 w 19
  | Op.Nn Op.Mul -> B.w_u8 w 20
  | Op.Nn (Op.Strided_slice a) ->
    B.w_u8 w 21;
    write_slice w a
  | Op.V_add -> B.w_u8 w 30
  | Op.V_mul -> B.w_u8 w 31
  | Op.V_sub -> B.w_u8 w 32
  | Op.V_broadcast i ->
    B.w_u8 w 33;
    B.w_i64 w i
  | Op.V_pad i ->
    B.w_u8 w 34;
    B.w_i64 w i
  | Op.V_reshape i ->
    B.w_u8 w 35;
    B.w_i64 w i
  | Op.V_roll i ->
    B.w_u8 w 36;
    B.w_i64 w i
  | Op.V_slice a ->
    B.w_u8 w 37;
    write_slice w a
  | Op.V_tile i ->
    B.w_u8 w 38;
    B.w_i64 w i
  | Op.V_nonlinear s ->
    B.w_u8 w 39;
    B.w_string w s
  | Op.S_rotate i ->
    B.w_u8 w 50;
    B.w_i64 w i
  | Op.S_add -> B.w_u8 w 51
  | Op.S_sub -> B.w_u8 w 52
  | Op.S_mul -> B.w_u8 w 53
  | Op.S_neg -> B.w_u8 w 54
  | Op.S_encode -> B.w_u8 w 55
  | Op.S_decode -> B.w_u8 w 56
  | Op.C_rotate i ->
    B.w_u8 w 70;
    B.w_i64 w i
  | Op.C_rotate_batch steps ->
    B.w_u8 w 71;
    B.w_int_array w steps
  | Op.C_batch_get i ->
    B.w_u8 w 72;
    B.w_i64 w i
  | Op.C_add -> B.w_u8 w 73
  | Op.C_sub -> B.w_u8 w 74
  | Op.C_mul -> B.w_u8 w 75
  | Op.C_neg -> B.w_u8 w 76
  | Op.C_encode -> B.w_u8 w 77
  | Op.C_decode -> B.w_u8 w 78
  | Op.C_relin -> B.w_u8 w 79
  | Op.C_rescale -> B.w_u8 w 80
  | Op.C_mod_switch -> B.w_u8 w 81
  | Op.C_upscale f ->
    B.w_u8 w 82;
    B.w_f64 w f
  | Op.C_downscale f ->
    B.w_u8 w 83;
    B.w_f64 w f
  | Op.C_bootstrap l ->
    B.w_u8 w 84;
    B.w_i64 w l
  | Op.C_conj -> B.w_u8 w 85
  | Op.C_mul_i -> B.w_u8 w 86
  | Op.C_encode_pair -> B.w_u8 w 87

let read_op r =
  match B.r_u8 r with
  | 0 -> Op.Param (B.r_i64 r)
  | 1 -> Op.Weight (B.r_string r)
  | 2 -> Op.Const_scalar (B.r_f64 r)
  | 10 -> Op.Nn (Op.Conv (read_conv r))
  | 11 ->
    let rows = B.r_i64 r in
    let cols = B.r_i64 r in
    Op.Nn (Op.Gemm { Op.rows; cols })
  | 12 -> Op.Nn Op.Relu
  | 13 -> Op.Nn Op.Sigmoid
  | 14 -> Op.Nn Op.Tanh
  | 15 ->
    let pool_kernel = B.r_i64 r in
    let pool_stride = B.r_i64 r in
    Op.Nn (Op.Average_pool { Op.pool_kernel; pool_stride })
  | 16 -> Op.Nn Op.Global_average_pool
  | 17 -> Op.Nn Op.Flatten
  | 18 -> Op.Nn (Op.Reshape (B.r_int_array r))
  | 19 -> Op.Nn Op.Add
  | 20 -> Op.Nn Op.Mul
  | 21 -> Op.Nn (Op.Strided_slice (read_slice r))
  | 30 -> Op.V_add
  | 31 -> Op.V_mul
  | 32 -> Op.V_sub
  | 33 -> Op.V_broadcast (B.r_i64 r)
  | 34 -> Op.V_pad (B.r_i64 r)
  | 35 -> Op.V_reshape (B.r_i64 r)
  | 36 -> Op.V_roll (B.r_i64 r)
  | 37 -> Op.V_slice (read_slice r)
  | 38 -> Op.V_tile (B.r_i64 r)
  | 39 -> Op.V_nonlinear (B.r_string r)
  | 50 -> Op.S_rotate (B.r_i64 r)
  | 51 -> Op.S_add
  | 52 -> Op.S_sub
  | 53 -> Op.S_mul
  | 54 -> Op.S_neg
  | 55 -> Op.S_encode
  | 56 -> Op.S_decode
  | 70 -> Op.C_rotate (B.r_i64 r)
  | 71 -> Op.C_rotate_batch (B.r_int_array r)
  | 72 -> Op.C_batch_get (B.r_i64 r)
  | 73 -> Op.C_add
  | 74 -> Op.C_sub
  | 75 -> Op.C_mul
  | 76 -> Op.C_neg
  | 77 -> Op.C_encode
  | 78 -> Op.C_decode
  | 79 -> Op.C_relin
  | 80 -> Op.C_rescale
  | 81 -> Op.C_mod_switch
  | 82 -> Op.C_upscale (B.r_f64 r)
  | 83 -> Op.C_downscale (B.r_f64 r)
  | 84 -> Op.C_bootstrap (B.r_i64 r)
  | 85 -> Op.C_conj
  | 86 -> Op.C_mul_i
  | 87 -> Op.C_encode_pair
  | t -> fail "bad opcode tag %d" t

(* -- whole functions -- *)

let func_magic = "ACEf"
let func_version = 1

let write_func w f =
  B.w_bytes w func_magic;
  B.w_u16 w func_version;
  B.w_string w (Irfunc.name f);
  write_level w (Irfunc.level f);
  let params = Irfunc.params f in
  B.w_u16 w (Array.length params);
  Array.iter
    (fun (name, ty) ->
      B.w_string w name;
      write_type w ty)
    params;
  B.w_u32 w (Irfunc.num_nodes f);
  Irfunc.iter f (fun n ->
      write_op w n.Irfunc.op;
      B.w_int_array w n.Irfunc.args;
      write_type w n.Irfunc.ty;
      B.w_f64 w n.Irfunc.scale;
      B.w_i64 w n.Irfunc.node_level;
      B.w_string w n.Irfunc.origin);
  B.w_u16 w (List.length (Irfunc.returns f));
  List.iter (fun ret -> B.w_u32 w ret) (Irfunc.returns f);
  let consts = Irfunc.const_names f in
  B.w_u32 w (List.length consts);
  List.iter
    (fun name ->
      B.w_string w name;
      B.w_int_array w (Irfunc.const_dims f name);
      B.w_float_array w (Irfunc.const f name))
    consts

(* The function is rebuilt through the Irfunc builder, so its own checks
   (argument ids exist, opcode arity) run on untrusted input; their
   Invalid_argument is converted into the codec's typed error. *)
let read_func r =
  let checked what f = try f () with Invalid_argument m -> fail "%s: %s" what m in
  let m = B.r_bytes r 4 in
  if m <> func_magic then fail "irfunc: bad magic %S" m;
  let v = B.r_u16 r in
  if v <> func_version then fail "irfunc: format version %d, this build speaks %d" v func_version;
  let name = B.r_string r in
  let level = read_level r in
  let nparams = B.r_u16 r in
  let params =
    List.init nparams (fun _ ->
        let pname = B.r_string r in
        let ty = read_type r in
        (pname, ty))
  in
  let f = Irfunc.create ~name ~level ~params in
  let count = B.r_u32 r in
  if count < nparams then fail "irfunc: %d nodes but %d params" count nparams;
  for id = 0 to count - 1 do
    let op = read_op r in
    let args = B.r_int_array r in
    let ty = read_type r in
    let scale = B.r_f64 r in
    let node_level = B.r_i64 r in
    let origin = B.r_string r in
    if id < nparams then begin
      (* Parameter nodes were pre-created by [create]; the stream must
         agree with them exactly. *)
      if op <> Op.Param id || args <> [||] then fail "irfunc: node %d is not parameter %d" id id;
      let n = Irfunc.node f id in
      if n.Irfunc.ty <> ty then fail "irfunc: parameter %d type mismatch" id;
      n.Irfunc.scale <- scale;
      n.Irfunc.node_level <- node_level;
      n.Irfunc.origin <- origin
    end
    else begin
      let got = checked "irfunc node" (fun () -> Irfunc.add f op args ty) in
      if got <> id then fail "irfunc: node id drift (%d vs %d)" got id;
      let n = Irfunc.node f id in
      n.Irfunc.scale <- scale;
      n.Irfunc.node_level <- node_level;
      n.Irfunc.origin <- origin
    end
  done;
  let nrets = B.r_u16 r in
  let rets = List.init nrets (fun _ -> B.r_u32 r) in
  checked "irfunc returns" (fun () -> Irfunc.set_returns f rets);
  let nconsts = B.r_u32 r in
  for _ = 1 to nconsts do
    let cname = B.r_string r in
    let dims = B.r_int_array r in
    let data = B.r_float_array r in
    checked "irfunc const" (fun () -> Irfunc.add_const f cname ~dims data)
  done;
  f

let encode_func f = B.encode (fun w -> write_func w f)

let decode_func s = B.decode read_func s

let equal_func a b =
  let nodes f =
    List.init (Irfunc.num_nodes f) (fun i ->
        let n = Irfunc.node f i in
        (n.Irfunc.op, n.Irfunc.args, n.Irfunc.ty, n.Irfunc.scale, n.Irfunc.node_level, n.Irfunc.origin))
  in
  let consts f =
    List.map (fun n -> (n, Irfunc.const_dims f n, Irfunc.const f n)) (Irfunc.const_names f)
  in
  Irfunc.name a = Irfunc.name b
  && Irfunc.level a = Irfunc.level b
  && Irfunc.params a = Irfunc.params b
  && nodes a = nodes b
  && Irfunc.returns a = Irfunc.returns b
  && consts a = consts b
