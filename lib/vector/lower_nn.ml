open Ace_ir

type config = { slots : int; batch : int; conv_regroup : bool; gemm_bsgs : bool }

(* Slots owned by one request. With [batch = 1] this is the whole vector
   and every formula below reduces to the classic single-request lowering. *)
let region cfg = cfg.slots / cfg.batch

exception Unsupported of string

let fail fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

let log2i n =
  let rec go acc k = if k <= 1 then acc else go (acc + 1) (k lsr 1) in
  go 0 n

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* Pre-rotate a cleartext mask so it can sit inside an outer roll:
   roll(v, t) . m  ==  roll(v . roll_right(m, t), t). *)
let pre_rotate mask t =
  let n = Array.length mask in
  let t = ((t mod n) + n) mod n in
  Array.init n (fun q -> mask.((q - t + n) mod n))

let first_input_dims f =
  match (Irfunc.params f).(0) with
  | _, Types.Tensor [| c; h; w |] -> (c, h, w)
  | _, Types.Tensor [| c |] | _, Types.Tensor [| c; 1 |] -> (c, 1, 1)
  | _, t -> fail "expected a CHW image input, got %s" (Types.to_string t)

let input_layout cfg f =
  let c, h, w = first_input_dims f in
  Layout.with_batch (Layout.create ~channels:c ~height:h ~width:w ~slots:cfg.slots) cfg.batch

(* Mask dedup table. The polymorphic hash reads only a prefix of a float
   array, and masks often share a long zero prefix, so they would pile into
   one bucket and make lowering quadratic. This hash reads every element.
   Keys stay equal under [compare], as before, so -0.0 and 0.0 hash alike,
   as do all NaNs. *)
module Mask_key = struct
  type t = float array

  let equal a b = compare a b = 0

  let hash m =
    let h = ref (Array.length m) in
    for i = 0 to Array.length m - 1 do
      let x = Array.unsafe_get m i in
      let x = if x = 0.0 then 0.0 else if Float.is_nan x then Float.nan else x in
      h := (!h * 1_000_003) lxor Int64.to_int (Int64.bits_of_float x)
    done;
    !h land max_int
end

module Mask_tbl = Hashtbl.Make (Mask_key)

(* Lowering context: per-NN-node the VECTOR node id and its layout. *)
type ctx = {
  cfg : config;
  src : Irfunc.t;
  dst : Irfunc.t;
  layouts : (int, Layout.t) Hashtbl.t; (* NN node id -> layout *)
  ids : (int, int) Hashtbl.t; (* NN node id -> VECTOR node id *)
  mask_memo : string Mask_tbl.t;
  vty : Types.t;
}

let vec_id ctx i = Hashtbl.find ctx.ids i
let layout ctx i = Hashtbl.find ctx.layouts i

let mask_const ctx ~prefix m =
  match Mask_tbl.find_opt ctx.mask_memo m with
  | Some name -> name
  | None ->
    let name = Irfunc.fresh_const ctx.dst ~prefix m in
    Mask_tbl.add ctx.mask_memo m name;
    name

let emit ctx op args = Irfunc.add ctx.dst op args ctx.vty

(* Masks and biases are built in the logical region space (one request's
   [slots/batch] slots) and tiled across the batch regions here. Because the
   region length divides the slot count, tiling commutes with [pre_rotate]
   and with every roll the lowering emits: tile(pre_rotate_L(m, t)) =
   pre_rotate_slots(tile(m), t). With [batch = 1] the mask is emitted as-is,
   byte-identical to the unbatched lowering. *)
let emit_weight ctx ~prefix m =
  let m =
    let l = Array.length m in
    if l = ctx.cfg.slots then m else Array.init ctx.cfg.slots (fun i -> m.(i mod l))
  in
  emit ctx (Op.Weight (mask_const ctx ~prefix m)) [||]

let emit_roll ctx x k =
  let k = ((k mod ctx.cfg.slots) + ctx.cfg.slots) mod ctx.cfg.slots in
  if k = 0 then x else emit ctx (Op.V_roll k) [| x |]

let emit_mul_mask ctx ~prefix x m = emit ctx Op.V_mul [| x; emit_weight ctx ~prefix m |]

let emit_sum ctx = function
  | [] -> fail "empty summation"
  | first :: rest -> List.fold_left (fun acc v -> emit ctx Op.V_add [| acc; v |]) first rest

(* ---- Convolution ---- *)

let lower_conv ctx ~x_nn (attrs : Op.conv_attrs) ~w ~b =
  let lin = layout ctx x_nn in
  let x = vec_id ctx x_nn in
  let { Op.out_channels = oc; in_channels = ic; kernel = k; stride = s; pad = p } = attrs in
  if ic <> lin.Layout.channels then fail "conv: layout/attr channel mismatch";
  let lout = Layout.with_channels (Layout.with_stride lin s) oc in
  let bs = Layout.block_size lin in
  let blocks = Layout.blocks lin in
  let g = lin.Layout.gap in
  let w0 = lin.Layout.phys_w in
  (* Distinct channel-block deltas actually used.

     With [batch = 1] the delta is wrapped cyclically over the region's
     channel blocks — a negative channel distance reuses the wrap-around
     roll, which can collapse two logical deltas onto one physical roll
     when [ic + oc - 1 > blocks]. With [batch > 1] that wrap would read the
     *next request's* blocks, so deltas stay signed: the roll amount
     [delta * bs] never moves a selected slot across a region boundary
     (reads land on [pos lin ~c ..], which is region-local by
     construction). When no wrap-collapse occurs the two forms emit the
     same number of rolls — which is why batching adds zero homomorphic
     ops. *)
  let signed = ctx.cfg.batch > 1 in
  let deltas =
    let seen = Hashtbl.create 64 in
    for o = 0 to oc - 1 do
      for c = 0 to ic - 1 do
        let d = if signed then c - o else ((c - o) mod blocks + blocks) mod blocks in
        Hashtbl.replace seen d ()
      done
    done;
    Hashtbl.fold (fun d () acc -> d :: acc) seen [] |> List.sort compare
  in
  let chan delta o =
    if signed then o + delta
    else (o + delta) mod blocks
  in
  let inner_offset dy dx = (((dy - p) * g * w0) + ((dx - p) * g)) in
  (* Mask for one (delta, dy, dx): weight value at every valid destination. *)
  let mask delta dy dx =
    let m = Array.make (region ctx.cfg) 0.0 in
    let any = ref false in
    for o = 0 to oc - 1 do
      let c = chan delta o in
      if c >= 0 && c < ic then
        for y = 0 to lout.Layout.height - 1 do
          for xx = 0 to lout.Layout.width - 1 do
            let iy = (y * s) + dy - p and ix = (xx * s) + dx - p in
            if iy >= 0 && iy < lin.Layout.height && ix >= 0 && ix < lin.Layout.width then begin
              let v = w.((((((o * ic) + c) * k) + dy) * k) + dx) in
              if v <> 0.0 then begin
                m.(Layout.pos lout ~c:o ~h:y ~w:xx) <- v;
                any := true
              end
            end
          done
        done
    done;
    if !any then Some m else None
  in
  let result =
    if ctx.cfg.conv_regroup then begin
      (* u_delta = roll(x, delta*bs) once; one outer roll per kernel offset. *)
      let u = List.map (fun d -> (d, emit_roll ctx x (d * bs))) deltas in
      let per_offset =
        List.concat_map
          (fun dy ->
            List.filter_map
              (fun dx ->
                let t = inner_offset dy dx in
                let terms =
                  List.filter_map
                    (fun (d, ud) ->
                      match mask d dy dx with
                      | None -> None
                      | Some m -> Some (emit_mul_mask ctx ~prefix:"conv.mask" ud (pre_rotate m t)))
                    u
                in
                if terms = [] then None else Some (emit_roll ctx (emit_sum ctx terms) t))
              (List.init k (fun i -> i)))
          (List.init k (fun i -> i))
      in
      emit_sum ctx per_offset
    end
    else begin
      (* Direct form: one roll and one mask multiply per (delta, dy, dx). *)
      let terms =
        List.concat_map
          (fun d ->
            List.concat_map
              (fun dy ->
                List.filter_map
                  (fun dx ->
                    match mask d dy dx with
                    | None -> None
                    | Some m ->
                      let rolled = emit_roll ctx x ((d * bs) + inner_offset dy dx) in
                      Some (emit_mul_mask ctx ~prefix:"conv.mask" rolled m))
                  (List.init k (fun i -> i)))
              (List.init k (fun i -> i)))
          deltas
      in
      emit_sum ctx terms
    end
  in
  (* Bias: a plaintext vector addition. *)
  let bias = Array.make (region ctx.cfg) 0.0 in
  for o = 0 to oc - 1 do
    for y = 0 to lout.Layout.height - 1 do
      for xx = 0 to lout.Layout.width - 1 do
        bias.(Layout.pos lout ~c:o ~h:y ~w:xx) <- b.(o)
      done
    done
  done;
  let out = emit ctx Op.V_add [| result; emit_weight ctx ~prefix:"conv.bias" bias |] in
  (out, lout)

(* ---- GEMM (gemv, diagonal method) ---- *)

(* When the output would overflow the slot vector at the input's channel
   spacing (e.g. a 100-class head over 64-slot blocks), first compact the
   per-channel values onto a tighter power-of-two stride — one rotation and
   mask per input channel, run once. This is the data-layout selection the
   paper ascribes to the VECTOR level. *)
let compact_channels ctx ~lin x ~rows =
  let l = region ctx.cfg in
  let bs = Layout.block_size lin in
  let cols = lin.Layout.channels in
  let max_c = max rows cols in
  let rec stride s = if max_c * s * 2 <= l && s * 2 < bs then stride (s * 2) else s in
  let s = stride 1 in
  if max_c * s > l then fail "gemm: %d outputs cannot fit %d slots per request" rows l;
  let terms =
    List.init cols (fun c ->
        let rolled = emit_roll ctx x (c * (bs - s)) in
        let m = Array.make l 0.0 in
        m.(c * s) <- 1.0;
        emit_mul_mask ctx ~prefix:"gemm.compact" rolled m)
  in
  let packed = emit_sum ctx terms in
  ( packed,
    Layout.with_batch
      (Layout.create ~channels:cols ~height:1 ~width:s ~slots:ctx.cfg.slots)
      ctx.cfg.batch )

let lower_gemm ctx ~x_nn (g : Op.gemm_attrs) ~w ~b =
  let lin = layout ctx x_nn in
  let x = vec_id ctx x_nn in
  if lin.Layout.height <> 1 || lin.Layout.width <> 1 then
    fail "gemm: input must be one value per channel (use GlobalAveragePool/Flatten first)";
  let { Op.rows; cols } = g in
  if cols <> lin.Layout.channels then fail "gemm: cols != channels";
  let x, lin =
    if rows * Layout.block_size lin > region ctx.cfg then compact_channels ctx ~lin x ~rows
    else (x, lin)
  in
  let bs = Layout.block_size lin in
  let lout = Layout.scalar_per_channel ~channels:rows ~like:lin in
  (* The non-empty diagonals span delta in [-(rows-1), cols-1]; negative
     deltas are negative rolls, no cyclic wrap needed. *)
  let lo = -(rows - 1) and hi = cols - 1 in
  let diag delta =
    let m = Array.make (region ctx.cfg) 0.0 in
    let any = ref false in
    for o = 0 to rows - 1 do
      let c = o + delta in
      if c >= 0 && c < cols then begin
        let v = w.((o * cols) + c) in
        if v <> 0.0 then begin
          m.(Layout.pos lout ~c:o ~h:0 ~w:0) <- v;
          any := true
        end
      end
    done;
    if !any then Some m else None
  in
  let result =
    if ctx.cfg.gemm_bsgs then begin
      (* delta = lo + i + j*gstep: baby rolls cover the window offset i,
         giant rolls the j strides (Halevi-Shoup BSGS). *)
      let count = hi - lo + 1 in
      let gstep = 1 lsl ((log2i count + 1) / 2) in
      let baby = List.init gstep (fun i -> (i, emit_roll ctx x ((lo + i) * bs))) in
      let giants =
        List.filter_map
          (fun j ->
            let terms =
              List.filter_map
                (fun (i, ui) ->
                  match diag (lo + i + (j * gstep)) with
                  | None -> None
                  | Some m ->
                    Some
                      (emit_mul_mask ctx ~prefix:"gemm.diag" ui (pre_rotate m (j * gstep * bs))))
                baby
            in
            if terms = [] then None else Some (emit_roll ctx (emit_sum ctx terms) (j * gstep * bs)))
          (List.init ((count + gstep - 1) / gstep) (fun j -> j))
      in
      emit_sum ctx giants
    end
    else begin
      let terms =
        List.filter_map
          (fun d ->
            match diag d with
            | None -> None
            | Some m -> Some (emit_mul_mask ctx ~prefix:"gemm.diag" (emit_roll ctx x (d * bs)) m))
          (List.init (hi - lo + 1) (fun i -> lo + i))
      in
      emit_sum ctx terms
    end
  in
  let bias = Array.make (region ctx.cfg) 0.0 in
  for o = 0 to rows - 1 do
    bias.(Layout.pos lout ~c:o ~h:0 ~w:0) <- b.(o)
  done;
  let out = emit ctx Op.V_add [| result; emit_weight ctx ~prefix:"gemm.bias" bias |] in
  (out, lout)

(* ---- Pooling ---- *)

let lower_global_average_pool ctx ~x_nn =
  let lin = layout ctx x_nn in
  let x = vec_id ctx x_nn in
  let h = lin.Layout.height and w = lin.Layout.width in
  if not (is_pow2 h && is_pow2 w) then fail "global pool: dims must be powers of two";
  let g = lin.Layout.gap and w0 = lin.Layout.phys_w in
  let acc = ref x in
  for t = 0 to log2i w - 1 do
    acc := emit ctx Op.V_add [| !acc; emit_roll ctx !acc (g * (1 lsl t)) |]
  done;
  for t = 0 to log2i h - 1 do
    acc := emit ctx Op.V_add [| !acc; emit_roll ctx !acc (g * w0 * (1 lsl t)) |]
  done;
  let lout = Layout.scalar_per_channel ~channels:lin.Layout.channels ~like:lin in
  let m = Array.make (region ctx.cfg) 0.0 in
  for c = 0 to lin.Layout.channels - 1 do
    m.(Layout.pos lout ~c ~h:0 ~w:0) <- 1.0 /. float_of_int (h * w)
  done;
  (emit_mul_mask ctx ~prefix:"gap.mask" !acc m, lout)

let lower_average_pool ctx ~x_nn (a : Op.pool_attrs) =
  let lin = layout ctx x_nn in
  let x = vec_id ctx x_nn in
  if a.Op.pool_kernel <> a.Op.pool_stride then fail "average pool: kernel must equal stride";
  let k = a.Op.pool_kernel in
  let g = lin.Layout.gap and w0 = lin.Layout.phys_w in
  let terms = ref [] in
  for dy = 0 to k - 1 do
    for dx = 0 to k - 1 do
      terms := emit_roll ctx x ((dy * g * w0) + (dx * g)) :: !terms
    done
  done;
  let lout = Layout.with_stride lin k in
  let m = Array.make (region ctx.cfg) 0.0 in
  for c = 0 to lout.Layout.channels - 1 do
    for y = 0 to lout.Layout.height - 1 do
      for xx = 0 to lout.Layout.width - 1 do
        m.(Layout.pos lout ~c ~h:y ~w:xx) <- 1.0 /. float_of_int (k * k)
      done
    done
  done;
  (emit_mul_mask ctx ~prefix:"pool.mask" (emit_sum ctx !terms) m, lout)

(* ---- Driver ---- *)

let lower cfg src =
  if Irfunc.level src <> Level.Nn then invalid_arg "Lower_nn.lower: not an NN function";
  let vty = Types.Vec cfg.slots in
  let params =
    Array.to_list (Irfunc.params src) |> List.map (fun (name, _) -> (name, vty))
  in
  let dst = Irfunc.create ~name:(Irfunc.name src) ~level:Level.Vector ~params in
  let ctx =
    {
      cfg;
      src;
      dst;
      layouts = Hashtbl.create 64;
      ids = Hashtbl.create 64;
      mask_memo = Mask_tbl.create 64;
      vty;
    }
  in
  List.iter
    (fun name -> Irfunc.add_const dst name ~dims:(Irfunc.const_dims src name) (Irfunc.const src name))
    (Irfunc.const_names src);
  let define nn_id vid lay =
    Hashtbl.replace ctx.ids nn_id vid;
    Hashtbl.replace ctx.layouts nn_id lay
  in
  let const_of id =
    match (Irfunc.node src id).Irfunc.op with
    | Op.Weight name -> Irfunc.const src name
    | _ -> fail "expected a constant operand"
  in
  Irfunc.iter src (fun n ->
      let origin_start = Irfunc.num_nodes dst in
      let propagate () =
        for i = origin_start to Irfunc.num_nodes dst - 1 do
          let m = Irfunc.node dst i in
          if m.Irfunc.origin = "" then m.Irfunc.origin <- n.Irfunc.origin
        done
      in
      Fun.protect ~finally:propagate @@ fun () ->
      let args = n.Irfunc.args in
      match n.Irfunc.op with
      | Op.Param i ->
        let c, h, wdim =
          match n.Irfunc.ty with
          | Types.Tensor [| c; h; w |] -> (c, h, w)
          | Types.Tensor [| c |] | Types.Tensor [| c; 1 |] -> (c, 1, 1)
          | t -> fail "unsupported parameter type %s" (Types.to_string t)
        in
        let lay =
          Layout.with_batch
            (Layout.create ~channels:c ~height:h ~width:wdim ~slots:cfg.slots)
            cfg.batch
        in
        define n.Irfunc.id (Irfunc.param dst i) lay
      | Op.Weight _ | Op.Const_scalar _ -> () (* consumed by their users *)
      | Op.Nn (Op.Conv attrs) ->
        let w = const_of args.(1) and b = const_of args.(2) in
        let out, lay = lower_conv ctx ~x_nn:args.(0) attrs ~w ~b in
        define n.Irfunc.id out lay
      | Op.Nn (Op.Gemm g) ->
        let w = const_of args.(1) and b = const_of args.(2) in
        let out, lay = lower_gemm ctx ~x_nn:args.(0) g ~w ~b in
        define n.Irfunc.id out lay
      | Op.Nn Op.Relu ->
        define n.Irfunc.id
          (emit ctx (Op.V_nonlinear "relu") [| vec_id ctx args.(0) |])
          (layout ctx args.(0))
      | Op.Nn Op.Sigmoid ->
        define n.Irfunc.id
          (emit ctx (Op.V_nonlinear "sigmoid") [| vec_id ctx args.(0) |])
          (layout ctx args.(0))
      | Op.Nn Op.Tanh ->
        define n.Irfunc.id
          (emit ctx (Op.V_nonlinear "tanh") [| vec_id ctx args.(0) |])
          (layout ctx args.(0))
      | Op.Nn Op.Add ->
        let la = layout ctx args.(0) and lb = layout ctx args.(1) in
        if not (Layout.equal la lb) then fail "residual add: layouts differ";
        define n.Irfunc.id (emit ctx Op.V_add [| vec_id ctx args.(0); vec_id ctx args.(1) |]) la
      | Op.Nn Op.Mul ->
        let la = layout ctx args.(0) and lb = layout ctx args.(1) in
        if not (Layout.equal la lb) then fail "elementwise mul: layouts differ";
        define n.Irfunc.id (emit ctx Op.V_mul [| vec_id ctx args.(0); vec_id ctx args.(1) |]) la
      | Op.Nn Op.Global_average_pool ->
        let out, lay = lower_global_average_pool ctx ~x_nn:args.(0) in
        define n.Irfunc.id out lay
      | Op.Nn (Op.Average_pool a) ->
        let out, lay = lower_average_pool ctx ~x_nn:args.(0) a in
        define n.Irfunc.id out lay
      | Op.Nn (Op.Flatten | Op.Reshape _) ->
        define n.Irfunc.id (vec_id ctx args.(0)) (layout ctx args.(0))
      | Op.Nn (Op.Strided_slice { Op.start; slice_len; stride }) ->
        let lin = layout ctx args.(0) in
        if stride <> 1 then fail "strided_slice: only stride 1 is lowered";
        if lin.Layout.height <> 1 || lin.Layout.width <> 1 then
          fail "strided_slice: channel vectors only";
        let bs = Layout.block_size lin in
        let rolled = emit_roll ctx (vec_id ctx args.(0)) (start * bs) in
        let lout = Layout.scalar_per_channel ~channels:slice_len ~like:lin in
        let m = Array.make (region cfg) 0.0 in
        for c = 0 to slice_len - 1 do
          m.(Layout.pos lout ~c ~h:0 ~w:0) <- 1.0
        done;
        define n.Irfunc.id (emit_mul_mask ctx ~prefix:"slice.mask" rolled m) lout
      | op -> fail "cannot lower %s" (Op.name op));
  let rets = List.map (fun r -> vec_id ctx r) (Irfunc.returns src) in
  Irfunc.set_returns dst rets;
  Verify.verify dst;
  (dst, List.map (fun r -> layout ctx r) (Irfunc.returns src))

let rotation_amounts f =
  let seen = Hashtbl.create 64 in
  Irfunc.iter f (fun n ->
      match n.Irfunc.op with
      | Op.V_roll k when k <> 0 -> Hashtbl.replace seen k ()
      | _ -> ());
  Hashtbl.fold (fun k () acc -> k :: acc) seen [] |> List.sort compare
