module Context = Ace_fhe.Context
module Crt = Ace_rns.Crt
open Ace_ir

type config = {
  context : Context.t;
  lazy_rescale : bool;
  min_level_bootstrap : bool;
}

type decision = {
  origin : string;
  entry_level : int;
  height : int;
  ns : float;
  old_ns : float;
}

exception Lowering_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Lowering_error s)) fmt

let close a b = abs_float (a -. b) /. b < 1e-9

(* Multiplicative depth still to be consumed after each SIHE node, capped
   at the boundary of the producing operator (backward dataflow over
   provenance segments). A bootstrap target then covers at most the
   current operator — one convolution, or one whole ReLU polynomial — and
   the next operator re-bootstraps for itself. *)
let depth_to_go src =
  let n = Irfunc.num_nodes src in
  let dtg = Array.make n 0 in
  let consumes (node : Irfunc.node) = match node.Irfunc.op with Op.S_mul -> 1 | _ -> 0 in
  for i = n - 1 downto 0 do
    let node = Irfunc.node src i in
    Array.iter
      (fun a ->
        let producer = Irfunc.node src a in
        let within = producer.Irfunc.origin = node.Irfunc.origin in
        let need = if within then consumes node + dtg.(i) else consumes node in
        dtg.(a) <- max dtg.(a) need)
      node.Irfunc.args
  done;
  dtg

(* The longest chain of multiplications from the inputs to any node. *)
let total_depth src =
  let d = Array.make (Irfunc.num_nodes src) 0 in
  Irfunc.fold src ~init:0 ~f:(fun acc n ->
      let deepest = Array.fold_left (fun m a -> max m d.(a)) 0 n.Irfunc.args in
      let v = deepest + match n.Irfunc.op with Op.S_mul -> 1 | _ -> 0 in
      d.(n.Irfunc.id) <- v;
      max acc v)

(* How the current operator refreshes an exhausted operand. Either way
   an operand keeps the level it arrives with; a height only lowers the
   refresh targets inside the operator. [Old] is the rule without a
   height: a value is usable down to level 1 and refreshes to
   [min chain want] (the full chain without [min_level_bootstrap]).
   [Height h] refreshes to [min h want].

   Under a height, a value with more multiplications ahead than the one
   it feeds counts as exhausted one level early, at level 1. Level 0
   keeps only the bottom prime, 3 bits above Delta: room for an
   operator's output, not for the terms and partial sums inside a
   polynomial, whose coefficients reach tens (a product at level 1 sits
   on that same bottom prime). So intermediates run on levels 1 .. h, and
   heights start at 2 for an operator deeper than one multiplication. *)
type choice = Old | Height of int

type state = {
  cfg : config;
  src : Irfunc.t;
  dst : Irfunc.t;
  dtg : int array;
  map : int array; (* src id -> current dst id (clear or cipher) *)
  encode_cache : (int * int * int64, int) Hashtbl.t;
  delta : float;
  chain : int;
  mutable choice : choice;
  mutable journal : (int * int) list option;
      (* while speculating: (src, dst id before) of every map write *)
  mutable new_encodes : (int * int * int64) list; (* while speculating *)
}

let level_of st id = (Irfunc.node st.dst id).Irfunc.node_level
let scale_of st id = (Irfunc.node st.dst id).Irfunc.scale

let annotate (n : Irfunc.node) ~scale ~level =
  n.Irfunc.scale <- scale;
  n.Irfunc.node_level <- level

let emit st op args ~scale ~level =
  let ty =
    match op with
    | Op.C_mul -> (
      match (Irfunc.node st.dst args.(1)).Irfunc.ty with
      | Types.Cipher -> Types.Cipher3
      | _ -> Types.Cipher)
    | Op.C_encode -> Types.Plain
    | _ -> Types.Cipher
  in
  let id = Irfunc.add st.dst op args ty in
  annotate (Irfunc.node st.dst id) ~scale ~level;
  id

(* The prime consumed when rescaling from [level]. *)
let prime st level =
  if level < 1 then fail "no prime to rescale at level %d" level;
  float_of_int (Crt.modulus (Context.crt st.cfg.context) level)

let rescale st id =
  let l = level_of st id in
  let s = scale_of st id /. prime st l in
  let s = if close s st.delta then st.delta else s in
  emit st Op.C_rescale [| id |] ~scale:s ~level:(l - 1)

(* Rescale until the scale is back near Delta. Tracking stays exact: a
   ct-ct product lands on Delta^2/q_l, slightly off Delta, and stays that
   way — the next plaintext multiplication re-centres it for free by
   encoding its mask at [q * Delta / s]. *)
let rec reduce st id =
  let s = scale_of st id in
  if s < st.delta *. 1.5 then id
  else begin
    let l = level_of st id in
    if l < 1 then fail "cannot reduce scale 2^%.2f at level 0" (Float.log2 s);
    reduce st (rescale st id)
  end

(* Force exactly Delta: rescale down, then re-label any residual ratio
   with an explicit CKKS.downscale (the bounded scale re-interpretation
   every CKKS deployment performs; needed only when two drifted
   ciphertexts meet at an addition). *)
let to_delta st id =
  let id = reduce st id in
  let s = scale_of st id in
  if close s st.delta then id
  else emit st (Op.C_downscale (s /. st.delta)) [| id |] ~scale:st.delta ~level:(level_of st id)

let mod_switch_to st id target =
  let rec go id =
    let l = level_of st id in
    if l < target then fail "mod_switch cannot raise level %d -> %d" l target
    else if l = target then id
    else go (emit st Op.C_mod_switch [| id |] ~scale:(scale_of st id) ~level:(l - 1))
  in
  go id

let bootstrap st id ~target =
  let id = to_delta st id in
  emit st (Op.C_bootstrap target) [| id |] ~scale:st.delta ~level:target

let set_map st src id =
  (match st.journal with
  | Some j -> st.journal <- Some ((src, st.map.(src)) :: j)
  | None -> ());
  st.map.(src) <- id

(* Memoize normalization: the rewritten id represents the same value, so
   later uses start from it instead of re-reducing (or re-bootstrapping). *)
let update st src id = set_map st src id; id

(* Reduce operand [a_src] and make it able to pay for [want] more
   multiplicative levels under the current operator's choice. *)
let ensure st a_src ~want =
  let id = update st a_src (reduce st st.map.(a_src)) in
  let usable, cap =
    match st.choice with Old -> (1, st.chain) | Height h -> (min want 2, h)
  in
  if level_of st id >= usable then id
  else
    let target = if st.cfg.min_level_bootstrap then max 1 (min cap want) else st.chain in
    update st a_src (bootstrap st id ~target)

(* Plain operand: the SIHE graph routes it through S_encode(clear); fetch
   the clear node and encode at exactly the requested scale and level. *)
let encode_at st src_plain_id ~scale ~level =
  let enc_node = Irfunc.node st.src src_plain_id in
  let clear_src =
    match enc_node.Irfunc.op with
    | Op.S_encode -> enc_node.Irfunc.args.(0)
    | _ -> fail "plain operand does not come from SIHE.encode"
  in
  let key = (clear_src, level, Int64.bits_of_float scale) in
  match Hashtbl.find_opt st.encode_cache key with
  | Some id -> id
  | None ->
    let id = emit st Op.C_encode [| st.map.(clear_src) |] ~scale ~level in
    Hashtbl.add st.encode_cache key id;
    if st.journal <> None then st.new_encodes <- key :: st.new_encodes;
    id

let is_plain_src st id = (Irfunc.node st.src id).Irfunc.ty = Types.Plain

let lower_add_sub st (node : Irfunc.node) op =
  let a_src = node.Irfunc.args.(0) and b_src = node.Irfunc.args.(1) in
  let a = st.map.(a_src) in
  if is_plain_src st b_src then begin
    let p = encode_at st b_src ~scale:(scale_of st a) ~level:(level_of st a) in
    emit st op [| a; p |] ~scale:(scale_of st a) ~level:(level_of st a)
  end
  else begin
    let b = st.map.(b_src) in
    let a, b =
      if close (scale_of st a) (scale_of st b) then (a, b)
      else (update st a_src (to_delta st a), update st b_src (to_delta st b))
    in
    let target = min (level_of st a) (level_of st b) in
    let a = mod_switch_to st a target and b = mod_switch_to st b target in
    emit st op [| a; b |] ~scale:(scale_of st a) ~level:target
  end

let lower_mul st (node : Irfunc.node) =
  let a_src = node.Irfunc.args.(0) and b_src = node.Irfunc.args.(1) in
  let want = 1 + st.dtg.(node.Irfunc.id) in
  if is_plain_src st b_src then begin
    (* cipher x plain: encode the mask at [q_l * Delta / s] so the product
       sits at exactly Delta * q_l and the eventual rescale restores
       Delta — absorbing any drift the operand carried. *)
    let a = ensure st a_src ~want in
    let l = level_of st a in
    let enc_scale = prime st l *. st.delta /. scale_of st a in
    let p = encode_at st b_src ~scale:enc_scale ~level:l in
    let prod = emit st Op.C_mul [| a; p |] ~scale:(st.delta *. prime st l) ~level:l in
    if st.cfg.lazy_rescale then prod else rescale st prod
  end
  else begin
    let a = ensure st a_src ~want in
    let b = if a_src = b_src then a else ensure st b_src ~want in
    let target = min (level_of st a) (level_of st b) in
    let a = mod_switch_to st a target and b = mod_switch_to st b target in
    let prod =
      emit st Op.C_mul [| a; b |] ~scale:(scale_of st a *. scale_of st b) ~level:target
    in
    let rel = emit st Op.C_relin [| prod |] ~scale:(scale_of st prod) ~level:target in
    (* One immediate rescale; the residual Delta^2/q_l drift is tracked
       exactly and corrected by the next plaintext multiplication. *)
    reduce st rel
  end

let lower_node st (n : Irfunc.node) =
  let out =
    match n.Irfunc.op with
    | Op.Param i ->
      let id = Irfunc.param st.dst i in
      annotate (Irfunc.node st.dst id) ~scale:st.delta ~level:st.chain;
      id
    | Op.Weight _ | Op.Const_scalar _ -> Irfunc.add st.dst n.Irfunc.op [||] n.Irfunc.ty
    | Op.S_encode -> -2 (* encoded lazily at each use site *)
    | Op.S_decode -> fail "SIHE.decode belongs to the generated decryptor, not the model"
    | Op.S_add -> lower_add_sub st n Op.C_add
    | Op.S_sub -> lower_add_sub st n Op.C_sub
    | Op.S_mul -> lower_mul st n
    | Op.S_neg ->
      let a = st.map.(n.Irfunc.args.(0)) in
      emit st Op.C_neg [| a |] ~scale:(scale_of st a) ~level:(level_of st a)
    | Op.S_rotate k ->
      (* A rotation consumes no level, but if the (shared) source is
         already exhausted and more multiplications follow, bootstrap
         here — once, before the fan-out — instead of once per rotated
         copy (the paper's placement before the consuming operator). *)
      let a_src = n.Irfunc.args.(0) in
      let a =
        if st.dtg.(n.Irfunc.id) > 0 then ensure st a_src ~want:st.dtg.(n.Irfunc.id)
        else st.map.(a_src)
      in
      emit st (Op.C_rotate k) [| a |] ~scale:(scale_of st a) ~level:(level_of st a)
    | Op.V_add | Op.V_sub | Op.V_mul | Op.V_roll _ | Op.V_broadcast _ | Op.V_pad _
    | Op.V_reshape _ | Op.V_slice _ | Op.V_tile _ ->
      Irfunc.add st.dst n.Irfunc.op (Array.map (fun a -> st.map.(a)) n.Irfunc.args) n.Irfunc.ty
    | op -> fail "unexpected %s in SIHE function" (Op.name op)
  in
  st.map.(n.Irfunc.id) <- out

(* Lower the operator [i0, i1) under the current choice; the new nodes
   take the operator's provenance. *)
let lower_segment st i0 i1 =
  let start = Irfunc.num_nodes st.dst in
  for i = i0 to i1 - 1 do
    lower_node st (Irfunc.node st.src i)
  done;
  let origin = (Irfunc.node st.src i0).Irfunc.origin in
  for i = start to Irfunc.num_nodes st.dst - 1 do
    let m = Irfunc.node st.dst i in
    if m.Irfunc.origin = "" then m.Irfunc.origin <- origin
  done

(* ---------- priced tower height per operator ---------- *)

let price st from =
  let ring_degree = Context.ring_degree st.cfg.context in
  let total = ref 0.0 in
  for i = from to Irfunc.num_nodes st.dst - 1 do
    total :=
      !total +. Node_price.node_ns ~ring_degree ~cached_encodes:true st.dst (Irfunc.node st.dst i)
  done;
  !total

(* Lower the operator under [choice] and price what it emitted. Unless
   [keep ns] holds, take it all back: the nodes, every operand rewrite
   and every encode. A candidate the lowering rejects costs [infinity]. *)
let try_lower st choice i0 i1 ~keep =
  let start = Irfunc.num_nodes st.dst in
  st.choice <- choice;
  st.journal <- Some [];
  let ns =
    match lower_segment st i0 i1 with
    | () -> price st start
    | exception Lowering_error _ -> infinity
  in
  let kept = ns < infinity && keep ns in
  if not kept then begin
    Irfunc.truncate st.dst start;
    List.iter (fun (src, id) -> st.map.(src) <- id) (Option.get st.journal);
    List.iter (Hashtbl.remove st.encode_cache) st.new_encodes
  end;
  st.journal <- None;
  st.new_encodes <- [];
  (ns, kept)

(* One scan of the operator [i0, i1): its depth, the highest level its
   operands arrive at, and a key that fixes what lowering it emits: its
   structure relative to [i0] (constant payloads elided: the price does
   not read them) plus the (type, level, scale) of every operand it takes
   from outside. *)
let scan st i0 i1 =
  let depth = ref 0 and entry_level = ref 0 in
  let outside = Hashtbl.create 4 in
  let entries = ref [] in
  let code a =
    if a >= i0 then a - i0
    else
      match Hashtbl.find_opt outside a with
      | Some k -> k
      | None ->
        let k = -1 - Hashtbl.length outside in
        Hashtbl.add outside a k;
        let m = st.map.(a) in
        let ty = (Irfunc.node st.src a).Irfunc.ty in
        (if m >= 0 && Types.is_ciphertext ty then begin
           let d = Irfunc.node st.dst m in
           entry_level := max !entry_level d.Irfunc.node_level;
           entries := (ty, d.Irfunc.node_level, Int64.bits_of_float d.Irfunc.scale) :: !entries
         end
         else entries := (ty, -1, 0L) :: !entries);
        k
  in
  let nodes =
    Array.init (i1 - i0) (fun j ->
        let n = Irfunc.node st.src (i0 + j) in
        let d = st.dtg.(n.Irfunc.id) in
        (match n.Irfunc.op with
        | Op.S_mul -> depth := max !depth (1 + d)
        | Op.S_rotate _ -> depth := max !depth d
        | _ -> ());
        let op =
          match n.Irfunc.op with
          | Op.Weight _ -> Op.Weight ""
          | Op.Const_scalar _ -> Op.Const_scalar 0.0
          | op -> op
        in
        (op, n.Irfunc.ty, d, Array.map code n.Irfunc.args))
  in
  (!depth, !entry_level, (nodes, List.rev !entries))

(* Choose the operator's height among every height it can use
   ([1 or 2 .. min chain depth]; taller ones lower identically) and the rule
   without a height, each lowered and priced in predicted ns. The
   cheapest wins: the lowest height on ties, the old rule only when
   strictly cheaper. Operators of one shape arriving in one state share
   one search. Heights are tried tallest first, and the last one tried
   stays lowered when it wins; returns whether the operator is lowered. *)
let choose st memo decisions i0 i1 =
  let depth, entry_level, key = scan st i0 i1 in
  let origin = (Irfunc.node st.src i0).Irfunc.origin in
  let record choice ns old_ns =
    let height = match choice with Old -> st.chain | Height h -> h in
    decisions := { origin; entry_level; height; ns; old_ns } :: !decisions;
    st.choice <- choice
  in
  if depth = 0 then begin
    st.choice <- Old;
    false
  end
  else
    match Hashtbl.find_opt memo key with
    | Some (choice, ns, old_ns) ->
      record choice ns old_ns;
      false
    | None ->
      let top = min st.chain depth and lowest = min depth 2 in
      let old_ns, _ = try_lower st Old i0 i1 ~keep:(fun _ -> false) in
      let best = ref (Old, old_ns) and lowered = ref false in
      for h = top downto lowest do
        let ns, kept =
          try_lower st (Height h) i0 i1 ~keep:(fun ns -> h = lowest && ns <= snd !best)
        in
        if ns <= snd !best then best := (Height h, ns);
        lowered := kept
      done;
      let choice, ns = !best in
      Hashtbl.add memo key (choice, ns, old_ns);
      record choice ns old_ns;
      !lowered

let lower cfg src =
  if Irfunc.level src <> Level.Sihe then invalid_arg "Lower_sihe.lower: not a SIHE function";
  let params =
    Array.to_list (Irfunc.params src) |> List.map (fun (name, _) -> (name, Types.Cipher))
  in
  let dst = Irfunc.create ~name:(Irfunc.name src) ~level:Level.Ckks ~params in
  List.iter
    (fun c -> Irfunc.add_const dst c ~dims:(Irfunc.const_dims src c) (Irfunc.const src c))
    (Irfunc.const_names src);
  let chain = Context.max_level cfg.context in
  (* A function whose whole depth fits the chain needs no refresh: its
     operators run at the levels the encryption gives them. Otherwise
     each operator's height is priced. *)
  let priced = cfg.min_level_bootstrap && total_depth src > chain in
  let st =
    {
      cfg;
      src;
      dst;
      dtg = depth_to_go src;
      map = Array.make (Irfunc.num_nodes src) (-1);
      encode_cache = Hashtbl.create 256;
      delta = Context.scale cfg.context;
      chain;
      choice = Old;
      journal = None;
      new_encodes = [];
    }
  in
  let memo = Hashtbl.create 16 and decisions = ref [] in
  let n = Irfunc.num_nodes src in
  let i0 = ref 0 in
  while !i0 < n do
    let origin = (Irfunc.node src !i0).Irfunc.origin in
    let i1 = ref (!i0 + 1) in
    while !i1 < n && (Irfunc.node src !i1).Irfunc.origin = origin do
      incr i1
    done;
    let lowered = priced && choose st memo decisions !i0 !i1 in
    if not lowered then lower_segment st !i0 !i1;
    i0 := !i1
  done;
  let rets = List.map (fun r -> reduce st st.map.(r)) (Irfunc.returns src) in
  Irfunc.set_returns dst rets;
  Verify.verify dst;
  (dst, List.rev !decisions)

let rotation_amounts f =
  let seen = Hashtbl.create 64 in
  Irfunc.iter f (fun n ->
      match n.Irfunc.op with
      | Op.C_rotate k when k <> 0 -> Hashtbl.replace seen k ()
      | Op.C_rotate_batch steps ->
        Array.iter (fun k -> if k <> 0 then Hashtbl.replace seen k ()) steps
      | _ -> ());
  Hashtbl.fold (fun k () acc -> k :: acc) seen [] |> List.sort compare

let bootstrap_count f =
  Irfunc.fold f ~init:0 ~f:(fun acc n ->
      match n.Irfunc.op with Op.C_bootstrap _ -> acc + 1 | _ -> acc)

let max_level_used f =
  Irfunc.fold f ~init:0 ~f:(fun acc n -> max acc n.Irfunc.node_level)
