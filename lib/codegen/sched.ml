open Ace_ir

type t = int array array

let free_after t = t

(* Cost model: weights are "limbs of pointwise work" — one unit is one
   O(N) pass over a residue row. Calibrated against the telemetry p50s of
   BENCH_pr3 (key_switch 3.6ms at ~8 limbs ~ limbs^2 units of ~50us; add
   0.13ms ~ half a unit). Only the RATIOS matter: the serving daemon
   compares executions' remaining units against each other. *)
let node_cost (n : Irfunc.node) =
  let limbs = float_of_int (max 1 (n.Irfunc.node_level + 1)) in
  match n.Irfunc.op with
  | Op.C_relin | Op.C_rotate _ | Op.C_conj ->
    (* gadget decompose: limbs digits x (lift + NTT) per basis row, then
       the mod-down — quadratic in limbs, the dominant runtime op *)
    ((limbs +. 1.0) *. limbs *. 2.0) +. (4.0 *. limbs)
  | Op.C_rotate_batch steps ->
    (* one hoisted decompose (quadratic) + per step: permuted mul-acc over
       the extended basis and one mod-down (linear-ish in limbs) *)
    ((limbs +. 1.0) *. limbs *. 2.0)
    +. (float_of_int (Array.length steps) *. 4.0 *. limbs)
  | Op.C_mul -> 8.0 *. limbs (* 4 NTT-domain tensor products + flips *)
  | Op.C_mul_i -> 1.0 *. limbs (* pointwise monomial product per component *)
  | Op.C_rescale -> 4.0 *. limbs (* coeff flip, exact division, NTT flip *)
  | Op.C_encode | Op.C_encode_pair -> 3.0 *. limbs (* embed + round + forward NTT *)
  | Op.C_upscale _ -> 4.0 *. limbs (* encode ones + mul_plain *)
  | Op.C_add | Op.C_sub | Op.C_neg ->
    (* BENCH_pr8 calibration: calib.add error_ratio_p50 1.578 against the
       key_switch anchor — adds cost more than half a unit once loop
       overhead is charged. *)
    0.8 *. limbs
  | Op.C_mod_switch | Op.C_downscale _ | Op.C_batch_get _ -> 0.05
  | Op.C_bootstrap _ ->
    (* decrypt + decode + encode + encrypt through the oracle. BENCH_pr8
       measured calib.bootstrap error_ratio_p50 0.3945: the oracle costs
       ~0.4x the old 40-unit guess. *)
    16.0 *. limbs
  | Op.Param _ | Op.Weight _ | Op.Const_scalar _ -> 0.0
  | _ -> 0.05 (* surviving cleartext vector ops: host float loops *)

(* Calibration buckets: one telemetry metric (calib.<category>) per
   bucket collects measured-µs / predicted-units ratios, so a drifting
   constant in [node_cost] shows up as that bucket's ratio diverging from
   the others'. *)
let func_cost f = Irfunc.fold f ~init:0.0 ~f:(fun acc n -> acc +. node_cost n)

let node_category (n : Irfunc.node) =
  match n.Irfunc.op with
  | Op.C_relin | Op.C_rotate _ | Op.C_conj | Op.C_rotate_batch _ -> "key_switch"
  | Op.C_mul | Op.C_mul_i -> "mul"
  | Op.C_rescale -> "rescale"
  | Op.C_encode | Op.C_encode_pair | Op.C_upscale _ -> "encode"
  | Op.C_add | Op.C_sub | Op.C_neg -> "add"
  | Op.C_bootstrap _ -> "bootstrap"
  | _ -> "light"

let plan f =
  let num = Irfunc.num_nodes f in
  (* [last_use.(v)]: the last node that reads [v]; -1 when nothing does,
     [max_int] for a return, which is never released. *)
  let last_use = Array.make num (-1) in
  Irfunc.iter f (fun n ->
      Array.iter (fun a -> last_use.(a) <- max last_use.(a) n.Irfunc.id) n.Irfunc.args);
  List.iter (fun r -> last_use.(r) <- max_int) (Irfunc.returns f);
  (* A C_batch_get is a non-owning view: releasing the batch frees the
     record the view aliases, so the batch outlives every reader of every
     view. A returned view pins the batch; an unread view extends
     nothing. The extended last use of a batch is a node that does not
     name it as an argument, which is why the plan is keyed by node. *)
  Irfunc.iter f (fun n ->
      match n.Irfunc.op with
      | Op.C_batch_get _ ->
        let b = n.Irfunc.args.(0) in
        last_use.(b) <- max last_use.(b) last_use.(n.Irfunc.id)
      | _ -> ());
  let free = Array.make num [] in
  for v = num - 1 downto 0 do
    let u = last_use.(v) in
    if u >= 0 && u <> max_int then free.(u) <- v :: free.(u)
  done;
  Array.map Array.of_list free

let check f t =
  let num = Irfunc.num_nodes f in
  if Array.length t <> num then
    failwith
      (Printf.sprintf "sched: plan covers %d nodes, the function has %d" (Array.length t) num);
  let returned = Array.make num false in
  List.iter (fun r -> if r >= 0 && r < num then returned.(r) <- true) (Irfunc.returns f);
  (* [released.(v)]: the node after which [v] is released, [max_int] if never. *)
  let released = Array.make num max_int in
  Array.iteri
    (fun at values ->
      Array.iter
        (fun v ->
          if v < 0 || v >= num then
            failwith (Printf.sprintf "sched: node %d releases unknown value %d" at v);
          if returned.(v) then
            failwith (Printf.sprintf "sched: node %d is returned but released after node %d" v at);
          if released.(v) <> max_int then
            failwith (Printf.sprintf "sched: node %d released twice" v);
          released.(v) <- at)
        values)
    t;
  (* A node reading a C_batch_get view transitively reads the batch the
     view indexes into, so the batch must survive that reader too. *)
  Irfunc.iter f (fun n ->
      let id = n.Irfunc.id in
      Array.iter
        (fun a ->
          if released.(a) < id then
            failwith
              (Printf.sprintf "sched: use-after-free: node %d reads %d, released after node %d"
                 id a released.(a));
          match (Irfunc.node f a).Irfunc.op with
          | Op.C_batch_get _ ->
            let b = (Irfunc.node f a).Irfunc.args.(0) in
            if released.(b) < id then
              failwith
                (Printf.sprintf
                   "sched: use-after-free through view: node %d reads view %d of batch %d, \
                    released after node %d"
                   id a b released.(b))
          | _ -> ())
        n.Irfunc.args);
  List.iter
    (fun r ->
      match (Irfunc.node f r).Irfunc.op with
      | Op.C_batch_get _ ->
        let b = (Irfunc.node f r).Irfunc.args.(0) in
        if released.(b) <> max_int then
          failwith
            (Printf.sprintf "sched: node %d is a returned view of batch %d, which is released" r b)
      | _ -> ())
    (Irfunc.returns f)
