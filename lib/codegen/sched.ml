open Ace_ir

type t = int array array

let free_after t = t

let node_ns = Ace_ckks_ir.Node_price.node_ns
let func_ns = Ace_ckks_ir.Node_price.func_ns
let node_cost = Ace_ckks_ir.Node_price.node_cost

(* Calibration buckets: one telemetry metric (calib.<category>) per
   bucket collects measured / predicted ns, so a drifting constant shows
   up as that bucket's ratio leaving 1.0. *)
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
