open Ace_ir

type mode = Node_parallel | Sequential

type t = {
  sc_waves : int array array;
  sc_free : int array array;
  sc_barrier : bool array;
  sc_weight : float array;
  sc_width : int array;
  (* per wavefront, precomputed for [decide]: total weight, heaviest node,
     and the limb-parallel work integral sum_i w_i/width_i together with
     the residual sum_i w_i for width_i >= p corrections. The limb estimate
     needs min(width, p) with p only known at run time, so [decide] falls
     back to the per-node arrays for small wavefronts and uses the
     precomputed aggregates for the common monotone case. *)
  sc_total : float array;
  sc_heaviest : float array;
}

let wavefronts t = t.sc_waves
let free_after t = t.sc_free
let is_barrier t w = t.sc_barrier.(w)
let weight t id = t.sc_weight.(id)
let width t id = t.sc_width.(id)

let max_width t =
  Array.fold_left (fun acc w -> max acc (Array.length w)) 0 t.sc_waves

let wave_weight t w = t.sc_total.(w)

(* Cost model: weights are "limbs of pointwise work" — one unit is one
   O(N) pass over a residue row. Calibrated against the telemetry p50s of
   BENCH_pr3 (key_switch 3.6ms at ~8 limbs ~ limbs^2 units of ~50us; add
   0.13ms ~ half a unit). Only the RATIOS matter: the executor compares
   two ways of spending the same pool on the same wavefront. *)
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
    (* decrypt + decode + encode + encrypt through the oracle; barrier
       anyway, the weight only shows up in occupancy reports. BENCH_pr8
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

let node_width (n : Irfunc.node) =
  let limbs = max 1 (n.Irfunc.node_level + 1) in
  match n.Irfunc.op with
  | Op.C_relin | Op.C_rotate _ | Op.C_rotate_batch _ | Op.C_conj -> limbs + 1
  | Op.C_mul | Op.C_rescale | Op.C_encode | Op.C_encode_pair | Op.C_upscale _
  | Op.C_bootstrap _ | Op.C_mul_i ->
    limbs
  | _ -> 1 (* light ops run inline under the RNS grain floors *)

let analyze f =
  let num = Irfunc.num_nodes f in
  let depth = Array.make num 0 in
  let weight = Array.make num 0.0 in
  let width = Array.make num 1 in
  (* [floor_depth]: barrier discipline. A bootstrap executes strictly after
     every node appended before it and strictly before every node appended
     after, whatever the dataflow says, so concurrent recryptions cannot
     reorder the oracle's invocation ordinals. *)
  let floor_depth = ref 0 in
  let running_max = ref (-1) in
  let barrier_depths = ref [] in
  Irfunc.iter f (fun n ->
      let id = n.Irfunc.id in
      weight.(id) <- node_cost n;
      width.(id) <- node_width n;
      let d =
        match n.Irfunc.op with
        | Op.C_bootstrap _ ->
          let d = !running_max + 1 in
          barrier_depths := d :: !barrier_depths;
          floor_depth := d + 1;
          d
        | _ ->
          let dep =
            Array.fold_left (fun acc a -> max acc (depth.(a) + 1)) 0 n.Irfunc.args
          in
          max dep !floor_depth
      in
      depth.(id) <- d;
      if d > !running_max then running_max := d);
  let num_waves = !running_max + 1 in
  let barrier = Array.make (max num_waves 1) false in
  List.iter (fun d -> barrier.(d) <- true) !barrier_depths;
  (* Bucket nodes by depth, preserving id order (stable since ids ascend). *)
  let sizes = Array.make (max num_waves 1) 0 in
  Array.iter (fun d -> sizes.(d) <- sizes.(d) + 1) depth;
  let waves = Array.init (max num_waves 1) (fun w -> Array.make sizes.(w) 0) in
  let fill = Array.make (max num_waves 1) 0 in
  for id = 0 to num - 1 do
    let w = depth.(id) in
    waves.(w).(fill.(w)) <- id;
    fill.(w) <- fill.(w) + 1
  done;
  (* Release sets: a value dies after the wavefront of its last consumer;
     returns are immortal. Mirrors the VM's per-node last_use at wavefront
     granularity, so peak memory tracks the sequential executor's within
     one wavefront's worth of values. *)
  (* Max, not last-assignment: id order and wavefront order disagree in
     general (a later-id consumer can sit in an earlier wavefront), and a
     value must outlive its DEEPEST consumer. *)
  let last_wave = Array.make num (-1) in
  Irfunc.iter f (fun n ->
      Array.iter
        (fun a -> last_wave.(a) <- max last_wave.(a) depth.(n.Irfunc.id))
        n.Irfunc.args);
  (* max_int = immortal while lifetimes are still being merged; it absorbs
     the batch-alias extension below and maps back to the free-set
     builder's -1 afterwards. *)
  List.iter (fun r -> last_wave.(r) <- max_int) (Irfunc.returns f);
  (* A C_batch_get is a non-owning view: releasing the batch frees the
     record the view aliases, so the batch must outlive every view's
     deepest consumer. A returned view pins the batch (max_int); an
     unused, non-returned view (-1) extends nothing. *)
  Irfunc.iter f (fun n ->
      match n.Irfunc.op with
      | Op.C_batch_get _ ->
        let b = n.Irfunc.args.(0) in
        last_wave.(b) <- max last_wave.(b) last_wave.(n.Irfunc.id)
      | _ -> ());
  Array.iteri (fun i w -> if w = max_int then last_wave.(i) <- -1) last_wave;
  let free_sizes = Array.make (max num_waves 1) 0 in
  Array.iter (fun w -> if w >= 0 then free_sizes.(w) <- free_sizes.(w) + 1) last_wave;
  let free = Array.init (max num_waves 1) (fun w -> Array.make free_sizes.(w) 0) in
  let ffill = Array.make (max num_waves 1) 0 in
  for id = 0 to num - 1 do
    let w = last_wave.(id) in
    if w >= 0 then begin
      free.(w).(ffill.(w)) <- id;
      ffill.(w) <- ffill.(w) + 1
    end
  done;
  let total = Array.map (Array.fold_left (fun acc id -> acc +. weight.(id)) 0.0) waves in
  let heaviest = Array.map (Array.fold_left (fun acc id -> max acc weight.(id)) 0.0) waves in
  {
    sc_waves = waves;
    sc_free = free;
    sc_barrier = barrier;
    sc_weight = weight;
    sc_width = width;
    sc_total = total;
    sc_heaviest = heaviest;
  }

(* The degenerate schedule of the sequential executor: every node is its
   own wavefront, in program order, and a value is released right after
   its last consumer runs. [check] accepts it for exactly the programs
   whose wavefront schedule it accepts, so the verifier can hold both
   executors to the same dataflow and liveness rules. *)
let sequential f =
  let num = Irfunc.num_nodes f in
  let waves = Array.init (max num 1) (fun i -> if num = 0 then [||] else [| i |]) in
  let weight = Array.make (max num 1) 0.0 in
  let width = Array.make (max num 1) 1 in
  let barrier = Array.make (max num 1) false in
  Irfunc.iter f (fun n ->
      weight.(n.Irfunc.id) <- node_cost n;
      width.(n.Irfunc.id) <- node_width n;
      match n.Irfunc.op with
      | Op.C_bootstrap _ -> barrier.(n.Irfunc.id) <- true
      | _ -> ());
  let last_use = Array.make (max num 1) (-1) in
  Irfunc.iter f (fun n ->
      Array.iter (fun a -> last_use.(a) <- max last_use.(a) n.Irfunc.id) n.Irfunc.args);
  List.iter (fun r -> last_use.(r) <- max_int) (Irfunc.returns f);
  (* Batch-alias extension, mirroring [analyze]: a batch outlives every
     consumer of every view extracted from it. *)
  Irfunc.iter f (fun n ->
      match n.Irfunc.op with
      | Op.C_batch_get _ ->
        let b = n.Irfunc.args.(0) in
        last_use.(b) <- max last_use.(b) last_use.(n.Irfunc.id)
      | _ -> ());
  Array.iteri (fun i w -> if w = max_int then last_use.(i) <- -1) last_use;
  let free_sizes = Array.make (max num 1) 0 in
  Array.iter (fun w -> if w >= 0 then free_sizes.(w) <- free_sizes.(w) + 1) last_use;
  let free = Array.init (max num 1) (fun w -> Array.make free_sizes.(w) 0) in
  let ffill = Array.make (max num 1) 0 in
  for id = 0 to num - 1 do
    let w = last_use.(id) in
    if w >= 0 then begin
      free.(w).(ffill.(w)) <- id;
      ffill.(w) <- ffill.(w) + 1
    end
  done;
  {
    sc_waves = waves;
    sc_free = free;
    sc_barrier = barrier;
    sc_weight = weight;
    sc_width = width;
    sc_total = Array.map (fun w -> Array.fold_left (fun acc id -> acc +. weight.(id)) 0.0 w) waves;
    sc_heaviest = Array.map (fun w -> Array.fold_left (fun acc id -> max acc weight.(id)) 0.0 w) waves;
  }

let decide t w ~domains =
  let nodes = t.sc_waves.(w) in
  if domains <= 1 || t.sc_barrier.(w) || Array.length nodes < 2 then Sequential
  else begin
    let p = float_of_int domains in
    (* LPT makespan bound for unit-claim node scheduling. *)
    let node_par = max (t.sc_total.(w) /. p) t.sc_heaviest.(w) in
    (* Limb-level estimate: each op in sequence, split across min(width, p)
       domains. Light ops (width 1) contribute their full weight. *)
    let limb =
      Array.fold_left
        (fun acc id ->
          acc +. (t.sc_weight.(id) /. float_of_int (min t.sc_width.(id) domains)))
        0.0 nodes
    in
    (* 0.9: the limb path is the established baseline with fewer queue
       round-trips; only switch when node parallelism wins clearly. *)
    if node_par < 0.9 *. limb then Node_parallel else Sequential
  end

let check f t =
  let num = Irfunc.num_nodes f in
  let wave_of = Array.make num (-1) in
  Array.iteri
    (fun w nodes ->
      Array.iter
        (fun id ->
          if id < 0 || id >= num then failwith (Printf.sprintf "sched: bad node id %d" id);
          if wave_of.(id) <> -1 then
            failwith (Printf.sprintf "sched: node %d in two wavefronts" id);
          wave_of.(id) <- w)
        nodes)
    t.sc_waves;
  Array.iteri
    (fun id w -> if w = -1 then failwith (Printf.sprintf "sched: node %d unscheduled" id))
    wave_of;
  Irfunc.iter f (fun n ->
      Array.iter
        (fun a ->
          if wave_of.(a) >= wave_of.(n.Irfunc.id) then
            failwith
              (Printf.sprintf "sched: RAW violation: node %d (wave %d) reads %d (wave %d)"
                 n.Irfunc.id wave_of.(n.Irfunc.id) a wave_of.(a)))
        n.Irfunc.args);
  Array.iteri
    (fun w b ->
      if b && Array.length t.sc_waves.(w) <> 1 then
        failwith (Printf.sprintf "sched: barrier wavefront %d is not a singleton" w))
    t.sc_barrier;
  let returns = Irfunc.returns f in
  let release_wave = Array.make num max_int in
  Array.iteri
    (fun w nodes ->
      Array.iter
        (fun id ->
          if List.mem id returns then
            failwith (Printf.sprintf "sched: return %d would be released" id);
          if release_wave.(id) <> max_int then
            failwith (Printf.sprintf "sched: node %d released twice" id);
          release_wave.(id) <- w)
        nodes)
    t.sc_free;
  Irfunc.iter f (fun n ->
      Array.iter
        (fun a ->
          if release_wave.(a) < wave_of.(n.Irfunc.id) then
            failwith
              (Printf.sprintf
                 "sched: use-after-free: node %d (wave %d) reads %d released after wave %d"
                 n.Irfunc.id wave_of.(n.Irfunc.id) a release_wave.(a)))
        n.Irfunc.args);
  (* A node reading a C_batch_get view transitively reads the batch the
     view indexes into: the batch must survive that reader's wavefront,
     and a returned view pins the batch forever. *)
  Irfunc.iter f (fun n ->
      Array.iter
        (fun a ->
          match (Irfunc.node f a).Irfunc.op with
          | Op.C_batch_get _ ->
            let b = (Irfunc.node f a).Irfunc.args.(0) in
            if release_wave.(b) < wave_of.(n.Irfunc.id) then
              failwith
                (Printf.sprintf
                   "sched: use-after-free through view: node %d (wave %d) reads view %d \
                    of batch %d released after wave %d"
                   n.Irfunc.id wave_of.(n.Irfunc.id) a b release_wave.(b))
          | _ -> ())
        n.Irfunc.args);
  List.iter
    (fun r ->
      match (Irfunc.node f r).Irfunc.op with
      | Op.C_batch_get _ ->
        let b = (Irfunc.node f r).Irfunc.args.(0) in
        if release_wave.(b) <> max_int then
          failwith
            (Printf.sprintf "sched: batch %d released while its view %d is returned" b r)
      | _ -> ())
    returns
