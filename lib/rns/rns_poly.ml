module Rng = Ace_util.Rng
module Bignum = Ace_util.Bignum
module Domain_pool = Ace_util.Domain_pool

type domain = Coeff | Eval

(* [pooled] tracks whether [data] is a recyclable slab from [Limb_pool]:
   set on every freshly-built result, cleared the moment rows become
   visible through a second value ([mark_shared]) or are handed back
   ([release]).  The field is mutable but the type is private, so only
   this module flips it — callers go through release/mark_shared. *)
type t = {
  ctx : Crt.t;
  chain_idx : int array;
  data : int array array;
  domain : domain;
  mutable pooled : bool;
}

let release t =
  if t.pooled then begin
    t.pooled <- false;
    Limb_pool.release_slab t.data
  end

let mark_shared t = t.pooled <- false
let is_pooled t = t.pooled

let create ctx ~chain_idx domain =
  let n = Crt.ring_degree ctx in
  { ctx; chain_idx = Array.copy chain_idx;
    data = Array.init (Array.length chain_idx) (fun _ -> Array.make n 0);
    domain; pooled = false }

let alloc_uninit ctx ~chain_idx domain =
  let n = Crt.ring_degree ctx in
  { ctx; chain_idx = Array.copy chain_idx;
    data = Limb_pool.acquire_slab ~n ~limbs:(Array.length chain_idx);
    domain; pooled = true }

let of_data ctx ~chain_idx domain data =
  if Array.length data <> Array.length chain_idx then invalid_arg "Rns_poly.of_data: arity";
  let n = Crt.ring_degree ctx in
  Array.iter (fun row -> if Array.length row <> n then invalid_arg "Rns_poly.of_data: row length") data;
  { ctx; chain_idx = Array.copy chain_idx; data; domain; pooled = false }

let prefix_idx ~limbs = Array.init limbs (fun i -> i)

let num_limbs t = Array.length t.chain_idx
let ring_degree t = Crt.ring_degree t.ctx
let domain t = t.domain

let clone t =
  let n = ring_degree t in
  let data = Limb_pool.acquire_slab ~n ~limbs:(num_limbs t) in
  Array.iteri (fun k row -> Array.blit t.data.(k) 0 row 0 n) data;
  { t with data; pooled = true }

let equal a b =
  a.domain = b.domain && a.chain_idx = b.chain_idx
  && Array.for_all2 (fun x y -> x = y) a.data b.data

let check_compatible a b =
  if a.domain <> b.domain then invalid_arg "Rns_poly: domain mismatch";
  if a.chain_idx <> b.chain_idx then invalid_arg "Rns_poly: limb-set mismatch"

(* A limb row of pointwise adds/permutes is a few microseconds of work —
   the same order as waking the pool — so loops over few limbs run inline
   (the PR 1 scaling pair measured a 4-domain inference slower than
   sequential on exactly these light kernels). NTT flips and pointwise
   products are one to two orders heavier per row and keep the default
   grain. *)
let light_limb_grain = 4

(* Every constructor below draws its rows from [Limb_pool] and overwrites
   each residue, so recycled slabs (stale contents) can never leak into a
   result — pooling on/off is bit-invisible. *)

let of_centered_coeffs ctx ~chain_idx coeffs =
  let n = Crt.ring_degree ctx in
  if Array.length coeffs <> n then invalid_arg "Rns_poly.of_centered_coeffs: length";
  let limbs = Array.length chain_idx in
  let data = Limb_pool.acquire_slab ~n ~limbs in
  Domain_pool.parallel_for ~min_chunk:light_limb_grain limbs (fun k ->
      let q = Crt.modulus ctx chain_idx.(k) in
      let row = data.(k) in
      for i = 0 to n - 1 do
        Array.unsafe_set row i (Modarith.reduce (Array.unsafe_get coeffs i) ~modulus:q)
      done);
  { ctx; chain_idx = Array.copy chain_idx; data; domain = Coeff; pooled = true }

let of_rounded_floats ctx ~chain_idx floats =
  let coeffs = Array.map (fun f -> int_of_float (Float.round f)) floats in
  of_centered_coeffs ctx ~chain_idx coeffs

(* Limbs are independent residue rows, so every per-limb loop below runs
   through [Domain_pool]: each worker owns a disjoint set of rows and the
   result is bit-identical for any pool size. *)

let to_ntt t =
  match t.domain with
  | Eval -> t
  | Coeff ->
    let n = ring_degree t in
    let data = Limb_pool.acquire_slab ~n ~limbs:(num_limbs t) in
    Domain_pool.parallel_for (num_limbs t) (fun k ->
        let row = data.(k) in
        Array.blit t.data.(k) 0 row 0 n;
        Ntt.forward (Crt.plan t.ctx t.chain_idx.(k)) row);
    { t with data; domain = Eval; pooled = true }

let to_coeff t =
  match t.domain with
  | Coeff -> t
  | Eval ->
    let n = ring_degree t in
    let data = Limb_pool.acquire_slab ~n ~limbs:(num_limbs t) in
    Domain_pool.parallel_for (num_limbs t) (fun k ->
        let row = data.(k) in
        Array.blit t.data.(k) 0 row 0 n;
        Ntt.inverse (Crt.plan t.ctx t.chain_idx.(k)) row);
    { t with data; domain = Coeff; pooled = true }

(* In-place domain flips for polynomials the caller owns outright (freshly
   allocated, rows shared with nothing). They avoid the per-limb row copy
   of [to_ntt]/[to_coeff]. The result inherits the argument's pool
   ownership; the argument (which must not be used again) loses it. *)

let ntt_inplace t =
  match t.domain with
  | Eval -> t
  | Coeff ->
    Domain_pool.parallel_for (num_limbs t) (fun k ->
        Ntt.forward (Crt.plan t.ctx t.chain_idx.(k)) t.data.(k));
    let r = { t with domain = Eval } in
    t.pooled <- false;
    r

let coeff_inplace t =
  match t.domain with
  | Coeff -> t
  | Eval ->
    Domain_pool.parallel_for (num_limbs t) (fun k ->
        Ntt.inverse (Crt.plan t.ctx t.chain_idx.(k)) t.data.(k));
    let r = { t with domain = Coeff } in
    t.pooled <- false;
    r

let in_domain d t = match d with Coeff -> to_coeff t | Eval -> to_ntt t

(* Allocation-free binary variants: write limb rows of [dst] in place.
   [dst] must have the same shape as the operands and may alias either
   one; rows are overwritten index by index, never resized. *)

let add_into ~dst a b =
  check_compatible a b;
  check_compatible dst a;
  Domain_pool.parallel_for ~min_chunk:light_limb_grain (num_limbs a) (fun k ->
      let q = Crt.modulus a.ctx a.chain_idx.(k) in
      let xa = a.data.(k) and xb = b.data.(k) and d = dst.data.(k) in
      for i = 0 to Array.length d - 1 do
        let s = Array.unsafe_get xa i + Array.unsafe_get xb i in
        Array.unsafe_set d i (if s >= q then s - q else s)
      done);
  dst

let sub_into ~dst a b =
  check_compatible a b;
  check_compatible dst a;
  Domain_pool.parallel_for ~min_chunk:light_limb_grain (num_limbs a) (fun k ->
      let q = Crt.modulus a.ctx a.chain_idx.(k) in
      let xa = a.data.(k) and xb = b.data.(k) and d = dst.data.(k) in
      for i = 0 to Array.length d - 1 do
        let s = Array.unsafe_get xa i - Array.unsafe_get xb i in
        Array.unsafe_set d i (if s < 0 then s + q else s)
      done);
  dst

let fresh_like a =
  { a with data = Limb_pool.acquire_slab ~n:(ring_degree a) ~limbs:(num_limbs a); pooled = true }

let add a b =
  check_compatible a b;
  add_into ~dst:(fresh_like a) a b

let sub a b =
  check_compatible a b;
  sub_into ~dst:(fresh_like a) a b

let neg a =
  let n = ring_degree a in
  let data = Limb_pool.acquire_slab ~n ~limbs:(num_limbs a) in
  Domain_pool.parallel_for ~min_chunk:light_limb_grain (num_limbs a) (fun k ->
      let q = Crt.modulus a.ctx a.chain_idx.(k) in
      let x = a.data.(k) and d = data.(k) in
      for i = 0 to n - 1 do
        Array.unsafe_set d i (Modarith.neg (Array.unsafe_get x i) ~modulus:q)
      done);
  { a with data; pooled = true }

let mul_into ~dst a b =
  if a.domain <> Eval || b.domain <> Eval then
    invalid_arg "Rns_poly.mul_into: operands must be in the evaluation domain";
  check_compatible a b;
  check_compatible dst a;
  Domain_pool.parallel_for (num_limbs a) (fun k ->
      let plan = Crt.plan a.ctx a.chain_idx.(k) in
      Ntt.pointwise_mul plan dst.data.(k) a.data.(k) b.data.(k));
  dst

let mul a b =
  if a.domain <> Eval || b.domain <> Eval then
    invalid_arg "Rns_poly.mul: operands must be in the evaluation domain";
  check_compatible a b;
  let n = ring_degree a in
  let data = Limb_pool.acquire_slab ~n ~limbs:(num_limbs a) in
  Domain_pool.parallel_for (num_limbs a) (fun k ->
      let plan = Crt.plan a.ctx a.chain_idx.(k) in
      Ntt.pointwise_mul plan data.(k) a.data.(k) b.data.(k));
  { a with data; pooled = true }

let scalar_mul s a =
  let n = ring_degree a in
  let data = Limb_pool.acquire_slab ~n ~limbs:(num_limbs a) in
  Domain_pool.parallel_for ~min_chunk:light_limb_grain (num_limbs a) (fun k ->
      let q = Crt.modulus a.ctx a.chain_idx.(k) in
      let s = Modarith.reduce s ~modulus:q in
      let x = a.data.(k) and d = data.(k) in
      for i = 0 to n - 1 do
        Array.unsafe_set d i (Modarith.mul (Array.unsafe_get x i) s ~modulus:q)
      done);
  { a with data; pooled = true }

let scalar_mul_per_limb scalars a =
  if Array.length scalars <> num_limbs a then
    invalid_arg "Rns_poly.scalar_mul_per_limb: arity";
  let n = ring_degree a in
  let data = Limb_pool.acquire_slab ~n ~limbs:(num_limbs a) in
  Domain_pool.parallel_for ~min_chunk:light_limb_grain (num_limbs a) (fun k ->
      let q = Crt.modulus a.ctx a.chain_idx.(k) in
      let s = Modarith.reduce scalars.(k) ~modulus:q in
      let x = a.data.(k) and d = data.(k) in
      for i = 0 to n - 1 do
        Array.unsafe_set d i (Modarith.mul (Array.unsafe_get x i) s ~modulus:q)
      done);
  { a with data; pooled = true }

(* X^i -> X^(i*g mod 2N); exponents >= N wrap with a sign flip because
   X^N = -1. The (destination, sign) table is cached per (N, g); the table
   is shared across domains, so lookup-or-build runs under a lock and the
   published tables are immutable thereafter. *)
let automorphism_tables : (int * int, int array * bool array) Hashtbl.t = Hashtbl.create 32
let automorphism_lock = Mutex.create ()

let automorphism_table ~n ~galois =
  Mutex.lock automorphism_lock;
  let tbl =
    match Hashtbl.find_opt automorphism_tables (n, galois) with
    | Some t -> t
    | None ->
      let two_n = 2 * n in
      let dest = Array.make n 0 and flip = Array.make n false in
      for i = 0 to n - 1 do
        let e = i * galois mod two_n in
        if e < n then dest.(i) <- e
        else begin
          dest.(i) <- e - n;
          flip.(i) <- true
        end
      done;
      Hashtbl.add automorphism_tables (n, galois) (dest, flip);
      (dest, flip)
  in
  Mutex.unlock automorphism_lock;
  tbl

(* In the evaluation domain the automorphism is a pure index permutation:
   the NTT evaluates at the primitive 2N-th roots psi^e_j (one odd exponent
   e_j per output slot), and X -> X^g maps the value at psi^e_j to the
   input's value at psi^(e_j * g). The permutation depends only on the
   NTT's output ordering — structural in (n, stage layout), identical for
   every limb modulus — so it is discovered once per (n, g) by probing
   NTT(X) on the chain-0 plan: the probe output IS the point sequence
   (psi^e_0, psi^e_1, ...), and matching y_j^g against it by value recovers
   perm without hard-coding the ordering convention. *)
let eval_perm_tables : (int * int, int array) Hashtbl.t = Hashtbl.create 32

let automorphism_perm ctx ~galois =
  if galois land 1 = 0 then invalid_arg "Rns_poly.automorphism_perm: even Galois element";
  let n = Crt.ring_degree ctx in
  let two_n = 2 * n in
  let g = ((galois mod two_n) + two_n) mod two_n in
  Mutex.lock automorphism_lock;
  let perm =
    match Hashtbl.find_opt eval_perm_tables (n, g) with
    | Some p -> p
    | None ->
      let p =
        if n = 1 then [| 0 |]
        else begin
          let plan = Crt.plan ctx 0 in
          let q = Ntt.modulus plan in
          let probe = Array.make n 0 in
          probe.(1) <- 1;
          Ntt.forward plan probe;
          let index_of = Hashtbl.create (2 * n) in
          Array.iteri (fun j y -> Hashtbl.replace index_of y j) probe;
          Array.init n (fun j ->
              match Hashtbl.find_opt index_of (Modarith.pow probe.(j) g ~modulus:q) with
              | Some j' -> j'
              | None -> invalid_arg "Rns_poly.automorphism_perm: probe mismatch")
        end
      in
      Hashtbl.add eval_perm_tables (n, g) p;
      p
  in
  Mutex.unlock automorphism_lock;
  perm

(* Keygen-time cache warming: the automorphism tables are built lazily on
   first rotation, which used to land a one-off tens-of-milliseconds probe
   (eval-domain perm discovery is an NTT plus n modular pows) inside the
   first inference's first rotate — the fhe.rotate p99 outlier. Building
   them when the Galois key is generated moves that cost to keygen, where
   it belongs. *)
let warm_automorphism ctx ~galois =
  let n = Crt.ring_degree ctx in
  ignore (automorphism_table ~n ~galois);
  ignore (automorphism_perm ctx ~galois)

let automorphism ~galois t =
  let n = ring_degree t in
  if galois land 1 = 0 then invalid_arg "Rns_poly.automorphism: even Galois element";
  match t.domain with
  | Coeff ->
    let dest, flip = automorphism_table ~n ~galois in
    (* The scatter is a bijection on indices, so stale slab contents are
       fully overwritten. *)
    let data = Limb_pool.acquire_slab ~n ~limbs:(num_limbs t) in
    Domain_pool.parallel_for ~min_chunk:light_limb_grain (num_limbs t) (fun k ->
        let x = t.data.(k) in
        let q = Crt.modulus t.ctx t.chain_idx.(k) in
        let out = data.(k) in
        for i = 0 to n - 1 do
          let v = Array.unsafe_get x i in
          let e = Array.unsafe_get dest i in
          Array.unsafe_set out e (if Array.unsafe_get flip i then (if v = 0 then 0 else q - v) else v)
        done);
    { t with data; pooled = true }
  | Eval ->
    (* Resolve the table before the parallel region: it takes the same lock
       the Coeff path uses, and pool bodies must never block on it. *)
    let perm = automorphism_perm t.ctx ~galois in
    let data = Limb_pool.acquire_slab ~n ~limbs:(num_limbs t) in
    Domain_pool.parallel_for ~min_chunk:light_limb_grain (num_limbs t) (fun k ->
        let x = t.data.(k) in
        let out = data.(k) in
        for j = 0 to n - 1 do
          Array.unsafe_set out j (Array.unsafe_get x (Array.unsafe_get perm j))
        done);
    { t with data; pooled = true }

let sample_uniform ctx ~chain_idx rng =
  let n = Crt.ring_degree ctx in
  let data =
    Array.map
      (fun ci ->
        let q = Crt.modulus ctx ci in
        Array.init n (fun _ -> Rng.int rng q))
      chain_idx
  in
  { ctx; chain_idx = Array.copy chain_idx; data; domain = Eval; pooled = false }

let of_small_sampler ctx ~chain_idx rng sample =
  let n = Crt.ring_degree ctx in
  let coeffs = Array.init n (fun _ -> sample rng) in
  of_centered_coeffs ctx ~chain_idx coeffs

let sample_ternary ctx ~chain_idx rng = of_small_sampler ctx ~chain_idx rng Rng.ternary

let sample_sparse_ternary ctx ~chain_idx ~hamming rng =
  let n = Crt.ring_degree ctx in
  if hamming < 0 || hamming > n then invalid_arg "Rns_poly.sample_sparse_ternary";
  let coeffs = Array.make n 0 in
  let placed = ref 0 in
  while !placed < hamming do
    let i = Rng.int rng n in
    if coeffs.(i) = 0 then begin
      coeffs.(i) <- (if Rng.int rng 2 = 0 then 1 else -1);
      incr placed
    end
  done;
  of_centered_coeffs ctx ~chain_idx coeffs

let sample_gaussian ctx ~chain_idx ~sigma rng =
  of_small_sampler ctx ~chain_idx rng (fun r -> int_of_float (Float.round (Rng.gaussian r sigma)))

let restrict t ~chain_idx =
  let pos ci =
    let rec find k =
      if k >= Array.length t.chain_idx then invalid_arg "Rns_poly.restrict: missing limb"
      else if t.chain_idx.(k) = ci then k
      else find (k + 1)
    in
    find 0
  in
  let n = ring_degree t in
  let data = Limb_pool.acquire_slab ~n ~limbs:(Array.length chain_idx) in
  Array.iteri (fun k ci -> Array.blit t.data.(pos ci) 0 data.(k) 0 n) chain_idx;
  { t with chain_idx = Array.copy chain_idx; data; pooled = true }

(* Copies the kept rows rather than [Array.sub]-sharing them: sharing
   would force both this value and its source out of the pool, and
   modulus switching sits on the steady-state inference path. *)
let drop_limbs t ~keep =
  if keep <= 0 || keep > num_limbs t then invalid_arg "Rns_poly.drop_limbs";
  let n = ring_degree t in
  let data = Limb_pool.acquire_slab ~n ~limbs:keep in
  for k = 0 to keep - 1 do
    Array.blit t.data.(k) 0 data.(k) 0 n
  done;
  { t with chain_idx = Array.sub t.chain_idx 0 keep; data; pooled = true }

let rescale t =
  if t.domain <> Coeff then invalid_arg "Rns_poly.rescale: need Coeff domain";
  let l = num_limbs t in
  if l < 2 then invalid_arg "Rns_poly.rescale: single limb";
  let top_ci = t.chain_idx.(l - 1) in
  let q_top = Crt.modulus t.ctx top_ci in
  let top = t.data.(l - 1) in
  let n = ring_degree t in
  (* Pre-resolve the per-limb inverses before the parallel region so the
     Crt cache lock is never contended inside the hot loop. *)
  let invs =
    Array.init (l - 1) (fun k -> Crt.inv_mod t.ctx ~num:top_ci ~target:t.chain_idx.(k))
  in
  let data = Limb_pool.acquire_slab ~n ~limbs:(l - 1) in
  Domain_pool.parallel_for (l - 1) (fun k ->
      let ci = t.chain_idx.(k) in
      let q = Crt.modulus t.ctx ci in
      let inv = invs.(k) in
      let x = t.data.(k) in
      let out = data.(k) in
      for i = 0 to n - 1 do
        (* Centered lift of the top residue gives round-to-nearest
           rather than floor division. *)
        let c = Modarith.centered top.(i) ~modulus:q_top in
        let d = Modarith.sub x.(i) (Modarith.reduce c ~modulus:q) ~modulus:q in
        Array.unsafe_set out i (Modarith.mul d inv ~modulus:q)
      done);
  { t with chain_idx = Array.sub t.chain_idx 0 (l - 1); data; pooled = true }

(* Eval-domain rescale: only the dropped top limb needs coefficient form
   (its centered lift is what every other limb subtracts), so transform
   that one row, re-reduce the lift into each remaining prime, NTT it
   there, and do the subtract + q_top^{-1} scalar multiply pointwise in
   the eval domain. The NTT is a linear map over Z_q and scalar
   multiplication commutes with it, so the residues are bit-identical to
   [rescale] on the coefficient form — at 1 INTT + (l-1) NTTs instead of
   the l INTTs + (l-1) NTTs of a to_coeff/rescale/ntt round trip. *)
let rescale_in_eval t =
  if t.domain <> Eval then invalid_arg "Rns_poly.rescale_in_eval: need Eval domain";
  let l = num_limbs t in
  if l < 2 then invalid_arg "Rns_poly.rescale_in_eval: single limb";
  let top_ci = t.chain_idx.(l - 1) in
  let q_top = Crt.modulus t.ctx top_ci in
  let n = ring_degree t in
  Limb_pool.with_row n (fun top ->
      Array.blit t.data.(l - 1) 0 top 0 n;
      Ntt.inverse (Crt.plan t.ctx top_ci) top;
      let invs =
        Array.init (l - 1) (fun k -> Crt.inv_mod t.ctx ~num:top_ci ~target:t.chain_idx.(k))
      in
      let data = Limb_pool.acquire_slab ~n ~limbs:(l - 1) in
      Domain_pool.parallel_for (l - 1) (fun k ->
          let ci = t.chain_idx.(k) in
          let plan = Crt.plan t.ctx ci in
          let inv = invs.(k) in
          let row = data.(k) in
          Ntt.lift_row plan ~src_modulus:q_top top row;
          Ntt.forward plan row;
          Ntt.sub_mul_shoup plan row t.data.(k) inv (Ntt.shoup_companion plan inv));
      { t with chain_idx = Array.sub t.chain_idx 0 (l - 1); data; pooled = true })

let extend_limb t ~target_chain_idx =
  if t.domain <> Coeff then invalid_arg "Rns_poly.extend_limb: need Coeff domain";
  if num_limbs t <> 1 then invalid_arg "Rns_poly.extend_limb: not a digit";
  let src_q = Crt.modulus t.ctx t.chain_idx.(0) in
  let dst_q = Crt.modulus t.ctx target_chain_idx in
  Array.map
    (fun v -> Modarith.reduce (Modarith.centered v ~modulus:src_q) ~modulus:dst_q)
    t.data.(0)

let lift_limb_to t ~src ~target_modulus =
  let src_q = Crt.modulus t.ctx t.chain_idx.(src) in
  Array.map
    (fun v -> Modarith.reduce (Modarith.centered v ~modulus:src_q) ~modulus:target_modulus)
    t.data.(src)

let coeff_bignum t i =
  if t.domain <> Coeff then invalid_arg "Rns_poly.coeff_bignum: need Coeff domain";
  let l = num_limbs t in
  Array.iteri
    (fun k ci -> if ci <> k then invalid_arg "Rns_poly.coeff_bignum: non-prefix limb set")
    (Array.sub t.chain_idx 0 l);
  Crt.crt_to_bignum t.ctx ~limbs:l (fun k -> t.data.(k).(i))

let pp fmt t =
  Format.fprintf fmt "@[<v>poly n=%d limbs=%d domain=%s@]" (ring_degree t) (num_limbs t)
    (match t.domain with Coeff -> "coeff" | Eval -> "eval")
