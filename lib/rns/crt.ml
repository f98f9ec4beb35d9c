module Bignum = Ace_util.Bignum

type t = {
  ring_degree : int;
  moduli : int array;
  plans : Ntt.plan array;
  products : Bignum.t array; (* products.(l) = q_0 * ... * q_{l-1}; products.(0) = 1 *)
  (* Mixed-radix constants of [lift_centered], per chain position i:
     radix.(i) = q_0 * ... * q_{i-1} as a native int, or 0 once that
     product passes [lift_bound]; radix_inv.(i) = radix.(i)^-1 mod q_i;
     digit_max.(i) bounds |digit * radix.(i)| by [lift_bound]. *)
  radix : int array;
  radix_inv : int array;
  digit_max : int array;
  (* The memo tables below are filled on demand from whichever domain first
     needs an entry, so every lookup-or-compute runs under [lock]. Entries
     are deterministic functions of the moduli; a duplicated computation
     would be harmless, a torn Hashtbl would not. *)
  lock : Mutex.t;
  inv_cache : (int * int, int) Hashtbl.t;
  qhat_inv_cache : (int, int array) Hashtbl.t;
  qhat_mod_cache : (int * int, int array) Hashtbl.t;
  qhat_big_cache : (int, Bignum.t array) Hashtbl.t;
}

let locked t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
    Mutex.unlock t.lock;
    v
  | exception e ->
    Mutex.unlock t.lock;
    raise e

let lift_bound = 1 lsl 61
let too_big = min_int

let make ~ring_degree ~moduli =
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun q ->
      if Hashtbl.mem seen q then invalid_arg "Crt.make: duplicate modulus";
      Hashtbl.add seen q ())
    moduli;
  let plans = Array.map (fun q -> Ntt.make ~modulus:q ~ring_degree) moduli in
  let k = Array.length moduli in
  let products = Array.make (k + 1) Bignum.one in
  for i = 1 to k do
    products.(i) <- Bignum.mul_int products.(i - 1) moduli.(i - 1)
  done;
  let radix = Array.make k 0 in
  if k > 0 then radix.(0) <- 1;
  for i = 1 to k - 1 do
    let r = radix.(i - 1) in
    if r > 0 && r <= lift_bound / moduli.(i - 1) then radix.(i) <- r * moduli.(i - 1)
  done;
  let radix_inv =
    Array.init k (fun i ->
        Modarith.inv (Bignum.mod_int products.(i) moduli.(i)) ~modulus:moduli.(i))
  in
  let digit_max = Array.map (fun r -> if r = 0 then 0 else lift_bound / r) radix in
  {
    ring_degree;
    moduli;
    plans;
    products;
    radix;
    radix_inv;
    digit_max;
    lock = Mutex.create ();
    inv_cache = Hashtbl.create 32;
    qhat_inv_cache = Hashtbl.create 8;
    qhat_mod_cache = Hashtbl.create 8;
    qhat_big_cache = Hashtbl.create 8;
  }

let ring_degree t = t.ring_degree
let num_moduli t = Array.length t.moduli
let modulus t i = t.moduli.(i)
let moduli t = t.moduli
let plan t i = t.plans.(i)
let product t ~limbs = t.products.(limbs)
let log2_product t ~limbs = log (Bignum.to_float t.products.(limbs)) /. log 2.0

let inv_mod t ~num ~target =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.inv_cache (num, target) with
  | Some v -> v
  | None ->
    let v = Modarith.inv t.moduli.(num) ~modulus:t.moduli.(target) in
    Hashtbl.add t.inv_cache (num, target) v;
    v

let qhat_big_unlocked t ~limbs =
  match Hashtbl.find_opt t.qhat_big_cache limbs with
  | Some v -> v
  | None ->
    let v =
      Array.init limbs (fun i ->
          let acc = ref Bignum.one in
          for j = 0 to limbs - 1 do
            if j <> i then acc := Bignum.mul_int !acc t.moduli.(j)
          done;
          !acc)
    in
    Hashtbl.add t.qhat_big_cache limbs v;
    v

let qhat_big t ~limbs = locked t @@ fun () -> qhat_big_unlocked t ~limbs

let qhat_invs t ~limbs =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.qhat_inv_cache limbs with
  | Some v -> v
  | None ->
    let big = qhat_big_unlocked t ~limbs in
    let v =
      Array.init limbs (fun i ->
          let r = Bignum.mod_int big.(i) t.moduli.(i) in
          Modarith.inv r ~modulus:t.moduli.(i))
    in
    Hashtbl.add t.qhat_inv_cache limbs v;
    v

let qhat_mod t ~limbs ~target =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.qhat_mod_cache (limbs, target) with
  | Some v -> v
  | None ->
    let big = qhat_big_unlocked t ~limbs in
    let m = t.moduli.(target) in
    let v = Array.map (fun q -> Bignum.mod_int q m) big in
    Hashtbl.add t.qhat_mod_cache (limbs, target) v;
    v

let crt_to_bignum t ~limbs residue =
  let big = qhat_big t ~limbs in
  let invs = qhat_invs t ~limbs in
  let acc = ref Bignum.zero in
  for i = 0 to limbs - 1 do
    let c = Modarith.mul (residue i) invs.(i) ~modulus:t.moduli.(i) in
    acc := Bignum.add !acc (Bignum.mul_int big.(i) c)
  done;
  Bignum.rem !acc t.products.(limbs)

(* Mixed-radix (Garner) recombination with signed digits: the value is
   sum_i v_i * radix_i with v_i in (-q_i/2, q_i/2]. For odd moduli those
   sums are exactly the centered range (-Q/2, Q/2), so the digits are
   the centered representative's own. The partial sum [acc] is held
   exactly, so each digit costs one reduction of [acc] and one modular
   product. A nonzero digit at radix_i makes |value| >= radix_i / 2; the
   recombination gives up as soon as a term would pass [lift_bound]. *)
let lift_centered t ~limbs rows i =
  let acc = ref 0 and k = ref 0 in
  while !k < limbs do
    let j = !k in
    let q = t.moduli.(j) in
    let d = rows.(j).(i) - (!acc mod q) in
    let d = if d < 0 then d + q else if d >= q then d - q else d in
    let v = Modarith.centered (d * t.radix_inv.(j) mod q) ~modulus:q in
    if abs v > t.digit_max.(j) then begin
      acc := too_big;
      k := limbs
    end
    else begin
      acc := !acc + (v * t.radix.(j));
      incr k
    end
  done;
  !acc

let centered_float t ~limbs rows i =
  let v = lift_centered t ~limbs rows i in
  if v <> too_big then float_of_int v
  else
    Bignum.centered_to_float
      (crt_to_bignum t ~limbs (fun k -> rows.(k).(i)))
      ~modulus:t.products.(limbs)
