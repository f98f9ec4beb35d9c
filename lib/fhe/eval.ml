module Rns_poly = Ace_rns.Rns_poly
module Crt = Ace_rns.Crt
module Ntt = Ace_rns.Ntt
module Limb_pool = Ace_rns.Limb_pool
module Domain_pool = Ace_util.Domain_pool
module Telemetry = Ace_telemetry.Telemetry
open Ciphertext

exception Scale_mismatch of string
exception Level_mismatch of string

exception Missing_rotation_key of { step : int; available : int list }

let () =
  Printexc.register_printer (function
    | Missing_rotation_key { step; available } ->
      Some
        (Printf.sprintf "Missing_rotation_key(step %d; keys exist for steps [%s])" step
           (String.concat "; " (List.map string_of_int available)))
    | _ -> None)

(* Flight recorder: one record per produced ciphertext with a structural
   noise-budget estimate — log2 of the remaining modulus product minus the
   scale bits, i.e. headroom between message magnitude and modulus.

   Degree-2 (Cipher3) ciphertexts from the lazy-relin path carry an extra
   c2*s^2 term whose noise growth the degree-1 formula misses: decryption
   multiplies c2's noise by s^2, whose canonical-embedding norm is about
   sqrt(N)*... — structurally, 0.5*log2(N)+1 bits of extra magnitude for a
   ternary secret. The same penalty is charged to the relinearization
   that closes the region (the key switch folds the s^2 term, and its
   additive noise, into the degree-1 components; the headroom spent does
   not come back), keeping the estimate monotone non-increasing through a
   lazy region INCLUDING its closing relin. The subsequent rescale
   re-baselines as usual. Disabled: one atomic flag read. *)
let s2_penalty_bits (p0 : Rns_poly.t) =
  (0.5 *. Float.log2 (float_of_int (Rns_poly.ring_degree p0))) +. 1.0

let record_flight ?(relin_of_deg2 = false) op (ct : ct) =
  if Telemetry.flight_on () then begin
    let p0 = ct.polys.(0) in
    let crt = p0.Rns_poly.ctx in
    let modulus_bits =
      Array.fold_left
        (fun acc ci -> acc +. Float.log2 (float_of_int (Crt.modulus crt ci)))
        0.0 p0.Rns_poly.chain_idx
    in
    let scale_bits = Float.log2 ct.ct_scale in
    let penalty =
      if Array.length ct.polys > 2 || relin_of_deg2 then s2_penalty_bits p0 else 0.0
    in
    Telemetry.flight_record ~op
      ~degree:(Array.length ct.polys - 1)
      ~level:(level ct) ~limbs:(Rns_poly.num_limbs p0) ~scale_bits
      ~budget_bits:(modulus_bits -. scale_bits -. penalty) ()
  end;
  ct

(* Pool discipline for this module: an operation may release only
   polynomials it allocated itself (domain-conversion copies, automorphism
   images, key-switch corrections) — never its arguments, which the VM
   owns and releases at their Sched-computed last use. The helpers below
   handle the conversion-identity case: [to_ntt]/[to_coeff] return the
   argument unchanged when it is already in the right domain, so "release
   the converted copy" must compare physically first. *)

let release_conv ~src p = if p != src then Rns_poly.release p

(* A pad-path component that would otherwise be returned as-is (aliasing
   the operand) is cloned instead: the clone costs one slab memcpy but
   keeps both the operand and the result recyclable. *)
let pass_through p =
  let e = Rns_poly.to_ntt p in
  if e == p then Rns_poly.clone p else e

let scale_tolerance = 1e-6

let check_scales what a b =
  if abs_float (a -. b) /. a > scale_tolerance then
    raise
      (Scale_mismatch (Printf.sprintf "%s: scales 2^%.4f vs 2^%.4f" what (Float.log2 a) (Float.log2 b)))

let check_levels what a b =
  if a <> b then raise (Level_mismatch (Printf.sprintf "%s: levels %d vs %d" what a b))

let encrypt_at_level keys ~rng ~level (pt : pt) =
  Cost.timed Cost.Encrypt @@ fun () ->
  let ctx = keys.Keys.context in
  let crt = Context.crt ctx in
  let idx = Context.ciphertext_idx ctx ~level in
  let sigma = (Context.params ctx).Context.error_sigma in
  let pb, pa = keys.Keys.public in
  let pb = Rns_poly.restrict pb ~chain_idx:idx and pa = Rns_poly.restrict pa ~chain_idx:idx in
  (* Samples are freshly owned, so the domain flips run in place. *)
  let u = Rns_poly.ntt_inplace (Rns_poly.sample_ternary crt ~chain_idx:idx rng) in
  let e0 = Rns_poly.ntt_inplace (Rns_poly.sample_gaussian crt ~chain_idx:idx ~sigma rng) in
  let e1 = Rns_poly.ntt_inplace (Rns_poly.sample_gaussian crt ~chain_idx:idx ~sigma rng) in
  (* The NTT acts on each limb alone, so restricting the evaluation-domain
     rows is the restriction of the coefficient form, transformed. *)
  let m = Rns_poly.ntt_inplace (Rns_poly.restrict pt.poly ~chain_idx:idx) in
  (* [mul] returns fresh rows, so the additions can accumulate in place. *)
  let c0 = Rns_poly.mul pb u in
  let c0 = Rns_poly.add_into ~dst:c0 c0 e0 in
  let c0 = Rns_poly.add_into ~dst:c0 c0 m in
  let c1 = Rns_poly.mul pa u in
  let c1 = Rns_poly.add_into ~dst:c1 c1 e1 in
  List.iter Rns_poly.release [ pb; pa; u; e0; e1; m ];
  record_flight "encrypt" { polys = [| c0; c1 |]; ct_scale = pt.pt_scale }

let encrypt keys ~rng pt = encrypt_at_level keys ~rng ~level:(Ciphertext.pt_level pt) pt

let decrypt keys (ct : ct) =
  Cost.timed Cost.Decrypt @@ fun () ->
  if size ct <> 2 then invalid_arg "Eval.decrypt: relinearize first";
  let idx = Array.init (level ct + 1) (fun i -> i) in
  let s = Rns_poly.restrict keys.Keys.secret ~chain_idx:idx in
  let c0 = Rns_poly.to_ntt ct.polys.(0) and c1 = Rns_poly.to_ntt ct.polys.(1) in
  let m = Rns_poly.mul c1 s in
  let m = Rns_poly.add_into ~dst:m c0 m in
  Rns_poly.release s;
  release_conv ~src:ct.polys.(0) c0;
  release_conv ~src:ct.polys.(1) c1;
  { poly = m; pt_scale = ct.ct_scale }

(* Addition is size-polymorphic: a degree-2 (3-component) ciphertext plus
   a degree-1 one pads the shorter operand with implicit zero components,
   which is what lets relinearisation defer through accumulation trees —
   the sum of a relinearised and an unrelinearised value is just a
   degree-2 ciphertext whose s^2 component came from one side. *)
let add (a : ct) (b : ct) =
  Cost.timed Cost.Add @@ fun () ->
  check_levels "add" (level a) (level b);
  check_scales "add" a.ct_scale b.ct_scale;
  let sa = size a and sb = size b in
  let polys =
    Array.init (max sa sb) (fun i ->
        if i >= sa then pass_through b.polys.(i)
        else if i >= sb then pass_through a.polys.(i)
        else begin
          let xa = Rns_poly.to_ntt a.polys.(i) and xb = Rns_poly.to_ntt b.polys.(i) in
          let r = Rns_poly.add xa xb in
          release_conv ~src:a.polys.(i) xa;
          release_conv ~src:b.polys.(i) xb;
          r
        end)
  in
  record_flight "add" { polys; ct_scale = a.ct_scale }

let sub (a : ct) (b : ct) =
  Cost.timed Cost.Add @@ fun () ->
  check_levels "sub" (level a) (level b);
  check_scales "sub" a.ct_scale b.ct_scale;
  let sa = size a and sb = size b in
  let polys =
    Array.init (max sa sb) (fun i ->
        if i >= sa then begin
          let xb = Rns_poly.to_ntt b.polys.(i) in
          let r = Rns_poly.neg xb in
          release_conv ~src:b.polys.(i) xb;
          r
        end
        else if i >= sb then pass_through a.polys.(i)
        else begin
          let xa = Rns_poly.to_ntt a.polys.(i) and xb = Rns_poly.to_ntt b.polys.(i) in
          let r = Rns_poly.sub xa xb in
          release_conv ~src:a.polys.(i) xa;
          release_conv ~src:b.polys.(i) xb;
          r
        end)
  in
  record_flight "sub" { polys; ct_scale = a.ct_scale }

let neg (a : ct) = { a with polys = Array.map Rns_poly.neg a.polys }

let add_plain (a : ct) (p : pt) =
  Cost.timed Cost.Add @@ fun () ->
  check_levels "add_plain" (level a) (Ciphertext.pt_level p);
  check_scales "add_plain" a.ct_scale p.pt_scale;
  (* Components 1.. are untouched by a plaintext add; clone them rather
     than share, so the result and the operand stay independently
     recyclable. *)
  let polys =
    Array.init (size a) (fun i ->
        if i = 0 then begin
          let x0 = Rns_poly.to_ntt a.polys.(0) and pe = Rns_poly.to_ntt p.poly in
          let r = Rns_poly.add x0 pe in
          release_conv ~src:a.polys.(0) x0;
          release_conv ~src:p.poly pe;
          r
        end
        else Rns_poly.clone a.polys.(i))
  in
  record_flight "add_plain" { a with polys }

let sub_plain (a : ct) (p : pt) =
  Cost.timed Cost.Add @@ fun () ->
  check_levels "sub_plain" (level a) (Ciphertext.pt_level p);
  check_scales "sub_plain" a.ct_scale p.pt_scale;
  let polys =
    Array.init (size a) (fun i ->
        if i = 0 then begin
          let x0 = Rns_poly.to_ntt a.polys.(0) and pe = Rns_poly.to_ntt p.poly in
          let r = Rns_poly.sub x0 pe in
          release_conv ~src:a.polys.(0) x0;
          release_conv ~src:p.poly pe;
          r
        end
        else Rns_poly.clone a.polys.(i))
  in
  record_flight "sub_plain" { a with polys }

let mul_raw (a : ct) (b : ct) =
  Cost.timed Cost.Mult @@ fun () ->
  check_levels "mul" (level a) (level b);
  if size a <> 2 || size b <> 2 then invalid_arg "Eval.mul: size-2 operands required";
  let a0 = Rns_poly.to_ntt a.polys.(0) and a1 = Rns_poly.to_ntt a.polys.(1) in
  let b0 = Rns_poly.to_ntt b.polys.(0) and b1 = Rns_poly.to_ntt b.polys.(1) in
  let d0 = Rns_poly.mul a0 b0 in
  let d1 = Rns_poly.mul a0 b1 in
  let cross = Rns_poly.mul a1 b0 in
  let d1 = Rns_poly.add_into ~dst:d1 d1 cross in
  Rns_poly.release cross;
  let d2 = Rns_poly.mul a1 b1 in
  release_conv ~src:a.polys.(0) a0;
  release_conv ~src:a.polys.(1) a1;
  release_conv ~src:b.polys.(0) b0;
  release_conv ~src:b.polys.(1) b1;
  record_flight "mul" { polys = [| d0; d1; d2 |]; ct_scale = a.ct_scale *. b.ct_scale }

(* The extended key-switching basis for a [limbs]-limb ciphertext: the
   prefix primes followed by the special prime. *)
let key_basis ctx ~limbs =
  Array.append (Array.init limbs (fun i -> i)) [| Context.special_chain_idx ctx |]

(* Key digits live over the full basis [0..L, special]: the row for chain
   index t <= l sits at position t, the special row last. *)
let key_row ~special_ci (poly : Rns_poly.t) k_ci =
  let nl = Rns_poly.num_limbs poly in
  if k_ci = special_ci then poly.Rns_poly.data.(nl - 1) else poly.Rns_poly.data.(k_ci)

(* Same layout for the precomputed Shoup companions of a key polynomial. *)
let key_row_shoup ~special_ci (rows : int array array) k_ci =
  let nl = Array.length rows in
  if k_ci = special_ci then rows.(nl - 1) else rows.(k_ci)

(* Mod-down: divide an extended-basis accumulator by the special prime with
   rounding (the centered lift of the special limb supplies the correction
   term). Eval-resident: only the special row is inverse-transformed; its
   lift is re-reduced and forward-transformed into each target prime and
   the subtract/multiply run pointwise in the eval domain — bit-identical
   to the coefficient-domain computation (the NTT is linear over each
   Z_q), at 1 INTT + limbs NTTs instead of a (limbs+1)-wide INTT plus the
   limbs-wide NTT every caller used to pay to get back to Eval. The
   accumulator rows are pool scratch owned by the caller, released once
   the divided-down output is materialised. *)
let mod_down ctx ~limbs acc =
  let crt = Context.crt ctx in
  let special_ci = Context.special_chain_idx ctx in
  let rows = acc.Rns_poly.data in
  (* Every residue of [out] is written below (reduce loop + forward
     transform + subtract loop), so the slab can start uninitialised. *)
  let out = Rns_poly.alloc_uninit crt ~chain_idx:(Array.init limbs (fun i -> i)) Rns_poly.Eval in
  let sp_q = Crt.modulus crt special_ci in
  let sp_row = rows.(limbs) in
  Ntt.inverse (Crt.plan crt special_ci) sp_row;
  Domain_pool.parallel_for limbs (fun t ->
      (* Recorded on the executing worker's shard, so traces show the
         limb-parallel fan-out across domains. *)
      Telemetry.span ~cat:"fhe.worker" "mod_down.limb" @@ fun () ->
      let plan = Crt.plan crt t in
      let p_inv = Crt.inv_mod crt ~num:special_ci ~target:t in
      let dst = out.Rns_poly.data.(t) in
      Ntt.lift_row plan ~src_modulus:sp_q sp_row dst;
      Ntt.forward plan dst;
      Ntt.sub_mul_shoup plan dst rows.(t) p_inv (Ntt.shoup_companion plan p_inv));
  Array.iter Limb_pool.release rows;
  out

let release_rows = Array.iter Limb_pool.release

(* The pieces of a key switch ({!Job}): the walk over the extended basis
   runs in rounds of one position per domain, with a piece boundary
   between rounds, and each mod-down is a piece of its own. A position is
   still owned by one worker for its whole digit walk, so the
   accumulation order, and the result, do not depend on the rounds. *)
let basis_rounds ~cleanup n body =
  Job.guard ~cleanup @@ fun () ->
  let width = Domain_pool.size () in
  let rec go lo =
    if lo < n then begin
      if lo > 0 then Job.pause ();
      let len = min width (n - lo) in
      Domain_pool.parallel_for len (fun i -> body (lo + i));
      go (lo + len)
    end
  in
  go 0

(* Divide both extended-basis accumulators (pool rows owned here) down to
   [limbs] limbs, one piece each. *)
let mod_down_pair ctx ~limbs ~basis acc0 acc1 =
  let crt = Context.crt ctx in
  Job.guard ~cleanup:(fun () -> release_rows acc0; release_rows acc1) Job.pause;
  let e0 = mod_down ctx ~limbs (Rns_poly.of_data crt ~chain_idx:basis Rns_poly.Eval acc0) in
  Job.guard ~cleanup:(fun () -> release_rows acc1; Rns_poly.release e0) Job.pause;
  (e0, mod_down ctx ~limbs (Rns_poly.of_data crt ~chain_idx:basis Rns_poly.Eval acc1))

(* Key-switch a single polynomial [d] (any domain) with [key]; returns the
   (c0, c1) correction pair at [d]'s limb set. This is the shared core of
   relinearisation and rotation. The extended-basis accumulators are
   limb-parallel: position [k] of the basis is owned by one worker, which
   walks the gadget digits in index order, so the accumulation order (and
   hence the result, exactly) matches the sequential implementation. All
   scratch rows come from {!Limb_pool}, keeping the steady-state inner
   loop free of per-digit allocation. *)
let key_switch ctx (key : Keys.switching_key) d =
  Cost.timed Cost.Key_switch @@ fun () ->
  let crt = Context.crt ctx in
  let n = Context.ring_degree ctx in
  let d_src = d in
  let d = Rns_poly.to_coeff d in
  let limbs = Rns_poly.num_limbs d in
  let special_ci = Context.special_chain_idx ctx in
  let basis = key_basis ctx ~limbs in
  let acc0 = Array.init (limbs + 1) (fun _ -> Limb_pool.acquire_zeroed n) in
  let acc1 = Array.init (limbs + 1) (fun _ -> Limb_pool.acquire_zeroed n) in
  basis_rounds (limbs + 1)
    ~cleanup:(fun () ->
      release_conv ~src:d_src d;
      release_rows acc0;
      release_rows acc1)
    (fun k ->
      Telemetry.span ~cat:"fhe.worker" "key_switch.basis" @@ fun () ->
      let t_ci = basis.(k) in
      let plan = Crt.plan crt t_ci in
      Limb_pool.with_row n @@ fun digit_row ->
      for i = 0 to limbs - 1 do
        let row = d.Rns_poly.data.(i) in
        let kb, ka = key.Keys.digits.(i) in
        let kb', ka' = key.Keys.digits_shoup.(i) in
        (* Digit i re-reduced into the target prime (exact: after the
           centered lift each residue is a genuine small integer), then
           NTT'd in place. *)
        if t_ci = i then Array.blit row 0 digit_row 0 n
        else Ntt.lift_row plan ~src_modulus:(Crt.modulus crt i) row digit_row;
        Ntt.forward plan digit_row;
        Ntt.pointwise_mul_acc_shoup plan acc0.(k) digit_row (key_row ~special_ci kb t_ci)
          (key_row_shoup ~special_ci kb' t_ci);
        Ntt.pointwise_mul_acc_shoup plan acc1.(k) digit_row (key_row ~special_ci ka t_ci)
          (key_row_shoup ~special_ci ka' t_ci)
      done);
  release_conv ~src:d_src d;
  mod_down_pair ctx ~limbs ~basis acc0 acc1

(* Hoisted key-switching (Halevi–Shoup). Gadget decomposition acts
   coefficient-wise modulo each q_i and the Galois automorphism permutes
   coefficients with sign flips only, so the two commute {e exactly}: the
   centered lift of [-v mod q] is the negation of the centered lift of [v].
   Hence decompose + extend + NTT the source polynomial ONCE ([hoist]); a
   rotation by g then needs only the eval-domain permutation of the shared
   digits — fused into the multiply-accumulate as a gather — plus one
   mod-down, instead of limbs^2 fresh lift/NTT passes per step. *)

type hoisted = {
  h_limbs : int;
  h_ext : int array array array;
      (* h_ext.(k).(i): digit i of the source, lifted into basis prime
         position k, NTT domain. First index matches the worker layout of
         [key_switch] so the accumulation order is identical. *)
}

let hoist ctx d =
  Cost.timed Cost.Key_switch @@ fun () ->
  let crt = Context.crt ctx in
  let n = Context.ring_degree ctx in
  let d_src = d in
  let d = Rns_poly.to_coeff d in
  let limbs = Rns_poly.num_limbs d in
  let basis = key_basis ctx ~limbs in
  (* (limbs+1) x limbs pool rows; every row is fully overwritten (blit or
     lift loop, then the in-place forward transform). Freed by
     [release_hoisted] once the rotation batch is done with them. *)
  let ext = Array.init (limbs + 1) (fun _ -> Array.init limbs (fun _ -> Limb_pool.acquire n)) in
  basis_rounds (limbs + 1)
    ~cleanup:(fun () ->
      release_conv ~src:d_src d;
      Array.iter release_rows ext)
    (fun k ->
      Telemetry.span ~cat:"fhe.worker" "hoist.basis" @@ fun () ->
      let t_ci = basis.(k) in
      let plan = Crt.plan crt t_ci in
      for i = 0 to limbs - 1 do
        let row = d.Rns_poly.data.(i) in
        let dst = ext.(k).(i) in
        if t_ci = i then Array.blit row 0 dst 0 n
        else Ntt.lift_row plan ~src_modulus:(Crt.modulus crt i) row dst;
        Ntt.forward plan dst
      done);
  release_conv ~src:d_src d;
  { h_limbs = limbs; h_ext = ext }

let release_hoisted h = Array.iter release_rows h.h_ext

(* Apply one switching key to hoisted digits under the eval-domain
   automorphism permutation [perm]. Per basis position the digit walk, the
   gather semantics and the Barrett reductions reproduce bit for bit what
   [key_switch] computes on the automorphed polynomial: the gathered row
   a.(perm.(j)) IS the NTT of the automorphed digit (same canonical
   residues), so every partial sum matches. *)
let key_switch_hoisted ctx (key : Keys.switching_key) h ~perm =
  Cost.timed Cost.Key_switch @@ fun () ->
  let crt = Context.crt ctx in
  let n = Context.ring_degree ctx in
  let limbs = h.h_limbs in
  let special_ci = Context.special_chain_idx ctx in
  let basis = key_basis ctx ~limbs in
  let acc0 = Array.init (limbs + 1) (fun _ -> Limb_pool.acquire_zeroed n) in
  let acc1 = Array.init (limbs + 1) (fun _ -> Limb_pool.acquire_zeroed n) in
  basis_rounds (limbs + 1)
    ~cleanup:(fun () ->
      release_rows acc0;
      release_rows acc1)
    (fun k ->
      Telemetry.span ~cat:"fhe.worker" "key_switch_hoisted.basis" @@ fun () ->
      let t_ci = basis.(k) in
      let plan = Crt.plan crt t_ci in
      let rows = h.h_ext.(k) in
      for i = 0 to limbs - 1 do
        let kb, ka = key.Keys.digits.(i) in
        let kb', ka' = key.Keys.digits_shoup.(i) in
        Ntt.pointwise_mul_acc_gather_shoup plan acc0.(k) rows.(i) perm
          (key_row ~special_ci kb t_ci) (key_row_shoup ~special_ci kb' t_ci);
        Ntt.pointwise_mul_acc_gather_shoup plan acc1.(k) rows.(i) perm
          (key_row ~special_ci ka t_ci) (key_row_shoup ~special_ci ka' t_ci)
      done);
  mod_down_pair ctx ~limbs ~basis acc0 acc1

let relinearize keys (ct : ct) =
  Cost.timed Cost.Relinearize @@ fun () ->
  if size ct <> 3 then invalid_arg "Eval.relinearize: size-3 ciphertext required";
  let e0, e1 = key_switch keys.Keys.context keys.Keys.relin ct.polys.(2) in
  (* The key-switch corrections are freshly allocated, so flip and add in
     place instead of copying. *)
  let e0 = Rns_poly.ntt_inplace e0 and e1 = Rns_poly.ntt_inplace e1 in
  let x0 = Rns_poly.to_ntt ct.polys.(0) and x1 = Rns_poly.to_ntt ct.polys.(1) in
  let c0 = Rns_poly.add_into ~dst:e0 x0 e0 in
  let c1 = Rns_poly.add_into ~dst:e1 x1 e1 in
  release_conv ~src:ct.polys.(0) x0;
  release_conv ~src:ct.polys.(1) x1;
  record_flight ~relin_of_deg2:true "relinearize" { polys = [| c0; c1 |]; ct_scale = ct.ct_scale }

let mul keys a b =
  (* The unrelinearised product is a temporary this op owns outright;
     relinearize reads it without retaining any of its rows. *)
  let t = mul_raw a b in
  let r = relinearize keys t in
  Ciphertext.release t;
  r
let square keys a = mul keys a a

let mul_plain (a : ct) (p : pt) =
  Cost.timed Cost.Mult_plain @@ fun () ->
  check_levels "mul_plain" (level a) (Ciphertext.pt_level p);
  let pe = Rns_poly.to_ntt p.poly in
  let polys =
    Array.map
      (fun c ->
        let ce = Rns_poly.to_ntt c in
        let r = Rns_poly.mul ce pe in
        release_conv ~src:c ce;
        r)
      a.polys
  in
  release_conv ~src:p.poly pe;
  record_flight "mul_plain" { polys; ct_scale = a.ct_scale *. p.pt_scale }

let rotation_key_exn keys ~step g =
  match Hashtbl.find_opt keys.Keys.galois g with
  | Some key -> key
  | None ->
    raise (Missing_rotation_key { step; available = Keys.available_rotations keys })

(* Key-switch the automorphism image [r1] of a rotation or conjugation,
   releasing it; [r0], the image of c0, is held across the key switch's
   pieces and released only if the operation is aborted. *)
let switch_images ctx key r0 r1 =
  let e =
    Job.guard
      ~cleanup:(fun () ->
        Rns_poly.release r0;
        Rns_poly.release r1)
      (fun () -> key_switch ctx key r1)
  in
  Rns_poly.release r1;
  e

(* Rotations apply the automorphism in whatever domain the operand is in:
   an Eval input costs a pure index permutation (no transform at all),
   which is where [rotate] stops paying NTT round trips on c0 — the
   eval-domain and coeff-domain paths commute exactly with the transforms,
   so results are bit-identical either way. *)
let rotate keys (ct : ct) k =
  Cost.timed Cost.Rotate @@ fun () ->
  if size ct <> 2 then invalid_arg "Eval.rotate: relinearize first";
  let ctx = keys.Keys.context in
  let slots = Context.slots ctx in
  if ((k mod slots) + slots) mod slots = 0 then begin
    (* Identity rotation returns the operand itself: the result and the
       argument are one value, so neither may be recycled. *)
    Ciphertext.mark_shared ct;
    ct
  end
  else begin
    let g = Keys.galois_of_rotation ctx k in
    let key = rotation_key_exn keys ~step:k g in
    let c0e = Rns_poly.to_ntt ct.polys.(0) in
    let r0 = Rns_poly.automorphism ~galois:g c0e in
    release_conv ~src:ct.polys.(0) c0e;
    let r1 = Rns_poly.automorphism ~galois:g ct.polys.(1) in
    let e0, e1 = switch_images ctx key r0 r1 in
    let e0 = Rns_poly.ntt_inplace e0 in
    let c0 = Rns_poly.add_into ~dst:e0 r0 e0 in
    Rns_poly.release r0;
    record_flight "rotate" { polys = [| c0; Rns_poly.ntt_inplace e1 |]; ct_scale = ct.ct_scale }
  end

(* Rotate one ciphertext by every step in [steps], decomposing it once:
   the Halevi–Shoup hoisted path. Bit-identical to mapping {!rotate} over
   [steps] (same digits, same accumulation order, exact permutation), at
   roughly 1 + steps/limbs of the cost instead of steps times.

   Each step is its own [Cost.Rotate] sample. Timing the whole batch as
   one observation made a 38-step bundle read as a single 170ms rotation —
   the fhe.rotate p99 "outlier" of the PR 3 benchmark was this accounting
   artifact, not a slow rotation. The shared hoist is attributed to
   [Cost.Key_switch] (inside {!hoist}), where its cost actually sits. *)
let rotate_batch keys (ct : ct) steps =
  if size ct <> 2 then invalid_arg "Eval.rotate_batch: relinearize first";
  let ctx = keys.Keys.context in
  let crt = Context.crt ctx in
  let slots = Context.slots ctx in
  let trivial k = ((k mod slots) + slots) mod slots = 0 in
  if Array.for_all trivial steps then begin
    Ciphertext.mark_shared ct;
    Array.map (fun _ -> ct) steps
  end
  else begin
    let h = hoist ctx ct.polys.(1) in
    let c0e = Rns_poly.to_ntt ct.polys.(0) in
    (* Each step is a piece (on top of the pieces of its key switch). Slots
       not yet rotated hold [ct] itself, so an abort releases exactly the
       finished rotations. *)
    let out = Array.make (Array.length steps) ct in
    Job.guard
      ~cleanup:(fun () ->
        Array.iter (fun o -> if o != ct then Ciphertext.release o) out;
        release_conv ~src:ct.polys.(0) c0e;
        release_hoisted h)
      (fun () ->
        Array.iteri
          (fun i k ->
            Job.pause ();
            out.(i) <-
              (if trivial k then begin
                 Ciphertext.mark_shared ct;
                 ct
               end
               else
                 Cost.timed Cost.Rotate @@ fun () ->
                 let g = Keys.galois_of_rotation ctx k in
                 let key = rotation_key_exn keys ~step:k g in
                 let perm = Rns_poly.automorphism_perm crt ~galois:g in
                 let e0, e1 = key_switch_hoisted ctx key h ~perm in
                 let e0 = Rns_poly.ntt_inplace e0 in
                 let r0 = Rns_poly.automorphism ~galois:g c0e in
                 let c0 = Rns_poly.add_into ~dst:e0 r0 e0 in
                 Rns_poly.release r0;
                 record_flight "rotate"
                   { polys = [| c0; Rns_poly.ntt_inplace e1 |]; ct_scale = ct.ct_scale }))
          steps);
    release_conv ~src:ct.polys.(0) c0e;
    release_hoisted h;
    out
  end

let conjugate keys (ct : ct) =
  Cost.timed Cost.Rotate @@ fun () ->
  if size ct <> 2 then invalid_arg "Eval.conjugate: relinearize first";
  let ctx = keys.Keys.context in
  let g = Keys.galois_conjugate ctx in
  let key = Hashtbl.find keys.Keys.galois g in
  let c0e = Rns_poly.to_ntt ct.polys.(0) in
  let r0 = Rns_poly.automorphism ~galois:g c0e in
  release_conv ~src:ct.polys.(0) c0e;
  let r1 = Rns_poly.automorphism ~galois:g ct.polys.(1) in
  let e0, e1 = switch_images ctx key r0 r1 in
  let e0 = Rns_poly.ntt_inplace e0 in
  let c0 = Rns_poly.add_into ~dst:e0 r0 e0 in
  Rns_poly.release r0;
  record_flight "conjugate" { polys = [| c0; Rns_poly.ntt_inplace e1 |]; ct_scale = ct.ct_scale }

(* NTT image of the monomial X^(N/2) over the full modulus chain, cached
   per CRT context (physical equality — one live context per process in
   practice). X^(N/2) evaluates to the imaginary unit in *every* CKKS slot:
   the slot roots are zeta^(5^j) with 5^j = 1 (mod 4), so
   (zeta^(5^j))^(N/2) = i^(5^j) = i. Multiplying by it is therefore an
   exact slot-wise multiply-by-i — integer coefficients, no scale change,
   no noise growth beyond a coefficient permutation. *)
let monomial_i_cache : (Ace_rns.Crt.t * Rns_poly.t) list ref = ref []
let monomial_i_lock = Mutex.create ()

let ntt_monomial_i crt =
  let find () = List.find_opt (fun (c, _) -> c == crt) !monomial_i_cache in
  match find () with
  | Some (_, m) -> m
  | None ->
    Mutex.lock monomial_i_lock;
    let m =
      match find () with
      | Some (_, m) -> m
      | None ->
        let n = Ace_rns.Crt.ring_degree crt in
        let coeffs = Array.make n 0 in
        coeffs.(n / 2) <- 1;
        let m =
          Rns_poly.ntt_inplace
            (Rns_poly.of_centered_coeffs crt
               ~chain_idx:(Rns_poly.prefix_idx ~limbs:(Ace_rns.Crt.num_moduli crt))
               coeffs)
        in
        (* The cached monomial is immortal; keep it out of the pool. *)
        Rns_poly.mark_shared m;
        monomial_i_cache := (crt, m) :: !monomial_i_cache;
        m
    in
    Mutex.unlock monomial_i_lock;
    m

let mul_i (ct : ct) =
  Cost.timed Cost.Mult_plain @@ fun () ->
  let crt = ct.polys.(0).Rns_poly.ctx in
  let m =
    Rns_poly.restrict (ntt_monomial_i crt) ~chain_idx:ct.polys.(0).Rns_poly.chain_idx
  in
  let polys =
    Array.map
      (fun p ->
        let pe = Rns_poly.to_ntt p in
        let r = Rns_poly.mul pe m in
        release_conv ~src:p pe;
        r)
      ct.polys
  in
  Rns_poly.release m;
  record_flight "mul_i" { ct with polys }

let rescale (ct : ct) =
  Cost.timed Cost.Rescale @@ fun () ->
  let l = level ct in
  if l < 1 then invalid_arg "Eval.rescale: bottom level";
  let p0 = ct.polys.(0) in
  let crt_prime =
    let ctx_limb = Rns_poly.num_limbs p0 - 1 in
    (* The dropped prime is the top chain entry of the ciphertext. *)
    p0.Rns_poly.chain_idx.(ctx_limb)
  in
  let q_top = Ace_rns.Crt.modulus p0.Rns_poly.ctx crt_prime in
  let polys =
    Array.map
      (fun p ->
        match p.Rns_poly.domain with
        | Rns_poly.Eval -> Rns_poly.rescale_in_eval p
        | Rns_poly.Coeff -> Rns_poly.ntt_inplace (Rns_poly.rescale p))
      ct.polys
  in
  record_flight "rescale" { polys; ct_scale = ct.ct_scale /. float_of_int q_top }

let mod_switch (ct : ct) =
  let l = level ct in
  if l < 1 then invalid_arg "Eval.mod_switch: bottom level";
  let polys = Array.map (fun p -> Rns_poly.drop_limbs p ~keep:(Rns_poly.num_limbs p - 1)) ct.polys in
  record_flight "mod_switch" { ct with polys }

let rec mod_switch_to (ct : ct) ~level:l =
  if level ct < l then invalid_arg "Eval.mod_switch_to: cannot raise level"
  else if level ct = l then ct
  else mod_switch_to (mod_switch ct) ~level:l

let upscale ctx (ct : ct) ~target_scale =
  let factor = target_scale /. ct.ct_scale in
  if factor < 1.0 -. 1e-9 then invalid_arg "Eval.upscale: would lower scale";
  let ones = Array.make (Context.slots ctx) 1.0 in
  let pt = Encoder.encode ctx ~level:(level ct) ~scale:factor ones in
  let r = mul_plain ct pt in
  Ciphertext.release_pt pt;
  r

(* One throwaway full-width key switch plus a rescale right after keygen.
   The first real key_switch otherwise pays every lazy one-off at once —
   limb-pool growth to the extended basis working set, Crt memo fills the
   keygen prefill misses, domain-pool wake-up — which BENCH_pr4 surfaced
   as a 0.178 s fhe.key_switch max against a 3.6 ms p50. Warming here
   moves that cost into keygen where it belongs. *)
let warm keys =
  let ctx = keys.Keys.context in
  let crt = Context.crt ctx in
  let idx = Context.ciphertext_idx ctx ~level:(Context.max_level ctx) in
  let rng = Ace_util.Rng.create 0x3a3a in
  let d = Rns_poly.sample_uniform crt ~chain_idx:idx rng in
  let e0, e1 = key_switch ctx keys.Keys.relin d in
  ignore (Sys.opaque_identity e1);
  if Context.max_level ctx >= 1 then
    ignore
      (Sys.opaque_identity
         (rescale { polys = [| e0; Rns_poly.clone e0 |]; ct_scale = Context.scale ctx }))

let noise_budget_estimate keys ct ~expected =
  let ctx = keys.Keys.context in
  let got = Encoder.decode ctx (decrypt keys ct) in
  let err = ref 1e-300 in
  Array.iteri (fun i e -> err := max !err (abs_float (got.(i) -. e))) expected;
  -.Float.log2 !err
