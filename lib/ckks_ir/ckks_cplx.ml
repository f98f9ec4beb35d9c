open Ace_ir

(* Complex packing (nGraph-HE2 style): CKKS slots are complex, but the
   compiler only ever uses their real part. This pass rewrites a CKKS
   function so that TWO independent real request streams share each slot —
   stream A in the real part, stream B in the imaginary part — doubling
   requests-per-ciphertext on top of the slot-region batch axis.

   Legality: an op may run on a packed value only when it acts identically
   and independently on both components. That holds for C_add / C_sub /
   C_neg, plaintext C_mul (real masks scale re and im alike) and the pure
   scale/level ops (rescale, mod_switch, up/downscale). It fails for
   ct*ct C_mul (the product (a+ib)^2 mixes the streams), hence also for
   C_relin and every non-linear approximation, and for bootstrap (the
   refresh path decodes real slots). Rotations are slot permutations and
   would preserve the pairing, but we follow the conservative nGraph-HE2
   rule and treat them as region breakers: hoisted rotation bundles and
   the keygen plan are derived downstream of this pass, and keeping packed
   regions rotation-free means a packed value never meets a Galois op
   other than the conjugation the pass itself inserts.

   Values outside packed regions run SPLIT: the op is duplicated, once per
   stream, which costs exactly what running the two requests separately
   would. Boundaries convert between the forms:

     pack(a, b)   = a + i*b                      (C_mul_i + C_add)
     unpack re(z) = z + conj(z)   = 2m * a       (C_conj + C_add)
     unpack im(z) = i*(conj(z)-z) = 2m * b       (C_sub + C_mul_i)

   where m is the multiplier the packed value carries: slot = m*(a + ib).
   The client encodes the input as (a+ib)/2, so packed params carry m=1/2
   and the conjugation identities above are EXACT — no post-division, no
   scale games. Values packed mid-function (from split producers) enter at
   m=1; the first plaintext multiply on their path substitutes a halved
   constant to bring them to 1/2, and a region whose exits cannot reach
   m=1/2 is demoted to split execution. Plaintext addends are halved iff
   the packed operand carries m=1/2. Every rewritten node copies the
   source node's (scale, level) annotations — C_conj and C_mul_i are
   scale- and level-preserving — so the abstract verifier accepts the
   rewritten function under the unmodified CKKS rules. *)

type mult = M1 | Mhalf

let mult_to_float = function M1 -> 1.0 | Mhalf -> 0.5

type stats = {
  packed_nodes : int;
  split_nodes : int;
  pack_ops : int;
  unpack_ops : int;
  regions : int;
  regions_refused : int;
}

type info = { stats : stats; output_mults : float list }

(* ---------- classification ---------- *)

let is_cipher_node f i = Types.is_ciphertext (Irfunc.node f i).Irfunc.ty

(* A plain operand can be halved when we can reach its clear source: either
   an encode of a clear vector (halve via a cleartext multiply by 0.5) or a
   plain-typed weight (halve the pool constant). *)
let halvable_plain f i =
  match (Irfunc.node f i).Irfunc.op with
  | Op.C_encode -> true
  | Op.Weight _ -> Types.equal (Irfunc.node f i).Irfunc.ty Types.Plain
  | _ -> false

(* Packed candidates are degree-1 results of component-independent ops.
   Restricting to [Types.Cipher] keeps conjugation legal at every possible
   exit (C_conj key-switches, so it needs degree 1). *)
let candidate f (n : Irfunc.node) =
  Types.equal n.Irfunc.ty Types.Cipher
  &&
  match n.Irfunc.op with
  | Op.C_add | Op.C_sub | Op.C_neg | Op.C_rescale | Op.C_mod_switch
  | Op.C_upscale _ | Op.C_downscale _ ->
    true
  | Op.C_mul -> Types.equal (Irfunc.node f n.Irfunc.args.(1)).Irfunc.ty Types.Plain
  | _ -> false

(* Heuristic op weights for the profitability gate, on the scale of one
   linear limb pass. Conjugation is a full key switch (quadratic in limbs,
   like a rotation); a pack is a monomial multiply plus an add. *)
let weight (n : Irfunc.node) =
  match n.Irfunc.op with Op.C_mul -> 3.0 | _ -> 1.0

let pack_cost = 3.0
let unpack_cost = 15.0

(* ---------- planning ---------- *)

(* Decide, per node, packed vs split execution. Starts from all candidates
   packed and demotes to a fixpoint:
   - multiplier propagation: params enter at 1/2, pack boundaries at 1;
     ct+ct merges need equal multipliers; plaintext addends must be
     halvable when the operand carries 1/2; plaintext multiplies always
     leave 1/2 (substituting a halved constant when entered at 1);
   - every exit (a packed value consumed by a split op) must carry 1/2 —
     the conjugation identities are only exact there;
   - a connected packed region whose duplicated-op savings do not cover
     its pack/unpack boundary cost is demoted wholesale. *)
let plan f =
  let num = Irfunc.num_nodes f in
  let packed = Array.make num false in
  let is_param = Array.make num false in
  Array.iteri
    (fun i (_, ty) ->
      if Types.equal ty Types.Cipher then begin
        let id = Irfunc.param f i in
        packed.(id) <- true;
        is_param.(id) <- true
      end)
    (Irfunc.params f);
  Irfunc.iter f (fun n -> if candidate f n then packed.(n.Irfunc.id) <- true);
  (* consumers over cipher edges *)
  let consumers = Array.make num [] in
  Irfunc.iter f (fun n ->
      Array.iter
        (fun a -> if is_cipher_node f a then consumers.(a) <- n.Irfunc.id :: consumers.(a))
        n.Irfunc.args);
  let m : mult option array = Array.make num None in
  let refused = ref 0 in
  let feasibility_round () =
    Array.fill m 0 num None;
    let demoted = ref false in
    let demote i =
      if packed.(i) && not is_param.(i) then begin
        packed.(i) <- false;
        demoted := true
      end
    in
    Irfunc.iter f (fun n ->
        let i = n.Irfunc.id in
        if packed.(i) then
          if is_param.(i) then m.(i) <- Some Mhalf
          else begin
            let arg_m a = if packed.(a) then Option.get m.(a) else M1 in
            let ok, out =
              match n.Irfunc.op with
              | Op.C_add | Op.C_sub ->
                let a0 = n.Irfunc.args.(0) and a1 = n.Irfunc.args.(1) in
                if is_cipher_node f a1 then
                  let m0 = arg_m a0 and m1 = arg_m a1 in
                  (m0 = m1, m0)
                else
                  (* plain addend: re-encoded as a (1+i)-pair so it shifts
                     both streams, halved iff the cipher side is at 1/2 —
                     either way we must reach its clear source *)
                  let m0 = arg_m a0 in
                  (halvable_plain f a1, m0)
              | Op.C_mul ->
                (* plain multiply; entering at 1 needs a halvable constant *)
                let m0 = arg_m n.Irfunc.args.(0) in
                ((m0 = Mhalf || halvable_plain f n.Irfunc.args.(1)), Mhalf)
              | _ -> (true, arg_m n.Irfunc.args.(0))
            in
            if ok then m.(i) <- Some out else demote i
          end);
    (* exits must carry 1/2 *)
    Irfunc.iter f (fun n ->
        let i = n.Irfunc.id in
        if packed.(i) && not is_param.(i) then
          let exits = List.exists (fun c -> not packed.(c)) consumers.(i) in
          if exits && m.(i) <> Some Mhalf then demote i);
    !demoted
  in
  let profitability_round () =
    (* connected components of packed non-param nodes over cipher edges *)
    let region = Array.make num (-1) in
    let members = Hashtbl.create 16 in
    let next = ref 0 in
    Irfunc.iter f (fun n ->
        let i = n.Irfunc.id in
        if packed.(i) && not is_param.(i) then begin
          let r =
            Array.fold_left
              (fun acc a ->
                if acc >= 0 then acc
                else if a >= 0 && a < num && packed.(a) && (not is_param.(a)) && region.(a) >= 0
                then region.(a)
                else acc)
              (-1) n.Irfunc.args
          in
          let r =
            if r >= 0 then r
            else begin
              incr next;
              !next - 1
            end
          in
          region.(i) <- r;
          Hashtbl.replace members r (i :: Option.value (Hashtbl.find_opt members r) ~default:[])
        end);
    let demoted = ref false in
    Hashtbl.iter
      (fun _ nodes ->
        let savings =
          List.fold_left (fun acc i -> acc +. weight (Irfunc.node f i)) 0.0 nodes
        in
        let in_region i = List.mem i nodes in
        (* entries: distinct split cipher sources packed at a boundary;
           params arrive packed for free *)
        let entries = Hashtbl.create 8 in
        List.iter
          (fun i ->
            Array.iter
              (fun a ->
                if is_cipher_node f a && (not packed.(a)) && not (Hashtbl.mem entries a) then
                  Hashtbl.add entries a ())
              (Irfunc.node f i).Irfunc.args)
          nodes;
        (* exits: region nodes with at least one split consumer *)
        let exits =
          List.length
            (List.filter (fun i -> List.exists (fun c -> not (in_region c) && not packed.(c)) consumers.(i)) nodes)
        in
        let boundary =
          (float_of_int (Hashtbl.length entries) *. pack_cost)
          +. (float_of_int exits *. unpack_cost)
        in
        if savings <= boundary then begin
          incr refused;
          List.iter (fun i -> packed.(i) <- false) nodes;
          demoted := true
        end)
      members;
    !demoted
  in
  let rec fix () =
    while feasibility_round () do
      ()
    done;
    if profitability_round () then fix ()
  in
  fix ();
  (packed, m, !refused)

(* Public view of the planning decision, for tests and diagnostics. *)
let packed_plan f =
  let packed, _, _ = plan f in
  packed

(* ---------- rewrite ---------- *)

type repr = Packed of int * mult | Split of int * int

let run f =
  if Irfunc.level f <> Level.Ckks then invalid_arg "Ckks_cplx.run: not a CKKS function";
  let packed, _, regions_refused = plan f in
  let num = Irfunc.num_nodes f in
  let repr : repr option array = Array.make num None in
  let stats =
    ref
      {
        packed_nodes = 0;
        split_nodes = 0;
        pack_ops = 0;
        unpack_ops = 0;
        regions = 0;
        regions_refused;
      }
  in
  let bump g = stats := g !stats in
  let output_mults = ref [] in
  let returns = ref [] in
  let params = Array.to_list (Irfunc.params f) in
  let dst =
    Irfunc.map_rebuild f ~name:(Irfunc.name f) ~level:Level.Ckks ~params
      ~emit:(fun dst lookup n ->
        let src_id = n.Irfunc.id in
        let stamp id =
          let d = Irfunc.node dst id in
          d.Irfunc.scale <- n.Irfunc.scale;
          d.Irfunc.node_level <- n.Irfunc.node_level;
          if d.Irfunc.origin = "" then d.Irfunc.origin <- n.Irfunc.origin;
          id
        in
        let emit op args ty = stamp (Irfunc.add dst op args ty) in
        (* Convert a source cipher value to packed form (memoized via repr
           update): split values pack at multiplier 1. *)
        let as_packed a =
          match Option.get repr.(a) with
          | Packed (id, mu) -> (id, mu)
          | Split (re, im) ->
            let src = Irfunc.node f a in
            let stamp_as id =
              let d = Irfunc.node dst id in
              d.Irfunc.scale <- src.Irfunc.scale;
              d.Irfunc.node_level <- src.Irfunc.node_level;
              if d.Irfunc.origin = "" then d.Irfunc.origin <- src.Irfunc.origin;
              id
            in
            let ii = stamp_as (Irfunc.add dst Op.C_mul_i [| im |] Types.Cipher) in
            let z = stamp_as (Irfunc.add dst Op.C_add [| re; ii |] Types.Cipher) in
            bump (fun s -> { s with pack_ops = s.pack_ops + 1 });
            repr.(a) <- Some (Packed (z, M1));
            (z, M1)
        in
        (* Convert to split form; the plan guarantees packed exits carry
           m = 1/2, making the conjugation identities exact. *)
        let as_split a =
          match Option.get repr.(a) with
          | Split (re, im) -> (re, im)
          | Packed (z, mu) ->
            if mu <> Mhalf then
              invalid_arg "Ckks_cplx: internal: unpack of a multiplier-1 value";
            let src = Irfunc.node f a in
            let stamp_as id =
              let d = Irfunc.node dst id in
              d.Irfunc.scale <- src.Irfunc.scale;
              d.Irfunc.node_level <- src.Irfunc.node_level;
              if d.Irfunc.origin = "" then d.Irfunc.origin <- src.Irfunc.origin;
              id
            in
            let cj = stamp_as (Irfunc.add dst Op.C_conj [| z |] Types.Cipher) in
            let re = stamp_as (Irfunc.add dst Op.C_add [| z; cj |] Types.Cipher) in
            let dif = stamp_as (Irfunc.add dst Op.C_sub [| cj; z |] Types.Cipher) in
            let im = stamp_as (Irfunc.add dst Op.C_mul_i [| dif |] Types.Cipher) in
            bump (fun s -> { s with unpack_ops = s.unpack_ops + 1 });
            repr.(a) <- Some (Split (re, im));
            (re, im)
        in
        (* Plaintext addend of a packed op: re-encode the clear source as
           the complex pair (1+i)*c (halved when the operand carries 1/2)
           so both streams receive it — a real plaintext would only shift
           the real parts. *)
        let pair_plain ~halve a =
          let p = Irfunc.node f a in
          let stamp_enc src enc =
            let d = Irfunc.node dst enc in
            d.Irfunc.scale <- src.Irfunc.scale;
            d.Irfunc.node_level <- src.Irfunc.node_level;
            d.Irfunc.origin <- src.Irfunc.origin;
            enc
          in
          let pair_of_clear clear_id clear_ty =
            let n_elems =
              match clear_ty with Types.Vec k -> k | ty -> Types.tensor_elems ty
            in
            let clear_id =
              if not halve then clear_id
              else begin
                let half =
                  Irfunc.fresh_const dst ~prefix:"cplx_half" ~dims:[| n_elems |]
                    (Array.make n_elems 0.5)
                in
                let w = Irfunc.add dst (Op.Weight half) [||] (Types.Vec n_elems) in
                Irfunc.add dst Op.V_mul [| clear_id; w |] clear_ty
              end
            in
            stamp_enc p (Irfunc.add dst Op.C_encode_pair [| clear_id |] Types.Plain)
          in
          match p.Irfunc.op with
          | Op.C_encode ->
            let clear = p.Irfunc.args.(0) in
            pair_of_clear (lookup clear) (Irfunc.node f clear).Irfunc.ty
          | Op.Weight name ->
            let data = Irfunc.const f name in
            let n_elems = Array.length data in
            let fresh =
              Irfunc.fresh_const dst ~prefix:(name ^ "_clear") ~dims:[| n_elems |] data
            in
            let w = Irfunc.add dst (Op.Weight fresh) [||] (Types.Vec n_elems) in
            pair_of_clear w (Types.Vec n_elems)
          | _ -> invalid_arg "Ckks_cplx: internal: unhalvable plain operand"
        in
        (* Halved REAL plaintext chains (multiplicative constants: a real
           factor scales both streams alike). *)
        let halved_plain a =
          let p = Irfunc.node f a in
          match p.Irfunc.op with
          | Op.C_encode ->
            let clear = p.Irfunc.args.(0) in
            let n_elems =
              match (Irfunc.node f clear).Irfunc.ty with
              | Types.Vec k -> k
              | ty -> Types.tensor_elems ty
            in
            let half =
              Irfunc.fresh_const dst ~prefix:"cplx_half" ~dims:[| n_elems |]
                (Array.make n_elems 0.5)
            in
            let w = Irfunc.add dst (Op.Weight half) [||] (Types.Vec n_elems) in
            let hv =
              Irfunc.add dst Op.V_mul [| lookup clear; w |] (Irfunc.node f clear).Irfunc.ty
            in
            let enc = Irfunc.add dst Op.C_encode [| hv |] Types.Plain in
            let d = Irfunc.node dst enc in
            d.Irfunc.scale <- p.Irfunc.scale;
            d.Irfunc.node_level <- p.Irfunc.node_level;
            d.Irfunc.origin <- p.Irfunc.origin;
            enc
          | Op.Weight name ->
            let data = Array.map (fun x -> x /. 2.0) (Irfunc.const f name) in
            let half = Irfunc.fresh_const dst ~prefix:(name ^ "_half") data in
            let w = Irfunc.add dst (Op.Weight half) [||] Types.Plain in
            let d = Irfunc.node dst w in
            d.Irfunc.scale <- p.Irfunc.scale;
            d.Irfunc.node_level <- p.Irfunc.node_level;
            w
          | _ -> invalid_arg "Ckks_cplx: internal: unhalvable plain operand"
        in
        let primary =
          match n.Irfunc.op with
          | Op.Param i ->
            let id = stamp (Irfunc.param dst i) in
            if Types.is_ciphertext n.Irfunc.ty then repr.(src_id) <- Some (Packed (id, Mhalf));
            id
          | _ when not (Types.is_ciphertext n.Irfunc.ty) ->
            (* Clear / plaintext nodes are stream-independent and shared. *)
            emit n.Irfunc.op (Array.map lookup n.Irfunc.args) n.Irfunc.ty
          | _ when packed.(src_id) ->
            bump (fun s -> { s with packed_nodes = s.packed_nodes + 1 });
            let id =
              match n.Irfunc.op with
              | Op.C_add | Op.C_sub when not (is_cipher_node f n.Irfunc.args.(1)) ->
                let z, mu = as_packed n.Irfunc.args.(0) in
                let pt = pair_plain ~halve:(mu = Mhalf) n.Irfunc.args.(1) in
                let id = emit n.Irfunc.op [| z; pt |] n.Irfunc.ty in
                repr.(src_id) <- Some (Packed (id, mu));
                id
              | Op.C_add | Op.C_sub ->
                let z0, m0 = as_packed n.Irfunc.args.(0) in
                let z1, m1 = as_packed n.Irfunc.args.(1) in
                if m0 <> m1 then
                  invalid_arg "Ckks_cplx: internal: multiplier mismatch at merge";
                let id = emit n.Irfunc.op [| z0; z1 |] n.Irfunc.ty in
                repr.(src_id) <- Some (Packed (id, m0));
                id
              | Op.C_mul ->
                let z, mu = as_packed n.Irfunc.args.(0) in
                let pt =
                  if mu = M1 then halved_plain n.Irfunc.args.(1)
                  else lookup n.Irfunc.args.(1)
                in
                let id = emit n.Irfunc.op [| z; pt |] n.Irfunc.ty in
                repr.(src_id) <- Some (Packed (id, Mhalf));
                id
              | Op.C_neg | Op.C_rescale | Op.C_mod_switch | Op.C_upscale _ | Op.C_downscale _
                ->
                let z, mu = as_packed n.Irfunc.args.(0) in
                let id = emit n.Irfunc.op [| z |] n.Irfunc.ty in
                repr.(src_id) <- Some (Packed (id, mu));
                id
              | _ -> invalid_arg "Ckks_cplx: internal: non-candidate op marked packed"
            in
            id
          | _ ->
            (* Split execution: duplicate per stream; plain operands and
               clear chains are shared verbatim. *)
            bump (fun s -> { s with split_nodes = s.split_nodes + 1 });
            let dup pick =
              Array.map
                (fun a ->
                  if is_cipher_node f a then pick (as_split a)
                  else lookup a)
                n.Irfunc.args
            in
            let re = emit n.Irfunc.op (dup fst) n.Irfunc.ty in
            let im = emit n.Irfunc.op (dup snd) n.Irfunc.ty in
            repr.(src_id) <- Some (Split (re, im));
            re
        in
        (if List.mem src_id (Irfunc.returns f) then
           match repr.(src_id) with
           | Some (Packed (z, mu)) ->
             returns := (z, mult_to_float mu) :: !returns
           | Some (Split (re, im)) ->
             (* the protocol returns one ciphertext per output: repack *)
             let ii = stamp (Irfunc.add dst Op.C_mul_i [| im |] Types.Cipher) in
             let z = stamp (Irfunc.add dst Op.C_add [| re; ii |] Types.Cipher) in
             bump (fun s -> { s with pack_ops = s.pack_ops + 1 });
             returns := (z, 1.0) :: !returns
           | None ->
             (* non-cipher return (not produced by our pipeline) *)
             returns := (primary, 1.0) :: !returns);
        primary)
  in
  let rets = List.rev !returns in
  Irfunc.set_returns dst (List.map fst rets);
  output_mults := List.map snd rets;
  (* region count for reporting: packed components of the ACCEPTED plan *)
  let region_count =
    let seen = Array.make num false in
    let count = ref 0 in
    let is_param_node i =
      match (Irfunc.node f i).Irfunc.op with Op.Param _ -> true | _ -> false
    in
    let rec mark i =
      if i >= 0 && i < num && packed.(i) && (not (is_param_node i)) && not seen.(i) then begin
        seen.(i) <- true;
        Array.iter (fun a -> if is_cipher_node f a then mark a) (Irfunc.node f i).Irfunc.args;
        Irfunc.iter f (fun c ->
            if (not seen.(c.Irfunc.id)) && packed.(c.Irfunc.id)
               && Array.exists (fun a -> a = i) c.Irfunc.args
            then mark c.Irfunc.id)
      end
    in
    Irfunc.iter f (fun c ->
        let i = c.Irfunc.id in
        let is_par = match c.Irfunc.op with Op.Param _ -> true | _ -> false in
        if packed.(i) && (not is_par) && not seen.(i) then begin
          incr count;
          mark i
        end);
    !count
  in
  bump (fun s -> { s with regions = region_count });
  (dst, { stats = !stats; output_mults = !output_mults })

let pp_stats ppf s =
  Format.fprintf ppf
    "packed %d split %d pack %d unpack %d regions %d (refused %d)"
    s.packed_nodes s.split_nodes s.pack_ops s.unpack_ops s.regions s.regions_refused
