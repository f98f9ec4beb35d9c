module Context = Ace_fhe.Context
module Crt = Ace_rns.Crt
module Keygen_plan = Ace_ckks_ir.Keygen_plan
module Sched = Ace_codegen.Sched
module Poly_ir = Ace_poly_ir.Poly_ir
open Ace_ir

exception Rejected of Diagnostic.t list

let override = ref None

let env_enabled =
  lazy
    (match Sys.getenv_opt "ACE_VERIFY" with
    | Some s -> (
      match String.lowercase_ascii (String.trim s) with
      | "0" | "off" | "false" | "no" -> false
      | _ -> true)
    | None -> true)

let enabled () = match !override with Some b -> b | None -> Lazy.force env_enabled
let set_enabled b = override := Some b

let errors_to_string ds = String.concat "\n" (List.map Diagnostic.to_string ds)

(* Diagnostics accumulate in program order; a corrupted node must produce
   a diagnostic, never an escape of the exception the probe tripped on. *)
type collector = { mutable diags : Diagnostic.t list; pass : string; lvl : Level.t }

let report c kind ?node fmt =
  Printf.ksprintf
    (fun msg -> c.diags <- Diagnostic.make kind ~pass:c.pass ~level:c.lvl ?node msg :: c.diags)
    fmt

let finish c = List.rev c.diags

(* ---- structural well-formedness, any DAG level ---- *)

let well_formed ~pass f =
  let c = { diags = []; pass; lvl = Irfunc.level f } in
  let num = Irfunc.num_nodes f in
  for i = 0 to num - 1 do
    let n = Irfunc.node f i in
    if n.Irfunc.id <> i then
      report c Diagnostic.Multiple_definition ~node:i
        "node claims id %%%d but sits at program position %d" n.Irfunc.id i;
    let args_ok = ref true in
    Array.iter
      (fun a ->
        if a < 0 || a >= num then begin
          args_ok := false;
          report c Diagnostic.Undefined_value ~node:i "argument %%%d does not exist" a
        end
        else if a >= i then begin
          args_ok := false;
          report c Diagnostic.Undefined_value ~node:i
            "argument %%%d is not defined before its use (def-before-use)" a
        end)
      n.Irfunc.args;
    (match Op.arity n.Irfunc.op with
    | Some k when k <> Array.length n.Irfunc.args ->
      args_ok := false;
      report c Diagnostic.Arity_mismatch ~node:i "%s expects %d arguments, got %d"
        (Op.name n.Irfunc.op) k (Array.length n.Irfunc.args)
    | _ -> ());
    (* Level discipline: SIHE and CKKS functions inherit cleartext VECTOR
       ops on weights, except the nonlinear placeholder, which must have
       been approximated away by then. *)
    (match (Op.level n.Irfunc.op, Irfunc.level f) with
    | None, _ -> ()
    | Some l, fl when l = fl -> ()
    | Some Level.Vector, (Level.Sihe | Level.Ckks) -> (
      match n.Irfunc.op with
      | Op.V_nonlinear fn ->
        report c Diagnostic.Level_violation ~node:i
          "unapproximated nonlinear %s below VECTOR level" fn
      | _ -> ())
    | Some l, fl ->
      report c Diagnostic.Level_violation ~node:i "%s op in a %s-level function"
        (Level.to_string l) (Level.to_string fl));
    if !args_ok then
      try Verify.check_node f n with
      | Verify.Ill_formed msg -> report c Diagnostic.Type_mismatch ~node:i "%s" msg
      | Invalid_argument msg | Failure msg ->
        report c Diagnostic.Type_mismatch ~node:i "typing probe failed: %s" msg
  done;
  (match Irfunc.returns f with
  | [] -> report c Diagnostic.No_returns "function returns nothing"
  | rets ->
    List.iter
      (fun r ->
        if r < 0 || r >= num then
          report c Diagnostic.Undefined_value "return value %%%d does not exist" r)
      rets);
  finish c

(* ---- the CKKS abstract domain ---- *)

(* Abstract state per ciphertext/plaintext value: (scale, modulus level,
   limb count). The lattice is flat — the lowering annotates every node
   with exact values, so the interpreter re-derives each node's state from
   its operands' annotations and any disagreement is a miscompile. Limb
   count is level + 1 by construction (chain indices 0..level); tracking
   it separately catches annotations outside the chain, where the runtime
   would index past the CRT basis. *)

let close a b = abs_float (a -. b) /. (abs_float b +. 1e-300) < 1e-6

let ckks ~pass ?plan ctx f =
  let c = { diags = []; pass; lvl = Irfunc.level f } in
  if Irfunc.level f <> Level.Ckks then begin
    report c Diagnostic.Level_violation "ckks check on a %s-level function"
      (Level.to_string (Irfunc.level f));
    finish c
  end
  else begin
    let crt = Context.crt ctx in
    let delta = Context.scale ctx in
    let chain = Context.max_level ctx in
    let slots = Context.slots ctx in
    let num = Irfunc.num_nodes f in
    (* Consumers of a hoisted bundle: only [C_batch_get] may read one. *)
    let is_batch = Array.make num false in
    Irfunc.iter f (fun n ->
        match n.Irfunc.op with
        | Op.C_rotate_batch _ -> is_batch.(n.Irfunc.id) <- true
        | _ -> ());
    let step_known k =
      match plan with
      | None -> true
      | Some p -> k = 0 || List.mem k p.Keygen_plan.rotation_steps
    in
    Irfunc.iter f (fun n ->
        let id = n.Irfunc.id in
        let a i = Irfunc.node f n.Irfunc.args.(i) in
        let is_cipher (m : Irfunc.node) = Types.is_ciphertext m.Irfunc.ty in
        (* Range of the annotation itself, before deriving anything from
           it: a level outside [0, chain] indexes past the CRT basis. *)
        let carries_state =
          Types.is_ciphertext n.Irfunc.ty
          || (match n.Irfunc.op with Op.C_encode | Op.C_encode_pair -> true | _ -> false)
        in
        if carries_state then begin
          if n.Irfunc.node_level < 0 then
            report c Diagnostic.Level_mismatch ~node:id "%s: level annotation missing (%d)"
              (Op.name n.Irfunc.op) n.Irfunc.node_level
          else if n.Irfunc.node_level > chain then
            report c Diagnostic.Limb_mismatch ~node:id
              "%s: %d limbs exceed the %d-limb chain (level %d > %d)" (Op.name n.Irfunc.op)
              (n.Irfunc.node_level + 1) (chain + 1) n.Irfunc.node_level chain;
          if not (n.Irfunc.scale > 0.0) then
            report c Diagnostic.Scale_mismatch ~node:id "%s: non-positive scale"
              (Op.name n.Irfunc.op)
        end;
        (* Hoisted-bundle discipline. *)
        (match n.Irfunc.op with
        | Op.C_rotate_batch steps ->
          let seen = Hashtbl.create 8 in
          Array.iter
            (fun k ->
              if Hashtbl.mem seen k then
                report c Diagnostic.Batch_aliasing ~node:id
                  "rotate_batch lists step %d twice: two batch slots alias one rotation" k
              else Hashtbl.add seen k ())
            steps;
          if Array.length n.Irfunc.args = 1 && is_batch.(n.Irfunc.args.(0)) then
            report c Diagnostic.Batch_aliasing ~node:id
              "rotate_batch source %%%d is itself a bundle" n.Irfunc.args.(0)
        | Op.C_batch_get i when Array.length n.Irfunc.args = 1 ->
          if not is_batch.(n.Irfunc.args.(0)) then
            report c Diagnostic.Batch_aliasing ~node:id
              "batch_get reads %%%d, which is %s, not a rotate_batch bundle" n.Irfunc.args.(0)
              (Op.name (a 0).Irfunc.op)
          else begin
            match (a 0).Irfunc.op with
            | Op.C_rotate_batch steps when i < 0 || i >= Array.length steps ->
              report c Diagnostic.Batch_aliasing ~node:id
                "batch_get index %d out of range for a %d-step bundle" i (Array.length steps)
            | _ -> ()
          end
        | _ ->
          Array.iter
            (fun arg ->
              if arg >= 0 && arg < num && is_batch.(arg) then
                report c Diagnostic.Batch_aliasing ~node:id
                  "%s reads bundle %%%d directly; only batch_get may" (Op.name n.Irfunc.op)
                  arg)
            n.Irfunc.args);
        (* Keygen-plan membership: a rotation step with no planned Galois
           key would only surface at execution time, as
           [Eval.Missing_rotation_key]. *)
        (match n.Irfunc.op with
        | Op.C_rotate k when not (step_known k) ->
          report c Diagnostic.Missing_rotation_key ~node:id
            "rotation step %d has no key in the keygen plan" k
        | Op.C_rotate_batch steps ->
          Array.iter
            (fun k ->
              if not (step_known k) then
                report c Diagnostic.Missing_rotation_key ~node:id
                  "hoisted rotation step %d has no key in the keygen plan" k)
            steps
        | _ -> ());
        (* The transfer function: expected (scale, level) from the
           operands' annotations, mirroring the lowering's own abstract
           interpretation (Lower_sihe). *)
        let expect =
          try
            match n.Irfunc.op with
            | Op.Param _ -> Some (delta, chain)
            | Op.C_encode | Op.C_encode_pair ->
              (* Scale is the encoder's free choice; slot capacity is not. *)
              (match (a 0).Irfunc.ty with
              | Types.Vec len when len > slots ->
                report c Diagnostic.Slot_mismatch ~node:id
                  "encode of a %d-element vector into %d slots" len slots
              | _ -> ());
              None
            | Op.C_add | Op.C_sub ->
              let x = a 0 and y = a 1 in
              if x.Irfunc.node_level <> y.Irfunc.node_level then
                report c Diagnostic.Level_mismatch ~node:id
                  "%s level mismatch: %d vs %d"
                  (if is_cipher y then "add" else "add-plain")
                  x.Irfunc.node_level y.Irfunc.node_level;
              if not (close x.Irfunc.scale y.Irfunc.scale) then
                report c Diagnostic.Scale_mismatch ~node:id
                  "%s scale mismatch: 2^%.3f vs 2^%.3f"
                  (if is_cipher y then "add" else "add-plain")
                  (Float.log2 x.Irfunc.scale) (Float.log2 y.Irfunc.scale);
              Some (x.Irfunc.scale, x.Irfunc.node_level)
            | Op.C_mul ->
              let x = a 0 and y = a 1 in
              if x.Irfunc.node_level <> y.Irfunc.node_level then
                report c Diagnostic.Level_mismatch ~node:id "mul level mismatch: %d vs %d"
                  x.Irfunc.node_level y.Irfunc.node_level;
              if x.Irfunc.node_level < 1 then
                report c Diagnostic.Level_mismatch ~node:id
                  "mul at level %d: no prime left to rescale away" x.Irfunc.node_level;
              Some (x.Irfunc.scale *. y.Irfunc.scale, x.Irfunc.node_level)
            | Op.C_relin | Op.C_neg | Op.C_rotate _ | Op.C_rotate_batch _ | Op.C_batch_get _
            | Op.C_conj | Op.C_mul_i ->
              Some ((a 0).Irfunc.scale, (a 0).Irfunc.node_level)
            | Op.C_rescale ->
              let x = a 0 in
              if x.Irfunc.node_level < 1 then begin
                report c Diagnostic.Level_mismatch ~node:id
                  "rescale at level %d: nothing to drop" x.Irfunc.node_level;
                None
              end
              else if x.Irfunc.node_level > chain then None (* already reported *)
              else begin
                let q = float_of_int (Crt.modulus crt x.Irfunc.node_level) in
                Some (x.Irfunc.scale /. q, x.Irfunc.node_level - 1)
              end
            | Op.C_mod_switch ->
              let x = a 0 in
              if x.Irfunc.node_level < 1 then begin
                report c Diagnostic.Level_mismatch ~node:id
                  "modswitch at level %d: nothing to drop" x.Irfunc.node_level;
                None
              end
              else Some (x.Irfunc.scale, x.Irfunc.node_level - 1)
            | Op.C_upscale r -> Some ((a 0).Irfunc.scale *. r, (a 0).Irfunc.node_level)
            | Op.C_downscale r -> Some ((a 0).Irfunc.scale /. r, (a 0).Irfunc.node_level)
            | Op.C_bootstrap target ->
              if target < 1 || target > chain then begin
                report c Diagnostic.Bootstrap_range ~node:id
                  "bootstrap target level %d outside [1, %d]" target chain;
                None
              end
              else Some (delta, target)
            | _ -> None
          with ex ->
            report c Diagnostic.Type_mismatch ~node:id "transfer function failed: %s"
              (Printexc.to_string ex);
            None
        in
        match expect with
        | None -> ()
        | Some (s, l) ->
          if not (close s n.Irfunc.scale) then
            report c Diagnostic.Scale_mismatch ~node:id
              "%s: scale annotated 2^%.3f, derived 2^%.3f" (Op.name n.Irfunc.op)
              (Float.log2 n.Irfunc.scale) (Float.log2 s);
          if l <> n.Irfunc.node_level then
            report c Diagnostic.Level_mismatch ~node:id
              "%s: level annotated %d, derived %d" (Op.name n.Irfunc.op) n.Irfunc.node_level
              l);
    (* A bundle is an internal value: it must not escape as a return, and
       neither may a degree-2 ciphertext — decryption handles (c0, c1)
       only, so lazy relinearisation must have closed every output. *)
    List.iter
      (fun r ->
        if r >= 0 && r < num then begin
          if is_batch.(r) then
            report c Diagnostic.Batch_aliasing ~node:r "rotate_batch bundle is returned";
          if Types.equal (Irfunc.node f r).Irfunc.ty Types.Cipher3 then
            report c Diagnostic.Type_mismatch ~node:r
              "degree-2 ciphertext is returned; relinearise before output"
        end)
      (Irfunc.returns f);
    finish c
  end

(* ---- schedules ---- *)

(* [Sched.check] fails with messages of the form "sched: ...: node 17
   reads ..."; recover the first node id after "node " so the
   diagnostic stays machine-matchable. *)
let node_of_message msg =
  let len = String.length msg in
  let rec find i =
    if i + 5 > len then None
    else if String.sub msg i 5 = "node " then
      let j = ref (i + 5) in
      let start = !j in
      while !j < len && msg.[!j] >= '0' && msg.[!j] <= '9' do
        incr j
      done;
      if !j > start then Some (int_of_string (String.sub msg start (!j - start)))
      else find (i + 1)
    else find (i + 1)
  in
  find 0

let schedule ~pass f sched =
  let c = { diags = []; pass; lvl = Irfunc.level f } in
  (try Sched.check f sched with
  | Failure msg ->
    report c Diagnostic.Schedule_violation ?node:(node_of_message msg) "%s" msg
  | ex ->
    report c Diagnostic.Schedule_violation "schedule probe failed: %s"
      (Printexc.to_string ex));
  finish c

(* ---- POLY level ---- *)

(* The statement IR names node values "t<id>" with limb/scratch suffixes
   ("t5.c0", "t5.dig"). Def-before-use at base-name granularity: every
   t-named operand must have been written (or declared, for parameters and
   cleartext values, which lower to "tN := ..." comments) by an earlier
   statement. Runtime globals ("ksk.a", "zero") and literal attributes
   ("scale=...") are not value names and are ignored. *)
let base_name s =
  let stem = match String.index_opt s '.' with Some i -> String.sub s 0 i | None -> s in
  let is_tnum =
    String.length stem >= 2
    && stem.[0] = 't'
    && (let ok = ref true in
        String.iter (fun ch -> if ch < '0' || ch > '9' then ok := false)
          (String.sub stem 1 (String.length stem - 1));
        !ok)
  in
  if is_tnum then Some stem else None

let poly ~pass (pf : Poly_ir.func) =
  let c = { diags = []; pass; lvl = Level.Poly } in
  let defined = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace defined p ()) pf.Poly_ir.poly_params;
  let define s = match base_name s with Some b -> Hashtbl.replace defined b () | None -> () in
  let use what s =
    match base_name s with
    | Some b when not (Hashtbl.mem defined b) ->
      report c Diagnostic.Undefined_value "%s reads %s before any definition of %s" what s b
    | _ -> ()
  in
  let rec stmt = function
    | Poly_ir.Comment text ->
      (* "tN := ciphertext parameter" / ":= constant" / cleartext ops
         declare a value the DAG carried but POLY does not compute. *)
      (match String.index_opt text ' ' with
      | Some i when String.length text > i + 2 && String.sub text (i + 1) 2 = ":=" ->
        define (String.sub text 0 i)
      | _ -> ())
    | Poly_ir.For { bound; body; _ } ->
      (match bound with
      | Poly_ir.Num_q (name, _) -> use "loop bound" name
      | Poly_ir.Const_bound _ -> ());
      List.iter stmt body
    | Poly_ir.Hw { h_dst; h_op = _; h_args } ->
      List.iter (use ("hw op writing " ^ h_dst)) h_args;
      define h_dst
    | Poly_ir.Call { c_dst; c_op = _; c_args } ->
      List.iter (use ("call writing " ^ c_dst)) c_args;
      define c_dst
  in
  List.iter stmt pf.Poly_ir.body;
  List.iter (use "return") pf.Poly_ir.returns;
  finish c

(* ---- composition ---- *)

let function_checks ~pass ?plan ?context f =
  let structural = well_formed ~pass f in
  if structural <> [] then structural
  else
    match (Irfunc.level f, context) with
    | Level.Ckks, Some ctx ->
      let abstract = ckks ~pass ?plan ctx f in
      if abstract <> [] then abstract
      else
        (* The release plan the VM executes. *)
        schedule ~pass f (Sched.plan f)
    | _ -> []

let check_exn ~pass ?plan ?context f =
  match function_checks ~pass ?plan ?context f with
  | [] -> ()
  | ds -> raise (Rejected ds)

let poly_exn ~pass pf = match poly ~pass pf with [] -> () | ds -> raise (Rejected ds)

let () =
  Printexc.register_printer (function
    | Rejected ds ->
      Some
        (Printf.sprintf "Ace_verify.Verifier.Rejected:\n%s" (errors_to_string ds))
    | _ -> None)
