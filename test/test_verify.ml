(* Verifier unit + mutation-smoke tests.

   The clean-model tests pin the verifier's false-positive rate at zero on
   real compiled pipelines (every stage, every level). The mutation tests
   are the reason the verifier exists: each corrupts one thing a bug could
   plausibly corrupt — a rescale annotation, a planned rotation key, the
   point where a value is released — and demands a *typed* diagnostic naming
   the offending IR node, never a crash and never a silent pass. *)

module Verifier = Ace_verify.Verifier
module Diagnostic = Ace_verify.Diagnostic
module Differential = Ace_testkit.Differential
module Irfunc = Ace_ir.Irfunc
module Op = Ace_ir.Op
module Sched = Ace_codegen.Sched
module Keygen_plan = Ace_ckks_ir.Keygen_plan
module Pipeline = Ace_driver.Pipeline

(* One compiled case shared by every test; prepared once. The graph for
   seed 0 exercises Gemm (rotations + rescales), so every mutation has a
   target. Tests that corrupt annotations restore them before returning. *)
let case = lazy (Differential.prepare ~seed:0 ())

let ckks_fn () = (Lazy.force case).Differential.compiled.Pipeline.ckks
let context () = (Lazy.force case).Differential.compiled.Pipeline.context
let plan () = (Lazy.force case).Differential.compiled.Pipeline.key_plan

let kinds ds = List.map (fun d -> d.Diagnostic.d_kind) ds

let find_node f p =
  let found = ref None in
  Irfunc.iter f (fun n -> if !found = None && p n then found := Some n);
  match !found with
  | Some n -> n
  | None -> Alcotest.fail "test model lacks the op this mutation targets"

let expect_diag ~what kind node ds =
  match
    List.find_opt
      (fun d -> d.Diagnostic.d_kind = kind && d.Diagnostic.d_node = Some node.Irfunc.id)
      ds
  with
  | Some _ -> ()
  | None ->
    Alcotest.failf "%s: wanted [%s] naming node %%%d, got: %s" what
      (Diagnostic.kind_name kind) node.Irfunc.id
      (if ds = [] then "no diagnostics" else Verifier.errors_to_string ds)

(* -- clean models ---------------------------------------------------- *)

let clean_all_stages () =
  let c = (Lazy.force case).Differential.compiled in
  List.iter
    (fun (pass, f) ->
      match Verifier.well_formed ~pass f with
      | [] -> ()
      | ds -> Alcotest.failf "%s: %s" pass (Verifier.errors_to_string ds))
    [
      ("nn", c.Pipeline.nn);
      ("vector", c.Pipeline.vec);
      ("sihe", c.Pipeline.sihe);
      ("ckks", c.Pipeline.ckks);
    ];
  (match
     Verifier.function_checks ~pass:"keys" ~plan:(plan ()) ~context:(context ())
       (ckks_fn ())
   with
  | [] -> ()
  | ds -> Alcotest.failf "ckks+plan: %s" (Verifier.errors_to_string ds));
  match Verifier.poly ~pass:"poly" (fst (Pipeline.emit_c c)) with
  | [] -> ()
  | ds -> Alcotest.failf "poly: %s" (Verifier.errors_to_string ds)

let clean_check_exn () =
  Verifier.check_exn ~pass:"keys" ~plan:(plan ()) ~context:(context ()) (ckks_fn ())

(* -- mutation 1: corrupt one rescale's scale annotation -------------- *)

let corrupt_rescale () =
  let f = ckks_fn () in
  let n = find_node f (fun n -> n.Irfunc.op = Op.C_rescale) in
  let saved = n.Irfunc.scale in
  n.Irfunc.scale <- saved *. 2.0;
  Fun.protect ~finally:(fun () -> n.Irfunc.scale <- saved) @@ fun () ->
  let ds = Verifier.ckks ~pass:"mutated" ~plan:(plan ()) (context ()) f in
  expect_diag ~what:"doubled rescale scale" Diagnostic.Scale_mismatch n ds

let corrupt_rescale_level () =
  let f = ckks_fn () in
  let n = find_node f (fun n -> n.Irfunc.op = Op.C_rescale) in
  let saved = n.Irfunc.node_level in
  n.Irfunc.node_level <- saved + 1;
  Fun.protect ~finally:(fun () -> n.Irfunc.node_level <- saved) @@ fun () ->
  let ds = Verifier.ckks ~pass:"mutated" ~plan:(plan ()) (context ()) f in
  if
    not
      (List.exists
         (fun k -> k = Diagnostic.Level_mismatch || k = Diagnostic.Scale_mismatch)
         (kinds ds))
  then
    Alcotest.failf "rescale level+1: wanted a level/scale diagnostic, got: %s"
      (if ds = [] then "none" else Verifier.errors_to_string ds)

(* -- mutation 2: drop one rotation key from the plan ----------------- *)

let rotation_step_of n =
  match n.Irfunc.op with
  | Op.C_rotate k when k <> 0 -> Some k
  | Op.C_rotate_batch steps ->
    Array.fold_left (fun acc k -> if acc = None && k <> 0 then Some k else acc) None steps
  | _ -> None

let drop_rotation_key () =
  let f = ckks_fn () in
  let n = find_node f (fun n -> rotation_step_of n <> None) in
  let step = Option.get (rotation_step_of n) in
  let p = plan () in
  let gutted =
    {
      p with
      Keygen_plan.rotation_steps =
        List.filter (fun k -> k <> step) p.Keygen_plan.rotation_steps;
    }
  in
  let ds = Verifier.ckks ~pass:"mutated" ~plan:gutted (context ()) f in
  expect_diag
    ~what:(Printf.sprintf "plan without step %d" step)
    Diagnostic.Missing_rotation_key n ds

(* -- mutation 3: release a value before its last reader --------------- *)

let early_release () =
  let f = ckks_fn () in
  let s = Sched.plan f in
  let free = Sched.free_after s in
  (* Some value released after node [c] ([c] is its last reader) is moved
     to the release set of node [c - 1], which still runs before [c]. *)
  let c =
    let found = ref (-1) in
    Array.iteri
      (fun at vs -> if !found < 0 && at > 0 && Array.exists (fun v -> v < at) vs then found := at)
      free;
    if !found < 0 then Alcotest.fail "test model releases nothing";
    !found
  in
  let saved_c = free.(c) and saved_prev = free.(c - 1) in
  let v = List.find (fun v -> v < c) (Array.to_list saved_c) in
  free.(c) <- Array.of_list (List.filter (( <> ) v) (Array.to_list saved_c));
  free.(c - 1) <- Array.append saved_prev [| v |];
  Fun.protect ~finally:(fun () ->
      free.(c) <- saved_c;
      free.(c - 1) <- saved_prev)
  @@ fun () ->
  let ds = Verifier.schedule ~pass:"mutated" f s in
  expect_diag
    ~what:(Printf.sprintf "%%%d released before its reader %%%d" v c)
    Diagnostic.Schedule_violation (Irfunc.node f c) ds

let clean_release_plan () =
  let f = ckks_fn () in
  match Verifier.schedule ~pass:"sched" f (Sched.plan f) with
  | [] -> ()
  | ds -> Alcotest.failf "release plan: %s" (Verifier.errors_to_string ds)

(* -- structural rules on hand-built functions ------------------------ *)

let detects_missing_returns () =
  let f =
    Irfunc.create ~name:"no_ret" ~level:Ace_ir.Level.Ckks
      ~params:[ ("x", Ace_ir.Types.Cipher) ]
  in
  let ds = Verifier.well_formed ~pass:"unit" f in
  Alcotest.(check bool)
    "No_returns reported" true
    (List.mem Diagnostic.No_returns (kinds ds))

let detects_bad_bootstrap_target () =
  let ctx = context () in
  let f =
    Irfunc.create ~name:"bad_boot" ~level:Ace_ir.Level.Ckks
      ~params:[ ("x", Ace_ir.Types.Cipher) ]
  in
  (* [create] added the parameter as node 0. *)
  let b = Irfunc.add f (Op.C_bootstrap 0) [| 0 |] Ace_ir.Types.Cipher in
  Irfunc.set_returns f [ b ];
  let ds = Verifier.ckks ~pass:"unit" ctx f in
  Alcotest.(check bool)
    "Bootstrap_range reported" true
    (List.mem Diagnostic.Bootstrap_range (kinds ds))

let verifier_never_crashes_on_garbage () =
  (* args pointing forward / out of range must become diagnostics, not
     exceptions out of the verifier. *)
  let f =
    Irfunc.create ~name:"garbage" ~level:Ace_ir.Level.Ckks
      ~params:[ ("x", Ace_ir.Types.Cipher) ]
  in
  let m = Irfunc.add f Op.C_mul [| 0; 0 |] Ace_ir.Types.Cipher in
  Irfunc.set_returns f [ m ];
  (Irfunc.node f m).Irfunc.args.(1) <- 99;
  let ds = Verifier.well_formed ~pass:"unit" f in
  Alcotest.(check bool)
    "Undefined_value reported" true
    (List.mem Diagnostic.Undefined_value (kinds ds))

let enabled_knob () =
  Verifier.set_enabled false;
  Alcotest.(check bool) "off" false (Verifier.enabled ());
  Verifier.set_enabled true;
  Alcotest.(check bool) "on" true (Verifier.enabled ())

let () =
  Alcotest.run "verify"
    [
      ( "clean-models",
        [
          Alcotest.test_case "all five stages verify with zero diagnostics" `Quick
            clean_all_stages;
          Alcotest.test_case "check_exn passes on a clean model" `Quick clean_check_exn;
          Alcotest.test_case "release plan verifies" `Quick clean_release_plan;
        ] );
      ( "mutation-smoke",
        [
          Alcotest.test_case "corrupted rescale scale -> Scale_mismatch" `Quick
            corrupt_rescale;
          Alcotest.test_case "corrupted rescale level -> level/scale diagnostic" `Quick
            corrupt_rescale_level;
          Alcotest.test_case "dropped rotation key -> Missing_rotation_key" `Quick
            drop_rotation_key;
          Alcotest.test_case "early release -> Schedule_violation" `Quick early_release;
        ] );
      ( "structural",
        [
          Alcotest.test_case "missing returns" `Quick detects_missing_returns;
          Alcotest.test_case "bootstrap target out of range" `Quick
            detects_bad_bootstrap_target;
          Alcotest.test_case "garbage args become diagnostics" `Quick
            verifier_never_crashes_on_garbage;
          Alcotest.test_case "ACE_VERIFY override knob" `Quick enabled_knob;
        ] );
    ]
