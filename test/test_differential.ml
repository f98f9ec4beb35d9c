(* Property-based differential suite: seeded random graphs compiled
   end-to-end (verifier on), run encrypted at 1 and 4 domains, and held
   to three properties per graph:

   1. the decoded output matches the cleartext NN reference within the
      case's predicted tolerance (approximation budget + the flight
      recorder's observed noise ceiling);
   2. the noise budget never runs dry mid-inference;
   3. both pool widths produce bit-identical output ciphertexts (the
      pool width is a performance knob, never semantics).

   The quick tier (8 seeds) runs on every `dune runtest` and in CI; the
   remaining 17 seeds of the 25-graph suite run when ACE_DIFF_FULL=1 is
   set, keeping the default suite fast without shrinking the property.
   Besides seeds 0-4 the quick tier holds three graphs that bootstrap
   placement has broken before: seed 13, whose sign-polynomial partial
   sums overflow the bottom prime when a product inside a polynomial
   lands on level 0, and seeds 6 and 20, whose first ReLU sees inputs
   outside the sign approximation's [-1, 1] (1.87 and 1.05): their SIHE
   reference is NaN, so only the loose bound applies, and it holds only
   while that ReLU runs from the level its input arrives at. *)

module Differential = Ace_testkit.Differential
module Graph_gen = Ace_testkit.Graph_gen
module Pipeline = Ace_driver.Pipeline
module Verifier = Ace_verify.Verifier

let quick_seeds = [ 0; 1; 2; 3; 4; 6; 13; 20 ]
let full_seeds = List.filter (fun s -> not (List.mem s quick_seeds)) (List.init 20 (fun i -> 5 + i))

let full_tier_on () =
  match Sys.getenv_opt "ACE_DIFF_FULL" with
  | Some s -> (
    match String.lowercase_ascii (String.trim s) with
    | "" | "0" | "off" | "false" | "no" -> false
    | _ -> true)
  | None -> false

let domain_widths = [ 1; 4 ]

let run_seed seed () =
  (* The verifier is part of the property: a graph that compiles with
     diagnostics is a failure even if the numbers come out right. *)
  Verifier.set_enabled true;
  let case = Differential.prepare ~seed () in
  let outcomes =
    List.map (fun domains -> Differential.run_case ~domains case) domain_widths
  in
  List.iter
    (fun (o : Differential.outcome) ->
      match Differential.check case o with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg)
    outcomes;
  match outcomes with
  | baseline :: rest ->
    List.iter
      (fun (o : Differential.outcome) ->
        if not (Differential.ct_equal baseline.Differential.ct_out o.Differential.ct_out)
        then
          Alcotest.failf "seed %d: %s diverges bit-wise from %s" seed
            (Differential.describe o)
            (Differential.describe baseline))
      rest
  | [] -> assert false

(* Lazy-relinearisation tier: accumulation-tree graphs (wide Adds over
   ct*ct Mul products) compiled twice — lazy passes on (the ace default)
   and off — and run at both pool widths. Within each lazy setting both
   widths must be bit-identical and inside the noise
   bounds; across the settings only the op counts are compared (merging
   rescales reassociates RNS roundings, so bit-equality across settings
   is not a property), and on these graphs the lazy compile must
   actually eliminate relinearisations. *)
let run_lazy_seed seed () =
  Verifier.set_enabled true;
  let cfg = Graph_gen.accumulation in
  let eager_strategy =
    { Pipeline.ace with Pipeline.strategy_name = "ace-eager"; lazy_passes = false }
  in
  let check_setting label case =
    let outcomes =
      List.map (fun domains -> Differential.run_case ~domains case) domain_widths
    in
    List.iter
      (fun (o : Differential.outcome) ->
        match Differential.check case o with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "%s setting: %s" label msg)
      outcomes;
    match outcomes with
    | baseline :: rest ->
      List.iter
        (fun (o : Differential.outcome) ->
          if not (Differential.ct_equal baseline.Differential.ct_out o.Differential.ct_out)
          then
            Alcotest.failf "seed %d (%s setting): %s diverges bit-wise from %s" seed label
              (Differential.describe o)
              (Differential.describe baseline))
        rest
    | [] -> assert false
  in
  let lazy_case = Differential.prepare ~cfg ~seed () in
  let eager_case = Differential.prepare ~cfg ~strategy:eager_strategy ~seed () in
  check_setting "lazy" lazy_case;
  check_setting "eager" eager_case;
  let stats (c : Differential.case) = c.Differential.compiled.Pipeline.lazy_stats in
  let on = stats lazy_case and off = stats eager_case in
  let open Ace_ckks_ir.Ckks_lazy in
  Alcotest.(check int)
    "eager compile keeps every relin" off.relins_eager off.relins_lazy;
  Alcotest.(check int)
    "both compiles start from the same eager schedule" off.relins_eager on.relins_eager;
  Alcotest.(check bool)
    (Printf.sprintf "lazy compile drops relins (%d -> %d)" on.relins_eager on.relins_lazy)
    true
    (on.relins_lazy < on.relins_eager);
  Alcotest.(check bool)
    (Printf.sprintf "lazy compile does not add rescales (%d -> %d)" on.rescales_eager
       on.rescales_lazy)
    true
    (on.rescales_lazy <= on.rescales_eager)

let graph_generator_deterministic () =
  let a = Graph_gen.generate ~seed:11 () and b = Graph_gen.generate ~seed:11 () in
  Alcotest.(check bool) "same graph" true (a = b);
  let c = Graph_gen.generate ~seed:12 () in
  Alcotest.(check bool) "different seeds differ" true (a <> c)

let graphs_cover_shapes () =
  (* The generator must actually reach the interesting lowering paths
     across a seed range: activations, residual Adds, and conv stems. *)
  let seeds = List.init 25 (fun i -> i) in
  let graphs = List.map (fun s -> Graph_gen.generate ~seed:s ()) seeds in
  let count p = List.length (List.filter p graphs) in
  let has_op op (g : Ace_onnx.Model.graph) =
    List.exists (fun (n : Ace_onnx.Model.node) -> n.Ace_onnx.Model.n_op = op) g.Ace_onnx.Model.g_nodes
  in
  Alcotest.(check bool) "some graph has an activation" true
    (count (fun g -> Graph_gen.nonlinear_count g > 0) > 0);
  Alcotest.(check bool) "some graph has a residual Add" true (count (has_op "Add") > 0);
  Alcotest.(check bool) "some graph has a conv stem" true (count (has_op "Conv") > 0);
  Alcotest.(check bool) "some graph is purely linear" true
    (count (fun g -> Graph_gen.nonlinear_count g = 0) > 0)

(* Batch tier: the same graph compiled with ~batch:k, k independent
   random inputs in ONE ciphertext, per-request outputs against unbatched
   encrypted runs — at 1 and 4 domains and with the lazy passes both on
   and off. Batched runs of one compile must also stay bit-identical
   across pool widths. *)
let run_batch_seed seed () =
  Verifier.set_enabled true;
  let batch = 4 in
  let eager_strategy =
    { Pipeline.ace with Pipeline.strategy_name = "ace-eager"; lazy_passes = false }
  in
  let check_setting label bc =
    let outcomes =
      List.map (fun domains -> Differential.run_batch_case ~domains bc) domain_widths
    in
    List.iter
      (fun (o : Differential.batch_outcome) ->
        match Differential.check_batch bc o with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "%s setting: %s" label msg)
      outcomes;
    match outcomes with
    | baseline :: rest ->
      List.iter
        (fun (o : Differential.batch_outcome) ->
          if
            not
              (Differential.ct_equal baseline.Differential.b_ct_out
                 o.Differential.b_ct_out)
          then
            Alcotest.failf "seed %d (%s setting): batched x%d diverges bit-wise" seed label
              o.Differential.b_domains)
        rest
    | [] -> assert false
  in
  check_setting "lazy" (Differential.prepare_batch ~seed ~batch ());
  check_setting "eager" (Differential.prepare_batch ~strategy:eager_strategy ~seed ~batch ())

let seed_case seed =
  Alcotest.test_case
    (Printf.sprintf "seed %d: err bound + bit-identity (seq at 1/4 domains)" seed)
    `Slow (run_seed seed)

let () =
  let tiers =
    [
      ( "generator",
        [
          Alcotest.test_case "deterministic in the seed" `Quick graph_generator_deterministic;
          Alcotest.test_case "shape coverage over 25 seeds" `Quick graphs_cover_shapes;
        ] );
      ("quick-tier", List.map seed_case quick_seeds);
      ( "batch-tier",
        List.map
          (fun seed ->
            Alcotest.test_case
              (Printf.sprintf
                 "seed %d: 4-batched vs unbatched per-request (1/4 domains, lazy on/off)"
                 seed)
              `Slow (run_batch_seed seed))
          [ 200; 201 ] );
      ( "lazy-tier",
        List.map
          (fun seed ->
            Alcotest.test_case
              (Printf.sprintf
                 "seed %d: accumulation trees, lazy on/off (bit-identity within setting)"
                 seed)
              `Slow (run_lazy_seed seed))
          [ 100; 101 ] );
    ]
    @ if full_tier_on () then [ ("full-tier", List.map seed_case full_seeds) ] else []
  in
  Alcotest.run "differential" tiers
