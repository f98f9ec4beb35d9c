(* C-backend golden snapshot: recompile examples/linear_infer.onnxt and
   hold the generated C (and the externalised weight table) byte-for-byte
   to the checked-in files under examples/generated/. Codegen drift —
   renamed temporaries, reordered statements, a changed runtime call —
   shows up here as a unified first-difference, not as a mystery in some
   downstream consumer.

   Intentional changes: regenerate with
     dune exec tools/gen_golden.exe -- examples/linear_infer.onnxt examples/generated
   and review the diff like any other source change. *)

module Pipeline = Ace_driver.Pipeline

(* Under `dune runtest` the cwd is _build/default/test with the example
   files staged one level up; under `dune exec` from the repo root they
   sit right here. *)
let examples =
  if Sys.file_exists "../examples/linear_infer.onnxt" then "../examples" else "examples"

let model = Filename.concat examples "linear_infer.onnxt"
let golden_dir = Filename.concat examples "generated"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let first_diff a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  let i = go 0 in
  let line = 1 + String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 0 (String.sub a 0 (min i (String.length a))) in
  let excerpt s =
    let stop = min (String.length s) (i + 60) in
    if i >= String.length s then "<end of file>" else String.escaped (String.sub s i (stop - i))
  in
  Printf.sprintf "first difference at byte %d (line %d):\n  golden:  %s\n  current: %s" i line
    (excerpt a) (excerpt b)

let compiled =
  lazy
    (let nn = Ace_nn.Import.import (Ace_onnx.Parser.parse_file model) in
     Pipeline.compile Pipeline.ace nn)

let check_snapshot ~golden ~current () =
  let want = read_file (Filename.concat golden_dir golden) in
  let got = current () in
  if String.length want = 0 then Alcotest.failf "%s: golden file is empty" golden;
  if not (String.equal want got) then
    Alcotest.failf
      "%s drifted from its golden snapshot (%d -> %d bytes).\n%s\n\nIf the change is intentional: dune exec tools/gen_golden.exe -- examples/linear_infer.onnxt examples/generated"
      golden (String.length want) (String.length got) (first_diff want got)

let c_source_stable () =
  check_snapshot ~golden:"linear_infer.c"
    ~current:(fun () -> snd (Pipeline.emit_c (Lazy.force compiled)))
    ()

let weights_stable () =
  check_snapshot ~golden:"linear_infer_weights.c"
    ~current:(fun () ->
      Ace_codegen.C_backend.emit_weights_file (Lazy.force compiled).Pipeline.ckks)
    ()

let emission_deterministic () =
  let nn = Ace_nn.Import.import (Ace_onnx.Parser.parse_file model) in
  let again = Pipeline.compile Pipeline.ace nn in
  Alcotest.(check bool)
    "two compiles emit identical C" true
    (String.equal (snd (Pipeline.emit_c (Lazy.force compiled))) (snd (Pipeline.emit_c again)))

let () =
  Alcotest.run "golden-c"
    [
      ( "snapshots",
        [
          Alcotest.test_case "generated C matches examples/generated/linear_infer.c" `Quick
            c_source_stable;
          Alcotest.test_case "weight table matches golden" `Quick weights_stable;
          Alcotest.test_case "emission is deterministic" `Quick emission_deterministic;
        ] );
    ]
