(* Regenerate the C-backend golden snapshots under examples/generated/.

     dune exec tools/gen_golden.exe -- examples/linear_infer.onnxt examples/generated

   Writes <model>.c and <model>_weights.c for the given model, compiled
   with the default ACE strategy — the exact bytes test/test_golden_c.ml
   pins. Run this (and review the diff) whenever an intentional codegen
   change shifts the output. *)

let () =
  match Sys.argv with
  | [| _; model_path; out_dir |] ->
    let graph = Ace_onnx.Parser.parse_file model_path in
    let nn = Ace_nn.Import.import graph in
    let compiled = Ace_driver.Pipeline.compile Ace_driver.Pipeline.ace nn in
    let base = Filename.remove_extension (Filename.basename model_path) in
    if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
    let write name contents =
      let path = Filename.concat out_dir name in
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      Printf.printf "wrote %s (%d bytes)\n" path (String.length contents)
    in
    write (base ^ ".c") (snd (Ace_driver.Pipeline.emit_c compiled));
    write
      (base ^ "_weights.c")
      (Ace_codegen.C_backend.emit_weights_file compiled.Ace_driver.Pipeline.ckks)
  | _ ->
    prerr_endline "usage: gen_golden MODEL.onnxt OUT_DIR";
    exit 2
