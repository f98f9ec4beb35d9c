(* The paper's Section 4 walk-through: the gemv model of Figure 4 shown at
   every abstraction level, mirroring Listings 1-4, plus the generated C.

   Run with: dune exec examples/linear_infer.exe *)

module Pipeline = Ace_driver.Pipeline
module Parser = Ace_onnx.Parser
module Import = Ace_nn.Import
module Printer = Ace_ir.Printer
module Poly_ir = Ace_poly_ir.Poly_ir

let model_text =
  {|
model "linear_infer" {
  input image : f32[84,1]
  init fc.weight : f32[10,84] = normal(seed=7, std=0.1)
  init fc.bias : f32[10,1] = normal(seed=8, std=0.05)
  node output = Gemm(image, fc.weight, fc.bias)
  output output : f32[10,1]
}
|}

let banner title = Printf.printf "\n===== %s =====\n" title

let truncate_listing s ~keep =
  let lines = String.split_on_char '\n' s in
  let n = List.length lines in
  if n <= keep then s
  else
    String.concat "\n" (List.filteri (fun i _ -> i < keep) lines)
    ^ Printf.sprintf "\n  ... (%d more lines)" (n - keep)

let () =
  let nn = Import.import (Parser.parse model_text) in
  let c = Pipeline.compile Pipeline.ace nn in
  let poly, c_source = Pipeline.emit_c c in

  banner "NN IR (Listing 1)";
  print_endline (Printer.to_string c.Pipeline.nn);

  banner "VECTOR IR (Listing 2)";
  print_endline (truncate_listing (Printer.to_string c.Pipeline.vec) ~keep:30);

  banner "SIHE IR (Listing 3)";
  print_endline (truncate_listing (Printer.to_string c.Pipeline.sihe) ~keep:30);

  banner "CKKS IR (Listing 4, with scale/level annotations)";
  print_endline (truncate_listing (Printer.to_string c.Pipeline.ckks) ~keep:30);

  banner "POLY IR (Section 4.5)";
  print_endline (truncate_listing (Poly_ir.to_string poly) ~keep:30);

  banner "Generated C (Section 3.4)";
  print_endline (truncate_listing c_source ~keep:30);

  banner "Size comparison (the paper: 331 POLY-IR lines -> 68 C lines)";
  Printf.printf "NN %d | VECTOR %d | SIHE %d | CKKS %d lines\n"
    (Printer.line_count c.Pipeline.nn) (Printer.line_count c.Pipeline.vec)
    (Printer.line_count c.Pipeline.sihe) (Printer.line_count c.Pipeline.ckks);
  Printf.printf "POLY %d statements -> %d C lines (weights external)\n"
    (Poly_ir.stmt_count poly)
    (Ace_codegen.C_backend.line_count c_source)
