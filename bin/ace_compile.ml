(* ace-compile: command-line front door of the compiler (paper Figure 3).

     ace_compile MODEL.onnxt [-o out.c] [--weights out_weights.c]
                 [--strategy ace|expert|library] [--print-ir LEVEL]
                 [--stats] [--run N]

   Reads a textual ONNX-subset model, compiles it through the five IR
   levels, and writes the generated C (weights externalised, as in the
   paper's Section 3.4). [--print-ir] dumps one level's listing instead;
   [--run N] additionally executes N encrypted inferences on random inputs
   through the VM backend and reports the error against the cleartext
   reference. *)

module Pipeline = Ace_driver.Pipeline
module Stats = Ace_driver.Stats
open Cmdliner

let strategy_of_string = function
  | "ace" -> Ok Pipeline.ace
  | "expert" -> Ok Pipeline.expert
  | "library" -> Ok Pipeline.library_default
  | s -> Error (`Msg (Printf.sprintf "unknown strategy %S (ace | expert | library)" s))

let strategy_conv =
  Arg.conv ((fun s -> strategy_of_string s), fun fmt s -> Format.pp_print_string fmt s.Pipeline.strategy_name)

let level_conv =
  let parse = function
    | "nn" -> Ok `Nn
    | "vector" -> Ok `Vector
    | "sihe" -> Ok `Sihe
    | "ckks" -> Ok `Ckks
    | "poly" -> Ok `Poly
    | s -> Error (`Msg (Printf.sprintf "unknown level %S" s))
  in
  Arg.conv (parse, fun fmt _ -> Format.pp_print_string fmt "<level>")

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let run_main model output weights strategy print_ir stats run_n =
  let graph = Ace_onnx.Parser.parse_file model in
  let nn = Ace_nn.Import.import graph in
  let compiled = Pipeline.compile strategy nn in
  (match print_ir with
  | Some `Nn -> print_endline (Ace_ir.Printer.to_string compiled.Pipeline.nn)
  | Some `Vector -> print_endline (Ace_ir.Printer.to_string compiled.Pipeline.vec)
  | Some `Sihe -> print_endline (Ace_ir.Printer.to_string compiled.Pipeline.sihe)
  | Some `Ckks -> print_endline (Ace_ir.Printer.to_string compiled.Pipeline.ckks)
  | Some `Poly -> print_endline (Ace_poly_ir.Poly_ir.to_string (fst (Pipeline.emit_c compiled)))
  | None ->
    write_file output (snd (Pipeline.emit_c compiled));
    write_file weights (Ace_codegen.C_backend.emit_weights_file compiled.Pipeline.ckks);
    Printf.printf "wrote %s and %s\n" output weights);
  if stats then Format.printf "%a@." Stats.pp (Stats.of_compiled compiled);
  if run_n > 0 then begin
    let keys = Pipeline.make_keys compiled ~seed:1 in
    let rng = Ace_util.Rng.create 2 in
    let dims = Ace_ir.Types.tensor_elems (snd (Ace_ir.Irfunc.params nn).(0)) in
    for i = 1 to run_n do
      let x = Array.init dims (fun _ -> Ace_util.Rng.float rng 1.0 -. 0.5) in
      let expect = Ace_nn.Nn_interp.run1 nn x in
      let got = Pipeline.infer_encrypted compiled keys ~seed:(10 + i) x in
      let err = ref 0.0 in
      Array.iteri (fun j v -> err := max !err (abs_float (v -. expect.(j)))) got;
      Printf.printf "run %d: max |encrypted - cleartext| = %.6f\n%!" i !err
    done
  end;
  Ok ()

let cmd =
  let model =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"MODEL" ~doc:"Textual ONNX-subset model file.")
  in
  let output =
    Arg.(value & opt string "ace_out.c" & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Generated C file.")
  in
  let weights =
    Arg.(value & opt string "ace_out_weights.c" & info [ "weights" ] ~docv:"FILE" ~doc:"External weight table.")
  in
  let strategy =
    Arg.(value & opt strategy_conv Pipeline.ace & info [ "strategy" ] ~docv:"S" ~doc:"ace | expert | library.")
  in
  let print_ir =
    Arg.(value & opt (some level_conv) None & info [ "print-ir" ] ~docv:"LEVEL" ~doc:"Dump nn|vector|sihe|ckks|poly instead of emitting C.")
  in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print compile statistics.") in
  let run_n =
    Arg.(value & opt int 0 & info [ "run" ] ~docv:"N" ~doc:"Execute N encrypted inferences and report error.")
  in
  let term = Term.(term_result (const run_main $ model $ output $ weights $ strategy $ print_ir $ stats $ run_n)) in
  Cmd.v (Cmd.info "ace_compile" ~doc:"ANT-ACE reproduction: compile ONNX-subset models for encrypted inference") term

let () = exit (Cmd.eval cmd)
