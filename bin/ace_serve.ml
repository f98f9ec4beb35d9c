(* ace-serve: the persistent encrypted-inference daemon.

     ace_serve --socket /tmp/ace.sock --model demo=gemv:32:8 \
               [--cache-dir DIR] [--strategy ace|expert|library] \
               [--batch N] [--complex] [--max-queue N] [--max-units F]

   Serves every --model over a Unix domain socket using the Ace_serve
   wire protocol. Models compile at startup unless --cache-dir holds a
   matching compiled-schedule artifact, in which case startup skips the
   compiler entirely. SIGTERM/SIGINT drain: queued work finishes, new
   work is refused with a typed reply, then the process exits. Telemetry
   rides the usual knobs (ACE_TRACE, ACE_METRICS_*, ACE_DOMAINS...). *)

module Pipeline = Ace_driver.Pipeline
module Server = Ace_serve.Server
module Model_spec = Ace_serve.Model_spec
open Cmdliner

let strategy_of_string = function
  | "ace" -> Ok Pipeline.ace
  | "expert" -> Ok Pipeline.expert
  | "library" -> Ok Pipeline.library_default
  | s -> Error (`Msg (Printf.sprintf "unknown strategy %S (ace | expert | library)" s))

let strategy_conv =
  Arg.conv
    ( (fun s -> strategy_of_string s),
      fun fmt s -> Format.pp_print_string fmt s.Pipeline.strategy_name )

let model_conv =
  let parse s =
    match String.index_opt s '=' with
    | None -> Error (`Msg (Printf.sprintf "bad model %S (want NAME=SPEC)" s))
    | Some i -> (
      let name = String.sub s 0 i in
      let spec = String.sub s (i + 1) (String.length s - i - 1) in
      if name = "" then Error (`Msg "empty model name")
      else
        match Model_spec.parse spec with
        | Ok m -> Ok (name, m)
        | Error msg -> Error (`Msg msg))
  in
  Arg.conv (parse, fun fmt (n, m) -> Format.fprintf fmt "%s=%s" n (Model_spec.to_string m))

let serve socket models cache_dir strategy batch complex max_queue max_units =
  if models = [] then `Error (false, "at least one --model NAME=SPEC is required")
  else begin
    let cfg =
      {
        Server.default_config with
        socket_path = socket;
        models;
        cache_dir;
        strategy;
        batch;
        complex;
        max_queue;
        max_units;
      }
    in
    let server = Server.create cfg in
    let drain _ = Server.request_drain server in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle drain);
    Sys.set_signal Sys.sigint (Sys.Signal_handle drain);
    Printf.eprintf "[ace-serve] listening on %s (%d model%s)\n%!" socket (List.length models)
      (if List.length models = 1 then "" else "s");
    Server.run server;
    Printf.eprintf "[ace-serve] drained, exiting\n%!";
    `Ok ()
  end

let socket_t =
  Arg.(value & opt string "/tmp/ace-serve.sock" & info [ "socket" ] ~docv:"PATH")

let models_t = Arg.(value & opt_all model_conv [] & info [ "model" ] ~docv:"NAME=SPEC")
let cache_t = Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR")
let strategy_t = Arg.(value & opt strategy_conv Pipeline.ace & info [ "strategy" ])
let batch_t = Arg.(value & opt int 1 & info [ "batch" ] ~docv:"N")
let complex_t = Arg.(value & flag & info [ "complex" ])
let max_queue_t = Arg.(value & opt int 64 & info [ "max-queue" ] ~docv:"N")
let max_units_t =
  Arg.(
    value & opt float 1e12
    & info [ "max-units" ] ~docv:"F"
        ~doc:"Admission cap on the predicted work of the queued requests, in nanoseconds.")

let cmd =
  let doc = "persistent encrypted-inference daemon" in
  Cmd.v
    (Cmd.info "ace_serve" ~doc)
    Term.(
      ret
        (const serve $ socket_t $ models_t $ cache_t $ strategy_t $ batch_t $ complex_t
       $ max_queue_t $ max_units_t))

let () = exit (Cmd.eval cmd)
