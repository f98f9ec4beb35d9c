(* ace-client: smoke/verification client for the ace-serve daemon.

     ace_client --socket /tmp/ace.sock --model demo \
                [--tenant t0] [--requests N] [--seed S] [--verify]

   Prepares a session (describe, keygen, key upload), submits N
   encrypted inference requests and decrypts the replies, matched to
   their requests by id. --verify checks every decrypted output against
   the cleartext interpreter and exits non-zero on disagreement beyond
   the usual CKKS tolerance. *)

module Client = Ace_serve.Client
module Model_spec = Ace_serve.Model_spec
open Cmdliner

let run_client socket model tenant requests seed verify spec_str =
  let t = Client.connect socket in
  let finish r =
    Client.close t;
    r
  in
  match Client.prepare t ~tenant ~model ~key_seed:seed ~oracle_seed:(seed + 1) with
  | Error msg -> finish (`Error (false, "prepare: " ^ msg))
  | Ok sess -> (
    let n_in =
      let l = sess.Client.info.Ace_serve.Wire.mi_input_layout in
      l.Ace_vector.Layout.channels * l.height * l.width
    in
    let rng = Ace_util.Rng.create (seed + 2) in
    let images =
      Array.init requests (fun _ ->
          Array.init n_in (fun _ -> (Ace_util.Rng.float rng 2.0) -. 1.0))
    in
    (* Pipeline all requests, then collect the replies, matching each to
       its request by id (the server may answer out of order). *)
    let index = Hashtbl.create requests in
    Array.iteri
      (fun i image ->
        let request_id = Printf.sprintf "%s-%d" tenant i in
        Hashtbl.replace index request_id i;
        Client.submit t sess ~request_id (Client.encrypt sess ~seed:(seed + 10 + i) image))
      images;
    let failures = ref 0 in
    let ok = ref 0 in
    (try
       for reply = 0 to requests - 1 do
         match Client.await_result t with
         | Error msg ->
           incr failures;
           Printf.eprintf "reply %d: %s\n%!" reply msg
         | Ok (rid, _) when not (Hashtbl.mem index rid) ->
           incr failures;
           Printf.eprintf "reply %d: unknown request id %S\n%!" reply rid
         | Ok (rid, blob) -> (
           let i = Hashtbl.find index rid in
           match Client.decrypt sess ~region:0 blob with
           | Error msg ->
             incr failures;
             Printf.eprintf "request %d: decrypt: %s\n%!" i msg
           | Ok out ->
             if verify then begin
               match Model_spec.parse spec_str with
               | Error msg ->
                 incr failures;
                 Printf.eprintf "bad --spec: %s\n%!" msg
               | Ok spec ->
                 let want = Model_spec.reference spec images.(i) in
                 let err =
                   Array.fold_left max 0.0
                     (Array.mapi (fun j w -> abs_float (w -. out.(j))) want)
                 in
                 if err > 1e-2 then begin
                   incr failures;
                   Printf.eprintf "request %d: max error %g\n%!" i err
                 end
                 else incr ok
             end
             else incr ok)
       done
     with e ->
       incr failures;
       Printf.eprintf "client error: %s\n%!" (Printexc.to_string e));
    Printf.printf "%d/%d requests ok%s\n%!" !ok requests
      (if verify then " (verified against cleartext)" else "");
    finish (if !failures = 0 then `Ok () else `Error (false, "some requests failed")))

let socket_t =
  Arg.(value & opt string "/tmp/ace-serve.sock" & info [ "socket" ] ~docv:"PATH")

let model_t = Arg.(value & opt string "demo" & info [ "model" ] ~docv:"NAME")
let tenant_t = Arg.(value & opt string "t0" & info [ "tenant" ] ~docv:"TENANT")
let requests_t = Arg.(value & opt int 1 & info [ "requests" ] ~docv:"N")
let seed_t = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S")
let verify_t = Arg.(value & flag & info [ "verify" ])

let spec_t =
  Arg.(value & opt string "" & info [ "spec" ] ~docv:"SPEC" ~doc:"model spec for --verify")

let cmd =
  let doc = "smoke client for ace_serve" in
  Cmd.v
    (Cmd.info "ace_client" ~doc)
    Term.(
      ret
        (const run_client $ socket_t $ model_t $ tenant_t $ requests_t $ seed_t $ verify_t
       $ spec_t))

let () = exit (Cmd.eval cmd)
