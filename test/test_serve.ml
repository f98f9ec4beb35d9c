(* End-to-end daemon tests: an in-process ace-serve instance (own domain,
   real Unix socket) exercised by real protocol clients.

   Covered here: multi-tenant concurrent serving with per-tenant output
   agreement against Pipeline.infer_encrypted, queue-overflow
   backpressure (typed Overloaded, never a hang), a client killed
   mid-request leaving the daemon serving, seeded fault injection
   (byte-flip and truncation proxies) yielding typed protocol errors
   with the session intact, request coalescing onto the batch axis, and
   the warm-restart artifact cache (second startup compiles nothing and
   serves bit-identical outputs). *)
module Pipeline = Ace_driver.Pipeline
module Server = Ace_serve.Server
module Client = Ace_serve.Client
module Wire = Ace_serve.Wire
module Model_spec = Ace_serve.Model_spec
module Telemetry = Ace_telemetry.Telemetry
module Rng = Ace_util.Rng

let parse_spec str = match Model_spec.parse str with Ok s -> s | Error e -> failwith e
let spec_str = "gemv:16:4"
let spec = parse_spec spec_str

(* A model whose execution spans many 5 ms slices (~0.2 s, ~1000 nodes),
   served beside the light one. *)
let big_spec = parse_spec "gemv:128:128"
let two_models = [ ("demo", spec); ("big", big_spec) ]

let next_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "/tmp/ace-serve-test-%d-%d.sock" (Unix.getpid ()) !n

(* Start a server in its own domain; returns the socket path and a stop
   function that drains it and joins the domain. *)
let with_server ?(batch = 1) ?(max_queue = 64) ?cache_dir ?(models = [ ("demo", spec) ]) f =
  let socket_path = next_socket () in
  let cfg =
    {
      Server.default_config with
      socket_path;
      models;
      batch;
      max_queue;
      cache_dir;
      max_units = 1e12;
    }
  in
  let server = Server.create cfg in
  let d = Domain.spawn (fun () -> Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Server.request_drain server;
      Domain.join d;
      if Sys.file_exists socket_path then Sys.remove socket_path)
    (fun () -> f socket_path)

let prepare_tenant ?(model = "demo") socket tenant ~key_seed =
  let t = Client.connect socket in
  match Client.prepare t ~tenant ~model ~key_seed ~oracle_seed:(key_seed + 1) with
  | Ok sess -> (t, sess)
  | Error e -> failwith ("prepare: " ^ e)

let random_image ?(elems = 16) seed =
  let rng = Rng.create seed in
  Array.init elems (fun _ -> Rng.float rng 1.0 -. 0.5)

(* What a local Pipeline run with the same key and input seeds decrypts
   to: a served result must equal it bit for bit. *)
let local_output spec ~key_seed ~seed image =
  let c = Pipeline.compile ~batch:1 ~complex:false Pipeline.ace (Model_spec.nn spec) in
  let keys = Pipeline.make_keys c ~seed:key_seed in
  Pipeline.decrypt_output c keys
    (Pipeline.run_encrypted c keys ~seed:0 (Pipeline.encrypt_input c keys ~seed image))

let decrypt_exn sess blob =
  match Client.decrypt sess ~region:0 blob with Ok o -> o | Error e -> Alcotest.fail e

let infer_frame (sess : Client.session) ~request_id ct =
  Wire.encode_request
    (Wire.Infer
       {
         tenant = sess.Client.tenant;
         model = sess.Client.model;
         request_id;
         region = 0;
         coalesce = false;
         ct;
       })

let raw_connect socket =
  let raw = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect raw (Unix.ADDR_UNIX socket);
  raw

let read_result raw =
  match Wire.read_response raw with
  | Ok (Wire.Result { request_id; ct }) -> (request_id, ct)
  | Ok _ -> Alcotest.fail "expected a Result"
  | Error (_, e) -> Alcotest.fail e

(* --- hello / describe --- *)

let test_hello_describe () =
  with_server (fun socket ->
      let t = Client.connect socket in
      (match Client.hello t with
      | Ok models -> Alcotest.(check (list string)) "models" [ "demo" ] models
      | Error e -> Alcotest.fail e);
      (match Client.describe t "demo" with
      | Ok mi ->
        Alcotest.(check string) "name" "demo" mi.Wire.mi_name;
        Alcotest.(check bool) "has rotation steps" true (mi.mi_rotation_steps <> []);
        Alcotest.(check bool) "predicted units positive" true (mi.mi_predicted_units > 0.0)
      | Error e -> Alcotest.fail e);
      (match Client.describe t "nope" with
      | Error msg ->
        Alcotest.(check bool) "typed unknown_model" true
          (String.length msg >= 13 && String.sub msg 0 13 = "unknown_model")
      | Ok _ -> Alcotest.fail "unknown model described");
      Client.close t)

(* --- concurrent multi-tenant serving with output agreement --- *)

let test_two_tenants_four_in_flight () =
  with_server (fun socket ->
      (* The local ground truth: an identical compile + the same seeds. *)
      let c = Pipeline.compile ~batch:1 ~complex:false Pipeline.ace (Model_spec.nn spec) in
      let tenants = [ ("alice", 100); ("bob", 200) ] in
      let sessions = List.map (fun (name, seed) -> prepare_tenant socket name ~key_seed:seed) tenants in
      (* 4 in-flight requests per tenant: pipeline all submissions before
         reading any reply. *)
      let images = Array.init 4 (fun i -> random_image (500 + i)) in
      List.iteri
        (fun ti (t, sess) ->
          Array.iteri
            (fun i image ->
              Client.submit t sess
                ~request_id:(Printf.sprintf "t%d-r%d" ti i)
                (Client.encrypt sess ~seed:(1000 + (ti * 10) + i) image))
            images)
        sessions;
      List.iteri
        (fun ti (t, sess) ->
          let _, key_seed = List.nth tenants ti in
          let keys = Pipeline.make_keys c ~seed:key_seed in
          for i = 0 to 3 do
            match Client.await_result t with
            | Error e -> Alcotest.failf "tenant %d request %d: %s" ti i e
            | Ok (rid, blob) ->
              Alcotest.(check string) "replies in order" (Printf.sprintf "t%d-r%d" ti i) rid;
              (match Client.decrypt sess ~region:0 blob with
              | Error e -> Alcotest.fail e
              | Ok out ->
                (* Same keys (same seed), same input seeds: the served
                   result must agree bit-for-bit with local inference. *)
                let local =
                  Pipeline.decrypt_output c keys
                    (Pipeline.run_encrypted c keys ~seed:0
                       (Pipeline.encrypt_input c keys ~seed:(1000 + (ti * 10) + i)
                          images.(i)))
                in
                Alcotest.(check bool)
                  (Printf.sprintf "tenant %d request %d bit-identical to local" ti i)
                  true (out = local))
          done)
        sessions;
      List.iter (fun (t, _) -> Client.close t) sessions)

(* --- queue overflow: typed Overloaded, not a hang --- *)

let test_overflow_returns_overloaded () =
  with_server ~max_queue:2 (fun socket ->
      let t, sess = prepare_tenant socket "alice" ~key_seed:1 in
      let image = random_image 3 in
      let n = 8 in
      for i = 0 to n - 1 do
        Client.submit t sess
          ~request_id:(Printf.sprintf "r%d" i)
          (Client.encrypt sess ~seed:(50 + i) image)
      done;
      let results = ref 0 and overloaded = ref 0 in
      for _ = 1 to n do
        match Client.await t with
        | Ok (Wire.Result _) -> incr results
        | Ok (Wire.Overloaded { queue_depth; _ }) ->
          Alcotest.(check bool) "depth at cap" true (queue_depth >= 2);
          incr overloaded
        | Ok _ -> Alcotest.fail "unexpected reply"
        | Error e -> Alcotest.fail e
      done;
      Alcotest.(check int) "every request answered" n (!results + !overloaded);
      Alcotest.(check bool) "some requests served" true (!results > 0);
      Alcotest.(check bool) "burst past the cap rejected" true (!overloaded > 0);
      Client.close t)

(* --- a client dying mid-request must not hurt the daemon --- *)

let metric_count name =
  match Telemetry.find_stats (Telemetry.snapshot ()) name with
  | Some s -> s.Telemetry.st_count
  | None -> 0

let cancelled () = Telemetry.count_of (Telemetry.metric "serve.cancelled")

let served t = match Client.get_stats t with Ok s -> s.Wire.sv_served | Error e -> failwith e

let test_kill_mid_request_daemon_survives () =
  with_server ~models:two_models (fun socket ->
      let t1, sess1 = prepare_tenant socket "alice" ~key_seed:1 in
      let image = random_image 4 in
      (* Submit and slam the socket shut without reading the reply. *)
      Client.submit t1 sess1 ~request_id:"doomed" (Client.encrypt sess1 ~seed:9 image);
      Client.close t1;
      (* The daemon must still serve other clients afterwards — and the
         dead tenant's session must still exist for a reconnect. *)
      let t2, sess2 = prepare_tenant socket "bob" ~key_seed:2 in
      Client.submit t2 sess2 ~request_id:"alive" (Client.encrypt sess2 ~seed:10 image);
      (match Client.await_result t2 with
      | Ok (rid, _) -> Alcotest.(check string) "served after kill" "alive" rid
      | Error e -> Alcotest.fail e);
      Client.close t2;
      (* Reconnect as the killed tenant WITHOUT re-uploading keys: the
         session survived. *)
      let t3 = Client.connect socket in
      (match Client.describe t3 "demo" with
      | Error e -> Alcotest.fail e
      | Ok mi -> (
        let sess3 = { sess1 with Client.info = mi } in
        Client.submit t3 sess3 ~request_id:"back" (Client.encrypt sess3 ~seed:11 image);
        match Client.await_result t3 with
        | Ok (rid, _) -> Alcotest.(check string) "old session still usable" "back" rid
        | Error e -> Alcotest.fail e));
      (* A client killed while its multi-slice execution runs: the
         execution is dropped between slices, so the next same-cost
         request (which never preempts) does not wait for the rest. *)
      let big_image = random_image ~elems:128 5 in
      let tk, sk = prepare_tenant ~model:"big" socket "carol" ~key_seed:3 in
      let tn, sn = prepare_tenant ~model:"big" socket "dave" ~key_seed:4 in
      let doomed = Client.encrypt sk ~seed:12 big_image
      and next = Client.encrypt sn ~seed:13 big_image in
      let served0 = served t3 and cancelled0 = cancelled () in
      let started0 = metric_count "serve.queue_wait" in
      Client.submit tk sk ~request_id:"doomed-big" doomed;
      let deadline = Unix.gettimeofday () +. 30.0 in
      while metric_count "serve.queue_wait" = started0 && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.001
      done;
      Client.close tk;
      Client.submit tn sn ~request_id:"next-big" next;
      (match Client.await_result tn with
      | Ok (rid, _) -> Alcotest.(check string) "next client served" "next-big" rid
      | Error e -> Alcotest.fail e);
      Alcotest.(check int) "killed execution dropped" (cancelled0 + 1) (cancelled ());
      Alcotest.(check int) "only the next client's request completed" (served0 + 1) (served t3);
      Client.close tn;
      Client.close t3)

(* --- shortest remaining work first --- *)

(* A light request submitted after a multi-slice one, on another
   connection, is answered first: it starts as soon as it is strictly
   cheaper than the running execution's remainder and finishes within a
   slice or two. Both replies equal local Pipeline runs. *)
let test_light_overtakes_heavy () =
  with_server ~models:two_models (fun socket ->
      let th, sh = prepare_tenant ~model:"big" socket "heavy" ~key_seed:21 in
      let tl, sl = prepare_tenant socket "light" ~key_seed:22 in
      let big_image = random_image ~elems:128 23 and small_image = random_image 24 in
      let heavy = infer_frame sh ~request_id:"heavy" (Client.encrypt sh ~seed:25 big_image)
      and light = infer_frame sl ~request_id:"light" (Client.encrypt sl ~seed:26 small_image) in
      let rh = raw_connect socket and rl = raw_connect socket in
      Wire.write_all rh heavy;
      Wire.write_all rl light;
      let lid, lblob = read_result rl in
      let heavy_pending =
        match Unix.select [ rh ] [] [] 0.0 with [], _, _ -> true | _ -> false
      in
      let hid, hblob = read_result rh in
      Alcotest.(check string) "light id" "light" lid;
      Alcotest.(check string) "heavy id" "heavy" hid;
      Alcotest.(check bool) "light reply came while heavy was still running" true heavy_pending;
      Alcotest.(check bool) "light bit-identical to local" true
        (decrypt_exn sl lblob = local_output spec ~key_seed:22 ~seed:26 small_image);
      Alcotest.(check bool) "heavy bit-identical to local" true
        (decrypt_exn sh hblob = local_output big_spec ~key_seed:21 ~seed:25 big_image);
      List.iter Unix.close [ rh; rl ];
      Client.close th;
      Client.close tl)

(* Nanosecond prices: a light request (N = 2^5) admitted while a
   larger-ring execution is in its last 10% of predicted time is
   strictly cheaper than that remainder, so the pick rule starts it; it
   is answered before the heavy one finishes, and both outputs equal
   local runs. The old limb-count units priced gemv:16:4 (13 limbs)
   above the tail of a wide-ring run. *)
let test_light_first_in_heavy_tail () =
  let prepare spec ~key_seed =
    let c = Pipeline.compile ~batch:1 ~complex:false Pipeline.ace (Model_spec.nn spec) in
    let keys = Pipeline.make_keys c ~seed:key_seed in
    (c, keys, Pipeline.make_runtime c keys ~seed:0)
  in
  let hc, hkeys, hrt = prepare big_spec ~key_seed:31 and lc, lkeys, lrt = prepare spec ~key_seed:32 in
  let ring c = Ace_fhe.Context.ring_degree c.Pipeline.context in
  Alcotest.(check bool) "heavy ring is larger" true (ring hc > ring lc);
  let big_image = random_image ~elems:128 33 and small_image = random_image 34 in
  let heavy = Pipeline.start_rt hrt (Pipeline.encrypt_input hc hkeys ~seed:35 big_image) in
  let price = Pipeline.runtime_exec_ns hc in
  while Pipeline.remaining heavy > 0.1 *. price do
    Alcotest.(check bool) "heavy still running" true
      (Pipeline.step heavy ~until:(Unix.gettimeofday () +. 0.005) = None)
  done;
  let light_price = Pipeline.runtime_exec_ns lc in
  (match Server.pick ~queued:[ light_price ] ~running:[ Pipeline.remaining heavy ] with
  | Server.Start 0 -> ()
  | _ ->
    Alcotest.failf "light (%.0f ns) not started against a %.0f ns remainder" light_price
      (Pipeline.remaining heavy));
  let light = Pipeline.start_rt lrt (Pipeline.encrypt_input lc lkeys ~seed:36 small_image) in
  let run_to_end x = match Pipeline.step x ~until:infinity with Some ct -> ct | None -> assert false in
  let light_out = run_to_end light in
  Alcotest.(check bool) "heavy not finished when light answered" true (Pipeline.remaining heavy > 0.0);
  let heavy_out = run_to_end heavy in
  Alcotest.(check bool) "light bit-identical to local" true
    (Pipeline.decrypt_output lc lkeys light_out = local_output spec ~key_seed:32 ~seed:36 small_image);
  Alcotest.(check bool) "heavy bit-identical to local" true
    (Pipeline.decrypt_output hc hkeys heavy_out
    = local_output big_spec ~key_seed:31 ~seed:35 big_image)

(* The slice-pick rule. *)
let units = QCheck.(list_of_size Gen.(0 -- 6) (map float_of_int (int_range 1 5)))

let prop_pick_rule =
  QCheck.Test.make ~name:"pick: strictly cheaper queued preempts, ties keep running, FIFO"
    ~count:500 (QCheck.pair units units) (fun (queued, running) ->
      let min_of = List.fold_left Float.min infinity in
      let first_index x xs =
        let rec go i = function
          | [] -> -1
          | y :: ys -> if y = x then i else go (i + 1) ys
        in
        go 0 xs
      in
      match Server.pick ~queued ~running with
      | Server.Idle -> queued = [] && running = []
      | Server.Start i ->
        queued <> []
        && min_of queued < min_of running
        && i = first_index (min_of queued) queued
      | Server.Slice j ->
        running <> []
        && (queued = [] || min_of queued >= min_of running)
        && j = first_index (min_of running) running)

(* --- fault injection: corruption yields typed errors, session survives --- *)

let corrupt ~seed blob =
  let b = Bytes.of_string blob in
  let rng = Rng.create seed in
  for _ = 1 to 3 do
    let pos = Rng.int rng (Bytes.length b) in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 + Rng.int rng 254)))
  done;
  Bytes.to_string b

let test_fault_injection_typed_errors () =
  with_server (fun socket ->
      let t, sess = prepare_tenant socket "alice" ~key_seed:1 in
      let image = random_image 5 in
      let good () = Client.encrypt sess ~seed:77 image in
      (* Payload corruption (intact frame, seeded byte flips inside the
         ciphertext blob): typed error on the SAME connection, which
         stays usable. *)
      for seed = 1 to 5 do
        Client.submit t sess ~request_id:"bad" (corrupt ~seed (good ()));
        match Client.await t with
        | Ok (Wire.Err { code = Wire.Bad_payload; _ }) -> ()
        | Ok (Wire.Result _) ->
          (* A flip that lands in padding bits can survive validation;
             the contract is only: typed reply, no crash, no hang. *)
          ()
        | Ok _ -> Alcotest.failf "seed %d: unexpected reply type" seed
        | Error e -> Alcotest.failf "seed %d: connection died: %s" seed e
      done;
      (* The same connection and session still serve. *)
      Client.submit t sess ~request_id:"after-corruption" (good ());
      (match Client.await_result t with
      | Ok (rid, _) -> Alcotest.(check string) "session survived corruption" "after-corruption" rid
      | Error e -> Alcotest.fail e);
      (* Truncation proxy: a partial frame followed by a dead socket. The
         connection is gone, but a fresh connection reuses the session
         (keys are resident server-side). *)
      let raw = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect raw (Unix.ADDR_UNIX socket);
      let req =
        Wire.encode_request
          (Wire.Infer
             {
               tenant = "alice";
               model = "demo";
               request_id = "cut";
               region = 0;
               coalesce = false;
               ct = good ();
             })
      in
      let cut_len = String.length req / 3 in
      Wire.write_all raw (String.sub req 0 cut_len);
      Unix.close raw;
      Client.submit t sess ~request_id:"after-truncation" (good ());
      (match Client.await_result t with
      | Ok (rid, _) -> Alcotest.(check string) "session survived truncation" "after-truncation" rid
      | Error e -> Alcotest.fail e);
      (* Header corruption: bad magic gets a typed reply, then the server
         closes that byte stream (resync is impossible). *)
      let raw2 = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect raw2 (Unix.ADDR_UNIX socket);
      Wire.write_all raw2 ("XXXX" ^ String.make 20 '\x01');
      (match Wire.read_response raw2 with
      | Ok (Wire.Err { code = Wire.Bad_magic; _ }) -> ()
      | Ok _ -> Alcotest.fail "bad magic not flagged"
      | Error (_, e) -> Alcotest.failf "no typed reply before close: %s" e);
      Unix.close raw2;
      Client.close t)

(* --- coalescing onto the batch axis --- *)

let test_coalescing_merges_regions () =
  with_server ~batch:2 (fun socket ->
      let t, sess = prepare_tenant socket "alice" ~key_seed:1 in
      let img0 = random_image 60 and img1 = random_image 61 in
      (* Region-disjoint payloads, both flagged coalescable. Both frames
         go out in ONE write syscall on a raw connection, so the server's
         input drain sees them in the same readable event and they reach
         admission together — a deterministic merge, not a race against
         the select loop waking between two writes. *)
      let infer rid region seed img =
        Wire.encode_request
          (Wire.Infer
             {
               tenant = "alice";
               model = "demo";
               request_id = rid;
               region;
               coalesce = true;
               ct = Client.encrypt_region sess ~seed ~region img;
             })
      in
      let raw = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect raw (Unix.ADDR_UNIX socket);
      Wire.write_all raw (infer "a" 0 70 img0 ^ infer "b" 1 71 img1);
      let out = Array.make 2 [||] in
      for _ = 1 to 2 do
        match Wire.read_response raw with
        | Ok (Wire.Result { request_id = rid; ct }) ->
          let region = if rid = "a" then 0 else 1 in
          (match Client.decrypt sess ~region ct with
          | Ok o -> out.(region) <- o
          | Error e -> Alcotest.fail e)
        | Ok _ -> Alcotest.fail "expected Result"
        | Error (_, e) -> Alcotest.fail e
      done;
      Unix.close raw;
      (* Each region's decrypted output approximates its own image's
         cleartext inference. *)
      let check_close what got want =
        Array.iteri
          (fun i w ->
            if abs_float (w -. got.(i)) > 1e-2 then
              Alcotest.failf "%s: slot %d error %g" what i (abs_float (w -. got.(i))))
          want
      in
      check_close "region 0" out.(0) (Model_spec.reference spec img0);
      check_close "region 1" out.(1) (Model_spec.reference spec img1);
      (* And the server actually coalesced (one execution, two results). *)
      (match Client.get_stats t with
      | Ok s -> Alcotest.(check bool) "coalesced counter advanced" true (s.Wire.sv_coalesced >= 1)
      | Error e -> Alcotest.fail e);
      Client.close t)

(* --- warm restart from the artifact cache --- *)

let test_artifact_cache_warm_restart () =
  let cache_dir = Filename.temp_file "ace-cache" "" in
  Sys.remove cache_dir;
  Unix.mkdir cache_dir 0o755;
  let image = random_image 80 in
  let compile_spans () =
    List.filter
      (fun (e : Telemetry.event) ->
        String.length e.Telemetry.ev_name >= 8 && String.sub e.ev_name 0 8 = "compile.")
      (Telemetry.events ())
  in
  (* Cold start: compiles (and persists the artifact). *)
  let cold =
    with_server ~cache_dir (fun socket ->
        let t, sess = prepare_tenant socket "alice" ~key_seed:1 in
        Client.submit t sess ~request_id:"cold" (Client.encrypt sess ~seed:90 image);
        let r =
          match Client.await_result t with
          | Ok (_, blob) -> (
            match Client.decrypt sess ~region:0 blob with
            | Ok o -> o
            | Error e -> failwith e)
          | Error e -> failwith e
        in
        Client.close t;
        r)
  in
  Alcotest.(check bool) "artifact persisted" true
    (Array.length (Sys.readdir cache_dir) > 0);
  (* Warm restart: a fresh server process-equivalent (new Server.create)
     must load the artifact, emit NO compile spans, and serve outputs
     bit-identical to the cold run. *)
  Telemetry.reset_trace ();
  Telemetry.set_tracing true;
  let before = List.length (compile_spans ()) in
  let warm =
    with_server ~cache_dir (fun socket ->
        let t, sess = prepare_tenant socket "alice" ~key_seed:1 in
        Client.submit t sess ~request_id:"warm" (Client.encrypt sess ~seed:90 image);
        let r =
          match Client.await_result t with
          | Ok (_, blob) -> (
            match Client.decrypt sess ~region:0 blob with
            | Ok o -> o
            | Error e -> failwith e)
          | Error e -> failwith e
        in
        (match Client.get_stats t with
        | Ok s -> Alcotest.(check bool) "cache hit recorded" true (s.Wire.sv_cache_hits >= 1)
        | Error e -> Alcotest.fail e);
        Client.close t;
        r)
  in
  Telemetry.set_tracing false;
  Alcotest.(check int) "no compile spans on warm start" before
    (List.length (compile_spans ()));
  Alcotest.(check bool) "warm outputs bit-identical to cold" true (cold = warm);
  Array.iter (fun f -> Sys.remove (Filename.concat cache_dir f)) (Sys.readdir cache_dir);
  Unix.rmdir cache_dir

(* --- framing: byte-by-byte delivery --- *)

(* The server consumes its input by offset, so a frame's bytes may arrive
   in any split. 64 pipelined Infer frames delivered one byte per write
   must get exactly the replies that one write of all 64 gets. *)
let test_split_frames_same_replies () =
  with_server ~max_queue:128 (fun socket ->
      let t, sess = prepare_tenant socket "alice" ~key_seed:1 in
      let n = 64 in
      let frames =
        String.concat ""
          (List.init n (fun i ->
               Wire.encode_request
                 (Wire.Infer
                    {
                      tenant = "alice";
                      model = "demo";
                      request_id = Printf.sprintf "r%d" i;
                      region = 0;
                      coalesce = false;
                      ct = Client.encrypt sess ~seed:(300 + i) (random_image (400 + i));
                    })))
      in
      let replies send =
        let raw = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect raw (Unix.ADDR_UNIX socket);
        send raw;
        let got =
          List.init n (fun i ->
              match Wire.read_frame raw with
              | Ok (h, payload) -> (
                match Wire.decode_response h.Wire.h_type payload with
                | Ok (Wire.Result _) -> payload
                | _ -> Alcotest.failf "reply %d is not a Result" i)
              | Error (_, e) -> Alcotest.failf "reply %d: %s" i e)
        in
        Unix.close raw;
        got
      in
      let whole = replies (fun fd -> Wire.write_all fd frames) in
      let split =
        replies (fun fd ->
            String.iteri (fun i _ -> Wire.write_all fd (String.sub frames i 1)) frames)
      in
      Alcotest.(check int) "all replies" n (List.length split);
      Alcotest.(check bool) "byte-split replies identical to whole-write replies" true
        (whole = split);
      Client.close t)

(* --- the connection byte queue --- *)

(* Random appends and consumes against a string model: the queue must
   always hold exactly the unconsumed bytes, across in-place compaction
   and growth. *)
let prop_byte_queue_model =
  QCheck.Test.make ~name:"byte queue matches a string model" ~count:100
    QCheck.(list (pair bool (int_bound 9000)))
    (fun ops ->
      let q = Ace_serve.Byte_queue.create () in
      let model = ref "" and next = ref 0 in
      List.iter
        (fun (add, k) ->
          if add then begin
            let s = String.init k (fun i -> Char.chr ((!next + i) land 0xff)) in
            next := !next + 7;
            Ace_serve.Byte_queue.add_string q s;
            model := !model ^ s
          end
          else begin
            let n = min k (String.length !model) in
            Ace_serve.Byte_queue.consume q n;
            model := String.sub !model n (String.length !model - n)
          end)
        ops;
      Ace_serve.Byte_queue.sub q 0 (Ace_serve.Byte_queue.length q) = !model)

(* Under a pipe's capacity, so one thread can write then read. *)
let test_byte_queue_fd_io () =
  let r, w = Unix.pipe () in
  let data = String.init 50_000 (fun i -> Char.chr ((i * 31) land 0xff)) in
  let out = Ace_serve.Byte_queue.create () and inq = Ace_serve.Byte_queue.create () in
  Ace_serve.Byte_queue.add_string out data;
  while Ace_serve.Byte_queue.length out > 0 do
    ignore (Ace_serve.Byte_queue.write out w)
  done;
  while Ace_serve.Byte_queue.length inq < String.length data do
    ignore (Ace_serve.Byte_queue.read inq r)
  done;
  Unix.close r;
  Unix.close w;
  Alcotest.(check bool) "bytes through a pipe" true
    (Ace_serve.Byte_queue.sub inq 0 (String.length data) = data)

(* --- drain --- *)

let test_drain_stops_admission () =
  with_server (fun socket ->
      let t, sess = prepare_tenant socket "alice" ~key_seed:1 in
      (match Client.drain t with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      Client.submit t sess ~request_id:"late" (Client.encrypt sess ~seed:91 (random_image 92));
      (match Client.await t with
      | Ok (Wire.Err { code = Wire.Draining; _ }) -> ()
      | Ok _ -> Alcotest.fail "admission after drain"
      | Error _ ->
        (* The loop may have exited and closed the connection already —
           also a correct refusal. *)
        ());
      Client.close t)

let () =
  Alcotest.run "serve"
    [
      ( "daemon",
        [
          Alcotest.test_case "hello + describe" `Quick test_hello_describe;
          Alcotest.test_case "2 tenants x 4 in-flight, bit-identical to local" `Quick
            test_two_tenants_four_in_flight;
          Alcotest.test_case "overflow -> typed Overloaded" `Quick
            test_overflow_returns_overloaded;
          Alcotest.test_case "kill mid-request, daemon survives" `Quick
            test_kill_mid_request_daemon_survives;
          Alcotest.test_case "fault injection -> typed errors, session intact" `Quick
            test_fault_injection_typed_errors;
          Alcotest.test_case "coalescing merges batch regions" `Quick
            test_coalescing_merges_regions;
          Alcotest.test_case "artifact cache warm restart" `Quick
            test_artifact_cache_warm_restart;
          Alcotest.test_case "drain stops admission" `Quick test_drain_stops_admission;
          Alcotest.test_case "64 pipelined frames: byte-split = whole replies" `Quick
            test_split_frames_same_replies;
          Alcotest.test_case "light request overtakes a multi-slice one" `Quick
            test_light_overtakes_heavy;
        ] );
      ( "pick",
        [
          QCheck_alcotest.to_alcotest prop_pick_rule;
          Alcotest.test_case "light first in a wider ring's last 10%" `Quick
            test_light_first_in_heavy_tail;
        ] );
      ( "queue",
        [
          QCheck_alcotest.to_alcotest prop_byte_queue_model;
          Alcotest.test_case "read/write through a pipe" `Quick test_byte_queue_fd_io;
        ] );
    ]
