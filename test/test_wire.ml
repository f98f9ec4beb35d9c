(* Wire-format tests: Bytesio primitives, the FHE value codecs, the IR
   function codec, the serving protocol frames and the compiled-schedule
   artifact. The load-bearing properties: every round trip is exact
   (decrypted outputs bit-identical), version mismatches and truncations
   are typed errors, and NO input — corrupted, truncated or random —
   ever escapes a decoder as an exception. *)
module B = Ace_util.Bytesio
module Rng = Ace_util.Rng
module Fhe = Ace_fhe
module Fhe_wire = Ace_fhe.Fhe_wire
module Ir_wire = Ace_ckks_ir.Ir_wire
module Irfunc = Ace_ir.Irfunc
module Pipeline = Ace_driver.Pipeline
module Wire = Ace_serve.Wire
module Model_spec = Ace_serve.Model_spec
module Import = Ace_nn.Import
module Builder = Ace_onnx.Builder

let test_params =
  {
    Fhe.Context.log2_n = 10;
    depth = 4;
    scale_bits = 25;
    q0_bits = 29;
    special_bits = 29;
    security = Fhe.Security.Toy;
    error_sigma = 3.2;
  }

let test_ctx = lazy (Fhe.Context.make test_params)

let test_keys =
  lazy
    (Fhe.Keys.generate (Lazy.force test_ctx) ~rng:(Rng.create 1234)
       ~rotations:[ 1; 2; 5; -3 ])

let random_ct seed =
  let ctx = Lazy.force test_ctx in
  let keys = Lazy.force test_keys in
  let rng = Rng.create seed in
  let v = Array.init (Fhe.Context.slots ctx) (fun _ -> Rng.float rng 2.0 -. 1.0) in
  let pt =
    Fhe.Encoder.encode ctx ~level:(Fhe.Context.max_level ctx) ~scale:(Fhe.Context.scale ctx)
      v
  in
  Fhe.Eval.encrypt keys ~rng pt

let decrypt_floats ct =
  let ctx = Lazy.force test_ctx in
  Fhe.Encoder.decode ctx (Fhe.Eval.decrypt (Lazy.force test_keys) ct)

(* --- Bytesio --- *)

let prop_bytesio_roundtrip =
  QCheck.Test.make ~name:"bytesio primitives round-trip" ~count:100
    QCheck.(
      quad (int_bound 255) small_string (list (int_bound 1000)) (list float))
    (fun (u, s, ints, floats) ->
      let w = B.writer () in
      B.w_u8 w u;
      B.w_u16 w (u * 257 mod 65536);
      B.w_u32 w (u * 16777259 mod 0x100000000);
      B.w_i64 w (-u * 1_000_000_007);
      B.w_bool w (u mod 2 = 0);
      B.w_string w s;
      B.w_int_array w (Array.of_list ints);
      B.w_float_array w (Array.of_list floats);
      let r = B.reader (B.contents w) in
      let ok = ref true in
      let chk name got want = if got <> want then (ok := false; ignore name) in
      chk "u8" (B.r_u8 r) u;
      chk "u16" (B.r_u16 r) (u * 257 mod 65536);
      chk "u32" (B.r_u32 r) (u * 16777259 mod 0x100000000);
      chk "i64" (B.r_i64 r) (-u * 1_000_000_007);
      chk "bool" (B.r_bool r) (u mod 2 = 0);
      chk "string" (B.r_string r) s;
      if B.r_int_array r <> Array.of_list ints then ok := false;
      let fs = B.r_float_array r in
      if Array.to_list fs <> floats then ok := false;
      B.r_end r;
      !ok)

let test_bytesio_truncation () =
  let w = B.writer () in
  B.w_string w "hello";
  B.w_int_array w [| 1; 2; 3 |];
  let full = B.contents w in
  for len = 0 to String.length full - 1 do
    let cut = String.sub full 0 len in
    match
      B.decode
        (fun r ->
          let _ = B.r_string r in
          B.r_int_array r)
        cut
    with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "prefix of %d bytes decoded" len
  done

let test_bytesio_length_prefix_bomb () =
  (* A length prefix far past the end must fail before allocating. *)
  let w = B.writer () in
  B.w_u32 w 0xFFFFFFF;
  let s = B.contents w in
  (match B.decode B.r_string s with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus string length accepted");
  match B.decode B.r_int_array s with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus array length accepted"

(* --- Fhe_wire --- *)

let test_params_roundtrip () =
  let w = B.writer () in
  Fhe_wire.write_params w test_params;
  (match B.decode Fhe_wire.read_params (B.contents w) with
  | Ok p -> Alcotest.(check bool) "params equal" true (p = test_params)
  | Error e -> Alcotest.fail e);
  let fp1 = Fhe_wire.params_fingerprint test_params in
  let fp2 = Fhe_wire.params_fingerprint { test_params with depth = 5 } in
  Alcotest.(check int) "fingerprint is 16 bytes" 16 (String.length fp1);
  Alcotest.(check bool) "fingerprint distinguishes params" true (fp1 <> fp2)

let test_ct_roundtrip_bit_identical () =
  let ctx = Lazy.force test_ctx in
  let ct = random_ct 77 in
  let blob = Fhe_wire.encode_ct ctx ct in
  match Fhe_wire.decode_ct ctx blob with
  | Error e -> Alcotest.fail e
  | Ok ct' ->
    (* Residue-level equality... *)
    Alcotest.(check int) "poly count" (Array.length ct.Fhe.Ciphertext.polys)
      (Array.length ct'.Fhe.Ciphertext.polys);
    Array.iteri
      (fun i p ->
        let p' = ct'.Fhe.Ciphertext.polys.(i) in
        Alcotest.(check bool)
          (Printf.sprintf "poly %d residues identical" i)
          true
          (p.Ace_rns.Rns_poly.data = p'.Ace_rns.Rns_poly.data
          && p.chain_idx = p'.chain_idx))
      ct.Fhe.Ciphertext.polys;
    (* ...and therefore bit-identical decrypted output. *)
    let a = decrypt_floats ct and b = decrypt_floats ct' in
    Alcotest.(check bool) "decrypted outputs bit-identical" true (a = b)

let test_ct_wrong_context_rejected () =
  let ctx = Lazy.force test_ctx in
  let other = Fhe.Context.make { test_params with depth = 3 } in
  let blob = Fhe_wire.encode_ct ctx (random_ct 5) in
  match Fhe_wire.decode_ct other blob with
  | Error msg ->
    Alcotest.(check bool) "names the fingerprint" true
      (String.length msg > 0)
  | Ok _ -> Alcotest.fail "foreign-context ciphertext accepted"

let test_ct_version_mismatch () =
  let ctx = Lazy.force test_ctx in
  let blob = Bytes.of_string (Fhe_wire.encode_ct ctx (random_ct 6)) in
  (* magic is bytes 0-3, the u16 format version sits at bytes 4-5 *)
  Bytes.set blob 4 (Char.chr (Fhe_wire.format_version + 1));
  match Fhe_wire.decode_ct ctx (Bytes.to_string blob) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "future format version accepted"

let test_keys_roundtrip_bit_identical () =
  let ctx = Lazy.force test_ctx in
  let keys = Lazy.force test_keys in
  let blob = Fhe_wire.encode_keys keys in
  match Fhe_wire.decode_keys ctx blob with
  | Error e -> Alcotest.fail e
  | Ok keys' ->
    let ct = random_ct 9 in
    (* Same rotation under both key sets: identical residues (the Shoup
       companions recomputed on decode behave exactly like the originals). *)
    let r1 = Fhe.Eval.rotate keys ct 2 and r2 = Fhe.Eval.rotate keys' ct 2 in
    Array.iteri
      (fun i p ->
        Alcotest.(check bool)
          (Printf.sprintf "rotated poly %d identical" i)
          true
          (p.Ace_rns.Rns_poly.data = r2.Fhe.Ciphertext.polys.(i).Ace_rns.Rns_poly.data))
      r1.Fhe.Ciphertext.polys;
    (* Decrypt through the decoded secret key: bit-identical plaintext. *)
    let a = Fhe.Encoder.decode ctx (Fhe.Eval.decrypt keys ct) in
    let b = Fhe.Encoder.decode ctx (Fhe.Eval.decrypt keys' ct) in
    Alcotest.(check bool) "decrypted bit-identical" true (a = b)

let never_raises name decode blob =
  match decode blob with
  | Ok _ | Error _ -> true
  | exception e ->
    Printf.eprintf "%s raised %s\n" name (Printexc.to_string e);
    false

let prop_ct_truncation_rejected =
  QCheck.Test.make ~name:"truncated ciphertext blobs are typed errors" ~count:60
    QCheck.(float_range 0.0 1.0)
    (fun frac ->
      let ctx = Lazy.force test_ctx in
      let blob = Fhe_wire.encode_ct ctx (random_ct 11) in
      let len = int_of_float (frac *. float_of_int (String.length blob - 1)) in
      let cut = String.sub blob 0 len in
      match Fhe_wire.decode_ct ctx cut with
      | Error _ -> true
      | Ok _ -> false
      | exception _ -> false)

let prop_garbage_never_crashes =
  QCheck.Test.make ~name:"garbage bytes never escape any decoder as an exception"
    ~count:200
    QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 400) QCheck.Gen.char)
    (fun garbage ->
      let ctx = Lazy.force test_ctx in
      never_raises "decode_ct" (Fhe_wire.decode_ct ctx) garbage
      && never_raises "decode_keys" (Fhe_wire.decode_keys ctx) garbage
      && never_raises "decode_func" Ir_wire.decode_func garbage
      && never_raises "decode_artifact" Wire.decode_artifact garbage)

let prop_byte_flip_never_crashes =
  QCheck.Test.make ~name:"single byte flips never crash the ciphertext decoder"
    ~count:100
    QCheck.(pair (int_bound 100000) (int_bound 255))
    (fun (pos_seed, xor) ->
      let ctx = Lazy.force test_ctx in
      let blob = Bytes.of_string (Fhe_wire.encode_ct ctx (random_ct 13)) in
      let pos = pos_seed mod Bytes.length blob in
      Bytes.set blob pos (Char.chr (Char.code (Bytes.get blob pos) lxor xor));
      never_raises "decode_ct(flipped)" (Fhe_wire.decode_ct ctx) (Bytes.to_string blob))

(* --- Ir_wire --- *)

let gemv_graph () =
  let b = Builder.create "gemv" in
  Builder.input b "x" [| 16 |];
  Builder.init_normal b "w" [| 4; 16 |] ~seed:3 ~std:0.2;
  Builder.init_normal b "bias" [| 4 |] ~seed:4 ~std:0.05;
  Builder.node b ~op:"Gemm" ~inputs:[ "x"; "w"; "bias" ] "y";
  Builder.output b "y" [| 4 |];
  Builder.finish b

let compiled_gemv = lazy (Pipeline.compile ~batch:2 Pipeline.ace (Import.import (gemv_graph ())))

let test_irfunc_roundtrip_compiled () =
  let c = Lazy.force compiled_gemv in
  let f = c.Pipeline.ckks in
  match Ir_wire.decode_func (Ir_wire.encode_func f) with
  | Error e -> Alcotest.fail e
  | Ok f' ->
    Alcotest.(check bool) "compiled ckks function round-trips" true (Ir_wire.equal_func f f')

let test_irfunc_truncation () =
  let f = (Lazy.force compiled_gemv).Pipeline.ckks in
  let blob = Ir_wire.encode_func f in
  let n = String.length blob in
  (* sample prefixes across the whole blob *)
  let step = max 1 (n / 97) in
  let len = ref 0 in
  while !len < n do
    (match Ir_wire.decode_func (String.sub blob 0 !len) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "prefix of %d/%d bytes decoded" !len n
    | exception e ->
      Alcotest.failf "prefix of %d bytes raised %s" !len (Printexc.to_string e));
    len := !len + step
  done

(* --- protocol frames --- *)

let reqs_equal a b = a = b

let sample_requests s1 s2 n =
  [
    Wire.Hello { client = s1 };
    Wire.Describe { model = s2 };
    Wire.Put_keys { tenant = s1; model = s2; oracle_seed = n; keys = s1 ^ "\x00" ^ s2 };
    Wire.Infer
      {
        tenant = s1;
        model = s2;
        request_id = s2 ^ s1;
        region = n mod 8;
        coalesce = n mod 2 = 0;
        ct = s2 ^ "\xff\x00" ^ s1;
      };
    Wire.Get_stats;
    Wire.Reload { model = s1 };
    Wire.Drain;
  ]

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request frames round-trip" ~count:100
    QCheck.(pair small_string (pair small_string (int_bound 1000)))
    (fun (s1, (s2, n)) ->
      List.for_all
        (fun req ->
          let frame = Wire.encode_request req in
          match Wire.parse_header (String.sub frame 0 Wire.frame_header_bytes) with
          | Error _ -> false
          | Ok h -> (
            let payload = String.sub frame Wire.frame_header_bytes h.Wire.h_len in
            match Wire.decode_request h.h_type payload with
            | Ok req' -> reqs_equal req req'
            | Error _ -> false))
        (sample_requests s1 s2 n))

let sample_responses s1 s2 n =
  let layout = Ace_vector.Layout.create ~channels:1 ~height:4 ~width:4 ~slots:64 in
  let mi =
    {
      Wire.mi_name = s1;
      mi_hash = s2;
      mi_params = test_params;
      mi_batch = 2;
      mi_requests_per_ct = 2;
      mi_cplx = false;
      mi_output_mults = [ 0.5 ];
      mi_rotation_steps = [ 1; -3; 8; n ];
      mi_input_layout = Ace_vector.Layout.with_batch layout 2;
      mi_output_layouts = [ Ace_vector.Layout.with_batch layout 2 ];
      mi_predicted_units = 1234.5;
      mi_from_cache = true;
    }
  in
  [
    Wire.Hello_ok { server = s1; proto = Wire.proto_version; models = [ "a"; s2 ] };
    Wire.Model_info mi;
    Wire.Keys_ok;
    Wire.Result { request_id = s1; ct = "\x00\xffbinary" ^ s2 };
    Wire.Overloaded { queue_depth = n; queued_units = 123.5 };
    Wire.Err { code = Wire.Bad_payload; message = s2 };
    Wire.Stats_ok
      {
        Wire.sv_queue_depth = 1;
        sv_queued_units = 2.5;
        sv_served = n;
        sv_rejected = 4;
        sv_coalesced = 5;
        sv_sessions = 6;
        sv_cache_hits = 7;
        sv_cache_misses = 8;
        sv_draining = true;
      };
    Wire.Reloaded { model = s1; from_cache = false };
    Wire.Drain_ok;
  ]

let test_response_roundtrip () =
  List.iter
    (fun resp ->
      let frame = Wire.encode_response resp in
      match Wire.parse_header (String.sub frame 0 Wire.frame_header_bytes) with
      | Error (_, m) -> Alcotest.fail m
      | Ok h -> (
        let payload = String.sub frame Wire.frame_header_bytes h.Wire.h_len in
        match Wire.decode_response h.h_type payload with
        | Ok resp' -> Alcotest.(check bool) "response equal" true (resp = resp')
        | Error (_, m) -> Alcotest.fail m))
    (sample_responses "s" "nope" 7)

let test_header_faults () =
  let frame = Wire.encode_request Wire.Get_stats in
  let set i c =
    let b = Bytes.of_string frame in
    Bytes.set b i c;
    Bytes.to_string b
  in
  (match Wire.parse_header (set 0 'X') with
  | Error (Wire.Bad_magic, _) -> ()
  | _ -> Alcotest.fail "bad magic undetected");
  (match Wire.parse_header (set 4 '\xEE') with
  | Error (Wire.Bad_version, _) -> ()
  | _ -> Alcotest.fail "bad version undetected");
  match Wire.parse_header (set 10 '\xFF') with
  | Error (Wire.Bad_frame, _) -> ()
  | _ -> Alcotest.fail "oversized frame undetected"

(* --- artifacts --- *)

let test_artifact_roundtrip () =
  let c = Lazy.force compiled_gemv in
  let spec = "gemv:16:4:3" in
  let hash =
    Wire.artifact_hash ~spec ~strategy:c.Pipeline.strategy ~batch:c.batch ~complex:false
  in
  let art = Wire.artifact_of_compiled ~spec ~hash c in
  match Wire.decode_artifact (Wire.encode_artifact art) with
  | Error e -> Alcotest.fail (Wire.artifact_error_to_string e)
  | Ok art' ->
    Alcotest.(check string) "spec" art.Wire.art_spec art'.Wire.art_spec;
    Alcotest.(check string) "hash" art.art_hash art'.art_hash;
    Alcotest.(check bool) "strategy" true (art.art_strategy = art'.art_strategy);
    Alcotest.(check int) "batch" art.art_batch art'.art_batch;
    Alcotest.(check bool) "params" true (art.art_params = art'.art_params);
    Alcotest.(check bool) "layouts" true
      (art.art_input_layout = art'.art_input_layout
      && art.art_output_layouts = art'.art_output_layouts);
    Alcotest.(check bool) "lazy stats" true (art.art_lazy = art'.art_lazy);
    Alcotest.(check bool) "ckks function" true (Ir_wire.equal_func art.art_ckks art'.art_ckks)

let test_artifact_restores_bit_identical_inference () =
  let c = Lazy.force compiled_gemv in
  let spec = "gemv:16:4:3" in
  let hash =
    Wire.artifact_hash ~spec ~strategy:c.Pipeline.strategy ~batch:c.batch ~complex:false
  in
  let art = Wire.artifact_of_compiled ~spec ~hash c in
  match Wire.decode_artifact (Wire.encode_artifact art) with
  | Error e -> Alcotest.fail (Wire.artifact_error_to_string e)
  | Ok art' ->
    let c' = Wire.compiled_of_artifact art' in
    let rng = Rng.create 21 in
    let x = Array.init 16 (fun _ -> Rng.float rng 1.0 -. 0.5) in
    let y = Pipeline.infer_encrypted c (Pipeline.make_keys c ~seed:5) ~seed:7 x in
    let y' = Pipeline.infer_encrypted c' (Pipeline.make_keys c' ~seed:5) ~seed:7 x in
    Alcotest.(check bool) "restored schedule serves bit-identical outputs" true (y = y')

let test_artifact_hash_sensitivity () =
  let s = Pipeline.ace in
  let h ~spec ~strategy ~batch ~complex = Wire.artifact_hash ~spec ~strategy ~batch ~complex in
  let base = h ~spec:"m" ~strategy:s ~batch:1 ~complex:false in
  Alcotest.(check bool) "spec" true (h ~spec:"m2" ~strategy:s ~batch:1 ~complex:false <> base);
  Alcotest.(check bool) "batch" true (h ~spec:"m" ~strategy:s ~batch:2 ~complex:false <> base);
  Alcotest.(check bool) "complex" true (h ~spec:"m" ~strategy:s ~batch:1 ~complex:true <> base);
  Alcotest.(check bool) "strategy" true
    (h ~spec:"m" ~strategy:Pipeline.expert ~batch:1 ~complex:false <> base)

(* The compiler that places bootstraps is part of an artifact's identity:
   the hash moved off the value an earlier compiler (artifact version 1)
   computed for this key, and a version-1 artifact is refused. *)
let test_artifact_version_gates_stale_compilers () =
  let h = Wire.artifact_hash ~spec:"gemv:16:4" ~strategy:Pipeline.ace ~batch:1 ~complex:false in
  Alcotest.(check bool) "hash differs from artifact version 1" true
    (h <> "40e19ec311f6c5c0e467cb47302959ad");
  let c = Lazy.force compiled_gemv in
  let bytes = Bytes.of_string (Wire.encode_artifact (Wire.artifact_of_compiled ~spec:"m" ~hash:h c)) in
  (* magic (4 bytes), then the version as u16 LE *)
  Bytes.set bytes 4 '\001';
  Bytes.set bytes 5 '\000';
  match Wire.decode_artifact (Bytes.to_string bytes) with
  | Ok _ -> Alcotest.fail "version-1 artifact accepted"
  | Error (Wire.Stale_version 1) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Wire.artifact_error_to_string e)

(* --- model specs --- *)

(* --- one-allocation encoding --- *)

(* [Bytesio.encode] (a counting pass, then one exactly sized buffer) must
   produce the bytes the growable writer does, for every codec. *)
let grown f =
  let w = B.writer () in
  f w;
  B.contents w

let prop_encode_matches_growable =
  QCheck.Test.make ~name:"Bytesio.encode = growable writer (artifacts, frames)" ~count:30
    QCheck.(triple small_string small_string (pair (int_bound 1000) (list float)))
    (fun (s1, s2, (n, floats)) ->
      let c = Lazy.force compiled_gemv in
      let cplx =
        if n mod 2 = 0 then None
        else
          Some
            {
              Ace_ckks_ir.Ckks_cplx.stats =
                {
                  packed_nodes = n;
                  split_nodes = 1;
                  pack_ops = 2;
                  unpack_ops = 3;
                  regions = 4;
                  regions_refused = 5;
                };
              output_mults = floats;
            }
      in
      let art =
        { (Wire.artifact_of_compiled ~spec:s1 ~hash:s2 c) with Wire.art_cplx = cplx }
      in
      let prims w =
        B.w_string w s1;
        B.w_float_array w (Array.of_list floats);
        B.w_int_array w [| n; -n |];
        B.w_i64s w [| n |]
      in
      String.equal (B.encode prims) (grown prims)
      && String.equal (Wire.encode_artifact art) (grown (fun w -> Wire.write_artifact w art))
      && List.for_all
           (fun r -> String.equal (Wire.encode_request r) (grown (fun w -> Wire.write_request w r)))
           (sample_requests s1 s2 n)
      && List.for_all
           (fun r ->
             String.equal (Wire.encode_response r) (grown (fun w -> Wire.write_response w r)))
           (sample_responses s1 s2 n))

let test_encode_ciphertext_and_keys () =
  let ctx = Lazy.force test_ctx in
  let ct = random_ct 11 in
  Alcotest.(check bool) "ciphertext" true
    (String.equal (Fhe_wire.encode_ct ctx ct) (grown (fun w -> Fhe_wire.write_ct ctx w ct)));
  let keys = Lazy.force test_keys in
  Alcotest.(check bool) "keys" true
    (String.equal (Fhe_wire.encode_keys keys) (grown (fun w -> Fhe_wire.write_keys w keys)))

let test_model_spec_grammar () =
  (match Model_spec.parse "gemv:16:4" with
  | Ok m -> Alcotest.(check string) "seed made explicit" "gemv:16:4:7" (Model_spec.to_string m)
  | Error e -> Alcotest.fail e);
  (match Model_spec.parse "mlp:8:6:3:99" with
  | Ok m -> Alcotest.(check string) "mlp canonical" "mlp:8:6:3:99" (Model_spec.to_string m)
  | Error e -> Alcotest.fail e);
  (match Model_spec.parse "resnet:8:4:8:2" with
  | Ok m ->
    Alcotest.(check string) "resnet canonical" "resnet:8:4:8:2:17" (Model_spec.to_string m)
  | Error e -> Alcotest.fail e);
  (match Model_spec.parse "resnet:8:bogus:8:2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-integer accepted");
  (match Model_spec.parse "resnet:10:4:8:2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "depth 10 is not 6n+2");
  match Model_spec.parse "quux" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown spec accepted"

let test_model_spec_reference () =
  match Model_spec.parse "gemv:16:4" with
  | Error e -> Alcotest.fail e
  | Ok m ->
    Alcotest.(check int) "input elems" 16 (Model_spec.input_elems m);
    let y = Model_spec.reference m (Array.make 16 0.25) in
    Alcotest.(check int) "output elems" 4 (Array.length y)

let () =
  Alcotest.run "wire"
    [
      ( "bytesio",
        [
          QCheck_alcotest.to_alcotest prop_bytesio_roundtrip;
          Alcotest.test_case "truncation rejected" `Quick test_bytesio_truncation;
          Alcotest.test_case "length-prefix bomb rejected" `Quick
            test_bytesio_length_prefix_bomb;
        ] );
      ( "fhe",
        [
          Alcotest.test_case "params round-trip + fingerprint" `Quick test_params_roundtrip;
          Alcotest.test_case "ciphertext round-trip bit-identical" `Quick
            test_ct_roundtrip_bit_identical;
          Alcotest.test_case "wrong-context ciphertext rejected" `Quick
            test_ct_wrong_context_rejected;
          Alcotest.test_case "version mismatch rejected" `Quick test_ct_version_mismatch;
          Alcotest.test_case "keys round-trip bit-identical" `Quick
            test_keys_roundtrip_bit_identical;
          QCheck_alcotest.to_alcotest prop_ct_truncation_rejected;
          QCheck_alcotest.to_alcotest prop_garbage_never_crashes;
          QCheck_alcotest.to_alcotest prop_byte_flip_never_crashes;
        ] );
      ( "ir",
        [
          Alcotest.test_case "compiled ckks function round-trips" `Quick
            test_irfunc_roundtrip_compiled;
          Alcotest.test_case "truncated functions rejected" `Quick test_irfunc_truncation;
        ] );
      ( "protocol",
        [
          QCheck_alcotest.to_alcotest prop_request_roundtrip;
          Alcotest.test_case "responses round-trip" `Quick test_response_roundtrip;
          Alcotest.test_case "header faults typed" `Quick test_header_faults;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "round-trip preserves every field" `Quick test_artifact_roundtrip;
          Alcotest.test_case "restored schedule infers bit-identically" `Quick
            test_artifact_restores_bit_identical_inference;
          Alcotest.test_case "hash covers spec/strategy/batch/complex" `Quick
            test_artifact_hash_sensitivity;
          Alcotest.test_case "version gates stale compilers" `Quick
            test_artifact_version_gates_stale_compilers;
        ] );
      ( "encode",
        [
          QCheck_alcotest.to_alcotest prop_encode_matches_growable;
          Alcotest.test_case "ciphertext and key codecs" `Quick test_encode_ciphertext_and_keys;
        ] );
      ( "model-spec",
        [
          Alcotest.test_case "grammar + canonicalization" `Quick test_model_spec_grammar;
          Alcotest.test_case "cleartext reference" `Quick test_model_spec_reference;
        ] );
    ]
