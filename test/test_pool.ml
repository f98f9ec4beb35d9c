(* Limb/slab pool unit + property tests, and the pool-on/off differential
   tier: recycling is a performance knob, never semantics, so pooled and
   unpooled runs must be bit-identical under every executor config. *)

module Limb_pool = Ace_rns.Limb_pool
module Differential = Ace_testkit.Differential
module Graph_gen = Ace_testkit.Graph_gen

(* Every test that flips a pool knob restores the ambient setting, so the
   suite composes with any ACE_POOL / ACE_POOL_DEBUG environment. *)
let with_pool ~enabled ~debug f =
  let e0 = Limb_pool.enabled () and d0 = Limb_pool.debug () in
  Limb_pool.set_enabled enabled;
  Limb_pool.set_debug debug;
  Fun.protect
    ~finally:(fun () ->
      Limb_pool.set_enabled e0;
      Limb_pool.set_debug d0)
    f

(* Rows ------------------------------------------------------------------ *)

let row_reuse () =
  with_pool ~enabled:true ~debug:false @@ fun () ->
  let a = Limb_pool.acquire 64 in
  Limb_pool.release a;
  let b = Limb_pool.acquire 64 in
  Alcotest.(check bool) "same physical row is reused" true (a == b);
  let c = Limb_pool.acquire 64 in
  Alcotest.(check bool) "second acquire without release is fresh" true (c != b)

let row_zeroed () =
  with_pool ~enabled:true ~debug:false @@ fun () ->
  let a = Limb_pool.acquire 32 in
  Array.fill a 0 32 7;
  Limb_pool.release a;
  let b = Limb_pool.acquire_zeroed 32 in
  Alcotest.(check bool) "acquire_zeroed recycles" true (a == b);
  Array.iter (fun v -> Alcotest.(check int) "zeroed" 0 v) b

let row_geometry_property =
  QCheck.Test.make ~name:"row pool returns correct-length zero-safe rows"
    ~count:200
    QCheck.(list_of_size Gen.(1 -- 30) (int_range 1 512))
    (fun lengths ->
      with_pool ~enabled:true ~debug:false @@ fun () ->
      (* Churn: acquire all, release all, acquire again; every row must
         come back with exactly the requested length whatever the
         interleaving of geometries. *)
      let rows = List.map Limb_pool.acquire lengths in
      List.iter Limb_pool.release rows;
      List.for_all
        (fun n ->
          let r = Limb_pool.acquire n in
          let ok = Array.length r = n in
          Limb_pool.release r;
          ok)
        lengths)

(* Slabs ----------------------------------------------------------------- *)

let slab_reuse () =
  with_pool ~enabled:true ~debug:false @@ fun () ->
  Limb_pool.reset_stats ();
  let s = Limb_pool.acquire_slab ~n:64 ~limbs:4 in
  Limb_pool.release_slab s;
  let s' = Limb_pool.acquire_slab ~n:64 ~limbs:4 in
  Alcotest.(check bool) "same physical slab is reused" true (s == s');
  let stats = Limb_pool.stats () in
  Alcotest.(check int) "one slab hit" 1 stats.Limb_pool.slab_hits;
  Alcotest.(check int) "one slab miss" 1 stats.Limb_pool.slab_misses;
  (* A different geometry never aliases the (64,4) bucket. *)
  let t = Limb_pool.acquire_slab ~n:64 ~limbs:5 in
  Alcotest.(check bool) "different limb count is fresh" true (t != s')

let slab_disabled_is_fresh () =
  with_pool ~enabled:false ~debug:false @@ fun () ->
  Limb_pool.reset_stats ();
  let s = Limb_pool.acquire_slab ~n:64 ~limbs:4 in
  Limb_pool.release_slab s;
  let s' = Limb_pool.acquire_slab ~n:64 ~limbs:4 in
  Alcotest.(check bool) "ACE_POOL=0 never recycles slabs" true (s != s');
  let stats = Limb_pool.stats () in
  Alcotest.(check int) "no slab hits" 0 stats.Limb_pool.slab_hits;
  Alcotest.(check int) "release is counted as dropped" 1 stats.Limb_pool.slab_dropped

let slab_geometry_property =
  QCheck.Test.make ~name:"slab pool preserves (n, limbs) geometry under churn"
    ~count:100
    QCheck.(list_of_size Gen.(1 -- 12) (pair (int_range 1 128) (int_range 1 8)))
    (fun geoms ->
      with_pool ~enabled:true ~debug:false @@ fun () ->
      let slabs = List.map (fun (n, l) -> Limb_pool.acquire_slab ~n ~limbs:l) geoms in
      List.iter Limb_pool.release_slab slabs;
      List.for_all
        (fun (n, l) ->
          let s = Limb_pool.acquire_slab ~n ~limbs:l in
          let ok =
            Array.length s = l && Array.for_all (fun row -> Array.length row = n) s
          in
          Limb_pool.release_slab s;
          ok)
        geoms)

(* Debug mode ------------------------------------------------------------ *)

let poison_catches_uaf () =
  with_pool ~enabled:true ~debug:true @@ fun () ->
  let s = Limb_pool.acquire_slab ~n:32 ~limbs:2 in
  Limb_pool.release_slab s;
  (* Seeded use-after-free: scribble into the released slab through the
     stale reference, as an aliasing bug would. *)
  s.(1).(17) <- 42;
  Alcotest.check_raises "acquire detects the overwritten poison"
    (Failure
       "Limb_pool: slab buffer written after release (index 17 holds 0x2a, \
        expected poison) — a live value aliased a released buffer")
    (fun () -> ignore (Limb_pool.acquire_slab ~n:32 ~limbs:2))

let poison_catches_row_uaf () =
  with_pool ~enabled:true ~debug:true @@ fun () ->
  let r = Limb_pool.acquire 16 in
  Limb_pool.release r;
  r.(3) <- 1;
  (try
     ignore (Limb_pool.acquire 16);
     Alcotest.fail "row acquire accepted a scribbled buffer"
   with Failure msg ->
     Alcotest.(check bool)
       "failure names the row write" true
       (String.length msg > 0
       && String.sub msg 0 (min 14 (String.length msg)) = "Limb_pool: row"))

let double_release_detected () =
  with_pool ~enabled:true ~debug:true @@ fun () ->
  let s = Limb_pool.acquire_slab ~n:16 ~limbs:3 in
  Limb_pool.release_slab s;
  Alcotest.check_raises "second release of the same slab"
    (Failure "Limb_pool: double release of a 3x16 slab")
    (fun () -> Limb_pool.release_slab s);
  let r = Limb_pool.acquire 24 in
  Limb_pool.release r;
  Alcotest.check_raises "second release of the same row"
    (Failure "Limb_pool: double release of a row")
    (fun () -> Limb_pool.release r)

(* Pool on/off differential ---------------------------------------------- *)

let domain_widths = [ 1; 4 ]

(* One compiled graph at both pool widths, slab pool on and off: all four
   output ciphertexts must be bit-identical. [cfg] lets the accumulation
   generator in — its gemm layers re-extract rotation-batch elements, the
   exact aliasing shape that once broke the recycler. *)
let run_pool_identity ?cfg seed () =
  Ace_verify.Verifier.set_enabled true;
  let case = Differential.prepare ?cfg ~seed () in
  let run ~pooled domains =
    with_pool ~enabled:pooled ~debug:false @@ fun () -> Differential.run_case ~domains case
  in
  let outcomes =
    List.concat_map
      (fun c -> [ (true, run ~pooled:true c); (false, run ~pooled:false c) ])
      domain_widths
  in
  List.iter
    (fun (_, (o : Differential.outcome)) ->
      match Differential.check case o with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg)
    outcomes;
  match outcomes with
  | (_, baseline) :: rest ->
    List.iter
      (fun (pooled, (o : Differential.outcome)) ->
        if not (Differential.ct_equal baseline.Differential.ct_out o.Differential.ct_out)
        then
          Alcotest.failf "seed %d: %s (pool %s) diverges bit-wise from pooled baseline"
            seed
            (Differential.describe o)
            (if pooled then "on" else "off"))
      rest
  | [] -> assert false

let () =
  Alcotest.run "pool"
    [
      ( "rows",
        [
          Alcotest.test_case "release/acquire reuses the buffer" `Quick row_reuse;
          Alcotest.test_case "acquire_zeroed scrubs recycled rows" `Quick row_zeroed;
          QCheck_alcotest.to_alcotest row_geometry_property;
        ] );
      ( "slabs",
        [
          Alcotest.test_case "release/acquire reuses the slab" `Quick slab_reuse;
          Alcotest.test_case "ACE_POOL=0 falls back to fresh allocation" `Quick
            slab_disabled_is_fresh;
          QCheck_alcotest.to_alcotest slab_geometry_property;
        ] );
      ( "debug",
        [
          Alcotest.test_case "poison catches a seeded slab UAF" `Quick poison_catches_uaf;
          Alcotest.test_case "poison catches a seeded row UAF" `Quick
            poison_catches_row_uaf;
          Alcotest.test_case "double release is rejected" `Quick double_release_detected;
        ] );
      ( "differential",
        [
          Alcotest.test_case
            "seed 0: pool on/off bit-identity (seq at 1/4 domains)" `Slow
            (run_pool_identity 0);
          Alcotest.test_case
            "accumulation seed 100: duplicate batch_get extraction, pool on/off" `Slow
            (run_pool_identity ~cfg:Graph_gen.accumulation 100);
        ] );
    ]
