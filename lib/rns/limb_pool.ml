(* Per-domain free lists of residue rows and whole-ciphertext slabs.

   Domain-local storage keeps acquire/release lock-free from inside
   [Domain_pool] bodies; releasing on a different domain than the
   acquiring one just migrates the buffer, which is harmless.  Each bucket is depth-capped so a
   burst of deep ciphertexts cannot pin unbounded memory. *)

let env_flag name default =
  match Sys.getenv_opt name with
  | Some ("0" | "off" | "false" | "no") -> false
  | Some _ -> true
  | None -> default

(* Row recycling predates ACE_POOL and stays always-on; the knob gates
   only slab (ciphertext-buffer) recycling, so ACE_POOL=0 is an honest
   "PR 1 behaviour" baseline for the bench's A/B gate. *)
let enabled_v = ref (env_flag "ACE_POOL" true)
let enabled () = !enabled_v
let debug_v = ref (env_flag "ACE_POOL_DEBUG" false)
let debug () = !debug_v

(* Largest 0x3A7A.. pattern below OCaml's max_int: far outside any
   residue range, so a use-after-free read yields unmistakable garbage
   even where the acquire-time check cannot see it. *)
let poison = 0x3A7A7A7A7A7A7A7A

type row_bucket = { mutable free : int array list; mutable depth : int }
type slab_bucket = { mutable sfree : int array array list; mutable sdepth : int }

(* The row cap must cover the hoisted key-switch working set — a
   (limbs+1) x limbs digit extension plus two extended-basis accumulator
   sets in flight — or every rotation batch thrashes the bucket. 192
   covers chains up to ~12 limbs (13*12 + 4*13 rows) at well under a few
   MB per domain for production ring degrees. *)
let max_rows_per_bucket = 192
let max_slabs_per_bucket = 128

type dls_state = {
  rows : (int, row_bucket) Hashtbl.t;
  slabs : (int * int, slab_bucket) Hashtbl.t;
}

let key = Domain.DLS.new_key (fun () ->
    { rows = Hashtbl.create 8; slabs = Hashtbl.create 8 })

let local () = Domain.DLS.get key

(* Toggling recycling or debug mode invalidates the current free lists
   (pre-toggle buffers are not poisoned / may still be aliased), so both
   setters drop this domain's lists.  Tests and the bench toggle from
   the main domain before running, which is the domain whose lists
   matter. *)
let flush_local () =
  let st = local () in
  Hashtbl.reset st.rows;
  Hashtbl.reset st.slabs

let set_enabled b =
  flush_local ();
  enabled_v := b

let set_debug b =
  flush_local ();
  debug_v := b

let row_hits_c = Atomic.make 0
let row_misses_c = Atomic.make 0
let row_releases_c = Atomic.make 0
let row_dropped_c = Atomic.make 0
let slab_hits_c = Atomic.make 0
let slab_misses_c = Atomic.make 0
let slab_releases_c = Atomic.make 0
let slab_dropped_c = Atomic.make 0

type stats = {
  row_hits : int;
  row_misses : int;
  row_releases : int;
  row_dropped : int;
  slab_hits : int;
  slab_misses : int;
  slab_releases : int;
  slab_dropped : int;
}

let stats () =
  {
    row_hits = Atomic.get row_hits_c;
    row_misses = Atomic.get row_misses_c;
    row_releases = Atomic.get row_releases_c;
    row_dropped = Atomic.get row_dropped_c;
    slab_hits = Atomic.get slab_hits_c;
    slab_misses = Atomic.get slab_misses_c;
    slab_releases = Atomic.get slab_releases_c;
    slab_dropped = Atomic.get slab_dropped_c;
  }

let reset_stats () =
  Atomic.set row_hits_c 0;
  Atomic.set row_misses_c 0;
  Atomic.set row_releases_c 0;
  Atomic.set row_dropped_c 0;
  Atomic.set slab_hits_c 0;
  Atomic.set slab_misses_c 0;
  Atomic.set slab_releases_c 0;
  Atomic.set slab_dropped_c 0

let poison_row a = Array.fill a 0 (Array.length a) poison

let check_poisoned what a =
  let n = Array.length a in
  let i = ref 0 in
  while !i < n && Array.unsafe_get a !i = poison do incr i done;
  if !i < n then
    failwith
      (Printf.sprintf
         "Limb_pool: %s buffer written after release (index %d holds %#x, \
          expected poison) — a live value aliased a released buffer"
         what !i a.(!i))

(* Rows ---------------------------------------------------------------- *)

let row_bucket_for st n =
  match Hashtbl.find_opt st.rows n with
  | Some b -> b
  | None ->
      let b = { free = []; depth = 0 } in
      Hashtbl.add st.rows n b;
      b

let acquire n =
  let b = row_bucket_for (local ()) n in
  match b.free with
  | a :: rest ->
      b.free <- rest;
      b.depth <- b.depth - 1;
      if !debug_v then check_poisoned "row" a;
      Atomic.incr row_hits_c;
      a
  | [] ->
      Atomic.incr row_misses_c;
      Array.make n 0

let acquire_zeroed n =
  let a = acquire n in
  Array.fill a 0 n 0;
  a

let release a =
  let b = row_bucket_for (local ()) (Array.length a) in
  if b.depth < max_rows_per_bucket then begin
    if !debug_v then begin
      if List.memq a b.free then
        failwith "Limb_pool: double release of a row";
      poison_row a
    end;
    b.free <- a :: b.free;
    b.depth <- b.depth + 1;
    Atomic.incr row_releases_c
  end
  else Atomic.incr row_dropped_c

let with_row n f =
  let a = acquire n in
  Fun.protect ~finally:(fun () -> release a) (fun () -> f a)

(* Slabs --------------------------------------------------------------- *)

let slab_bucket_for st k =
  match Hashtbl.find_opt st.slabs k with
  | Some b -> b
  | None ->
      let b = { sfree = []; sdepth = 0 } in
      Hashtbl.add st.slabs k b;
      b

let fresh_slab ~n ~limbs = Array.init limbs (fun _ -> Array.make n 0)

let acquire_slab ~n ~limbs =
  if not !enabled_v then fresh_slab ~n ~limbs
  else
    let b = slab_bucket_for (local ()) (n, limbs) in
    match b.sfree with
    | s :: rest ->
        b.sfree <- rest;
        b.sdepth <- b.sdepth - 1;
        if !debug_v then Array.iter (check_poisoned "slab") s;
        Atomic.incr slab_hits_c;
        s
    | [] ->
        Atomic.incr slab_misses_c;
        fresh_slab ~n ~limbs

let acquire_slab_zeroed ~n ~limbs =
  let s = acquire_slab ~n ~limbs in
  Array.iter (fun row -> Array.fill row 0 (Array.length row) 0) s;
  s

let release_slab s =
  let limbs = Array.length s in
  if (not !enabled_v) || limbs = 0 then Atomic.incr slab_dropped_c
  else begin
    let n = Array.length s.(0) in
    let b = slab_bucket_for (local ()) (n, limbs) in
    if b.sdepth >= max_slabs_per_bucket then Atomic.incr slab_dropped_c
    else begin
      if !debug_v then begin
        if List.memq s b.sfree then
          failwith
            (Printf.sprintf "Limb_pool: double release of a %dx%d slab" limbs n);
        Array.iter poison_row s
      end;
      b.sfree <- s :: b.sfree;
      b.sdepth <- b.sdepth + 1;
      Atomic.incr slab_releases_c
    end
  end
