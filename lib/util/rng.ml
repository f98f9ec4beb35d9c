(* The 64-bit state lives unboxed in 8 bytes, read and written with the
   unchecked native-order primitives: a [mutable int64] field, or the
   library's checked accessors, box a fresh int64 on every draw. The
   byte order of the state is private, so the stream is the same on any
   host. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let create seed =
  let t = Bytes.create 8 in
  set64 t 0 (Int64.of_int seed);
  t

(* splitmix64: Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators", OOPSLA 2014. Inlined into every sampler so the int64
   intermediates stay in registers. *)
let[@inline] next t =
  let s = Int64.add (get64 t 0) 0x9E3779B97F4A7C15L in
  set64 t 0 s;
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t = next t

let split t =
  let s = Bytes.create 8 in
  set64 s 0 (next t);
  s

(* Rejection sampling over the top 62 bits keeps the result unbiased. *)
let mask62 = 0x3FFF_FFFF_FFFF_FFFF

let rec int_below t bound =
  let r = Int64.to_int (next t) land mask62 in
  let v = r mod bound in
  if r - v > mask62 - bound + 1 then int_below t bound else v

let int t bound =
  assert (bound > 0);
  int_below t bound

let float t x =
  let r = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  let u = float_of_int r /. 9007199254740992.0 (* 2^53 *) in
  u *. x

let gaussian t sigma =
  let rec nonzero () =
    let u = float t 1.0 in
    if u = 0.0 then nonzero () else u
  in
  let u1 = nonzero () and u2 = float t 1.0 in
  sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let ternary t = int t 3 - 1

let centered_binomial t k =
  let acc = ref 0 in
  for _ = 1 to k do
    acc := !acc + int t 2 - int t 2
  done;
  !acc
