exception Error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

(* One writer type serves three roles: growable ([writer ()]), counting
   (the first pass of [encode]: it advances [len] and stores nothing) and
   exactly sized (the second pass of [encode], which never grows). *)
type writer = { mutable buf : Bytes.t; mutable len : int; counting : bool }

let writer () = { buf = Bytes.create 256; len = 0; counting = false }
let contents w = Bytes.sub_string w.buf 0 w.len

(* Claim [n] bytes and return their offset, or -1 in a counting pass. *)
let claim w n =
  let off = w.len in
  w.len <- off + n;
  if w.counting then -1
  else begin
    if w.len > Bytes.length w.buf then begin
      let b = Bytes.create (max w.len (2 * Bytes.length w.buf)) in
      Bytes.blit w.buf 0 b 0 off;
      w.buf <- b
    end;
    off
  end

let size f =
  let w = { buf = Bytes.empty; len = 0; counting = true } in
  f w;
  w.len

let encode f =
  let n = size f in
  let w = { buf = Bytes.create n; len = 0; counting = false } in
  f w;
  if w.len <> n then
    invalid_arg (Printf.sprintf "Bytesio.encode: counted %d bytes, wrote %d" n w.len);
  Bytes.unsafe_to_string w.buf

let w_u8 w v =
  if v < 0 || v > 0xff then invalid_arg (Printf.sprintf "Bytesio.w_u8: %d" v);
  let o = claim w 1 in
  if o >= 0 then Bytes.set_uint8 w.buf o v

let w_u16 w v =
  if v < 0 || v > 0xffff then invalid_arg (Printf.sprintf "Bytesio.w_u16: %d" v);
  let o = claim w 2 in
  if o >= 0 then Bytes.set_uint16_le w.buf o v

let w_u32 w v =
  if v < 0 || v > 0xffff_ffff then invalid_arg (Printf.sprintf "Bytesio.w_u32: %d" v);
  let o = claim w 4 in
  if o >= 0 then Bytes.set_int32_le w.buf o (Int32.of_int v)

let w_i64 w v =
  let o = claim w 8 in
  if o >= 0 then Bytes.set_int64_le w.buf o (Int64.of_int v)

let w_f64 w v =
  let o = claim w 8 in
  if o >= 0 then Bytes.set_int64_le w.buf o (Int64.bits_of_float v)

let w_bool w v = w_u8 w (if v then 1 else 0)

let w_bytes w s =
  let o = claim w (String.length s) in
  if o >= 0 then Bytes.blit_string s 0 w.buf o (String.length s)

let w_string w s =
  w_u32 w (String.length s);
  w_bytes w s

(* Arrays claim their whole extent at once, so a counting pass costs one
   step per array, not one per element. *)
let w_i64s w a =
  let o = claim w (8 * Array.length a) in
  if o >= 0 then Array.iteri (fun i v -> Bytes.set_int64_le w.buf (o + (8 * i)) (Int64.of_int v)) a

let w_int_array w a =
  w_u32 w (Array.length a);
  w_i64s w a

let w_float_array w a =
  w_u32 w (Array.length a);
  let o = claim w (8 * Array.length a) in
  if o >= 0 then
    Array.iteri (fun i v -> Bytes.set_int64_le w.buf (o + (8 * i)) (Int64.bits_of_float v)) a

type reader = { data : string; mutable rpos : int }

let reader data = { data; rpos = 0 }
let pos r = r.rpos
let remaining r = String.length r.data - r.rpos

let need r n =
  if n < 0 then fail "negative length";
  if remaining r < n then
    fail "truncated buffer: need %d bytes at offset %d, have %d" n r.rpos (remaining r)

let r_u8 r =
  need r 1;
  let v = Char.code (String.unsafe_get r.data r.rpos) in
  r.rpos <- r.rpos + 1;
  v

let r_u16 r =
  need r 2;
  let v = String.get_uint16_le r.data r.rpos in
  r.rpos <- r.rpos + 2;
  v

let r_u32 r =
  need r 4;
  let v = Int32.to_int (String.get_int32_le r.data r.rpos) land 0xffff_ffff in
  r.rpos <- r.rpos + 4;
  v

let r_i64 r =
  need r 8;
  let v = String.get_int64_le r.data r.rpos in
  r.rpos <- r.rpos + 8;
  Int64.to_int v

let r_f64 r =
  need r 8;
  let v = Int64.float_of_bits (String.get_int64_le r.data r.rpos) in
  r.rpos <- r.rpos + 8;
  v

let r_bool r =
  match r_u8 r with
  | 0 -> false
  | 1 -> true
  | v -> fail "bad boolean byte %d" v

let r_bytes r n =
  need r n;
  let s = String.sub r.data r.rpos n in
  r.rpos <- r.rpos + n;
  s

let r_string r =
  let n = r_u32 r in
  r_bytes r n

(* Length prefixes are validated against the remaining bytes BEFORE
   allocating, so a corrupted count can neither over-allocate nor escape
   as a partially-filled array. *)
let r_int_array r =
  let n = r_u32 r in
  need r (8 * n);
  Array.init n (fun _ -> r_i64 r)

let r_float_array r =
  let n = r_u32 r in
  need r (8 * n);
  Array.init n (fun _ -> r_f64 r)

let r_end r = if remaining r <> 0 then fail "%d trailing bytes at offset %d" (remaining r) r.rpos

let decode f s =
  match
    let r = reader s in
    let v = f r in
    r_end r;
    v
  with
  | v -> Ok v
  | exception Error m -> Result.Error m
