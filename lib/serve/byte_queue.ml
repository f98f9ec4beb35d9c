(* Live bytes are [buf.[start] .. buf.[stop - 1]]. *)
type t = { mutable buf : Bytes.t; mutable start : int; mutable stop : int }

let initial_bytes = 4096
let create () = { buf = Bytes.create initial_bytes; start = 0; stop = 0 }
let length q = q.stop - q.start

(* Make room for [n] more bytes past [stop]. *)
let reserve q n =
  let cap = Bytes.length q.buf in
  if q.stop + n > cap then begin
    let live = length q in
    let dst =
      if 2 * q.start >= q.stop && live + n <= cap then q.buf
      else Bytes.create (max (live + n) (2 * cap))
    in
    Bytes.blit q.buf q.start dst 0 live;
    q.buf <- dst;
    q.start <- 0;
    q.stop <- live
  end

let add_string q s =
  let n = String.length s in
  reserve q n;
  Bytes.blit_string s 0 q.buf q.stop n;
  q.stop <- q.stop + n

let sub q off n =
  if off < 0 || n < 0 || off + n > length q then invalid_arg "Byte_queue.sub";
  Bytes.sub_string q.buf (q.start + off) n

let consume q n =
  if n < 0 || n > length q then invalid_arg "Byte_queue.consume";
  q.start <- q.start + n;
  if q.start = q.stop then begin
    q.start <- 0;
    q.stop <- 0;
    if Bytes.length q.buf > 1 lsl 20 then q.buf <- Bytes.create initial_bytes
  end

let read q fd =
  reserve q 65536;
  let n = Unix.read fd q.buf q.stop (Bytes.length q.buf - q.stop) in
  q.stop <- q.stop + n;
  n

let write q fd =
  let n = Unix.write fd q.buf q.start (length q) in
  consume q n;
  n
