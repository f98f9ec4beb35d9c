module Rng = Ace_util.Rng

let refresh keys ~rng ~target_level ct =
  let ctx = keys.Keys.context in
  if target_level < 0 || target_level > Context.max_level ctx then
    invalid_arg "Bootstrap.refresh: bad target level";
  let dec = Eval.decrypt keys ct in
  let values = Encoder.decode_complex ctx dec in
  Ciphertext.release_pt dec;
  let pt = Encoder.encode_complex ctx ~level:target_level ~scale:(Context.scale ctx) values in
  let out = Eval.encrypt keys ~rng pt in
  Ciphertext.release_pt pt;
  out

(* Randomness is derived from the caller-supplied ordinal (the VM passes
   the bootstrap's IR node id), not from an invocation counter: the same
   program bootstrapping the same node then draws the same rng whatever
   the execution order or how many runs preceded it, which is what keeps
   interleaved executions of one VM bit-identical to solo runs. *)
let refresh_impl keys ~seed ~ordinal ~target_level ct =
  let rng = Rng.create (seed + (1_000_003 * (ordinal + 1))) in
  refresh keys ~rng ~target_level ct
