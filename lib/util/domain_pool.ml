(* One shared pool of [size - 1] worker domains plus the calling domain.
   A parallel call publishes a chunked job under [m], bumps [generation]
   and broadcasts; workers (and the caller) then race to claim chunk
   indices from [next]. Completion is a count-down on [remaining]. Workers
   that wake late simply find [next >= num_chunks] and go back to sleep,
   so a stale wake-up can never corrupt a later job: the chunk function is
   read under the same lock as the claimed index. *)

type pool = {
  m : Mutex.t;
  cv_work : Condition.t;
  cv_done : Condition.t;
  mutable generation : int;
  mutable chunk_fn : int -> unit;
  mutable num_chunks : int;
  mutable next : int;
  mutable remaining : int;
  mutable error : exn option;
  mutable stop : bool;
  mutable workers : unit Domain.t array;
}

(* Oversubscription is honoured but flagged: more domains than cores just
   time-slices the same silicon, and every parallel loop's join then waits
   on a descheduled worker. Warned once — the knob is read once per process —
   and counted so a fleet's telemetry can find misconfigured hosts. *)
let warned_oversubscribed = ref false

let warn_oversubscribed n =
  if not !warned_oversubscribed then begin
    warned_oversubscribed := true;
    let cores = Domain.recommended_domain_count () in
    Ace_telemetry.Telemetry.incr
      (Ace_telemetry.Telemetry.metric "domains.oversubscribed");
    Printf.eprintf
      "[ace] warning: ACE_DOMAINS=%d exceeds the %d core%s this host \
       recommends; workers will time-slice and barrier latency will suffer\n\
       %!"
      n cores (if cores = 1 then "" else "s")
  end

let default_size () =
  match Sys.getenv_opt "ACE_DOMAINS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 ->
       if n > Domain.recommended_domain_count () then warn_oversubscribed n;
       n
     | _ -> invalid_arg "ACE_DOMAINS must be a positive integer")
  | None -> Domain.recommended_domain_count ()

let requested = ref None (* lazily resolved so tests can set the env first *)

let target_size () =
  match !requested with
  | Some n -> n
  | None ->
    let n = default_size () in
    requested := Some n;
    n

(* A single running job at a time: a call made while a job runs (a
   key-switch digit loop around per-limb NTTs, say) runs inline instead
   of waiting on the pool it is already part of, which would deadlock. *)
let busy = Atomic.make false

let the_pool = ref None

let rec drain p =
  Mutex.lock p.m;
  if p.next >= p.num_chunks then Mutex.unlock p.m
  else begin
    let idx = p.next in
    p.next <- idx + 1;
    let fn = p.chunk_fn in
    Mutex.unlock p.m;
    (try fn idx
     with e ->
       Mutex.lock p.m;
       if p.error = None then p.error <- Some e;
       Mutex.unlock p.m);
    Mutex.lock p.m;
    p.remaining <- p.remaining - 1;
    if p.remaining = 0 then Condition.broadcast p.cv_done;
    Mutex.unlock p.m;
    drain p
  end

let worker p =
  let rec loop my_gen =
    Mutex.lock p.m;
    while p.generation = my_gen && not p.stop do
      Condition.wait p.cv_work p.m
    done;
    if p.stop then Mutex.unlock p.m
    else begin
      let gen = p.generation in
      Mutex.unlock p.m;
      drain p;
      loop gen
    end
  in
  loop 0

let make_pool n =
  let p =
    {
      m = Mutex.create ();
      cv_work = Condition.create ();
      cv_done = Condition.create ();
      generation = 0;
      chunk_fn = ignore;
      num_chunks = 0;
      next = 0;
      remaining = 0;
      error = None;
      stop = false;
      workers = [||];
    }
  in
  p.workers <- Array.init (n - 1) (fun _ -> Domain.spawn (fun () -> worker p));
  p

let shutdown () =
  match !the_pool with
  | None -> ()
  | Some p ->
    Mutex.lock p.m;
    p.stop <- true;
    Condition.broadcast p.cv_work;
    Mutex.unlock p.m;
    Array.iter Domain.join p.workers;
    the_pool := None

let () = at_exit shutdown

let size () = target_size ()

let set_num_domains n =
  if n < 1 then invalid_arg "Domain_pool.set_num_domains";
  shutdown ();
  requested := Some n

let get_pool () =
  match !the_pool with
  | Some p -> p
  | None ->
    let p = make_pool (target_size ()) in
    the_pool := Some p;
    p

let run_seq n fn =
  for i = 0 to n - 1 do
    fn i
  done

(* Publish [num_chunks] claims of [chunk_fn] to the pool, join, re-raise the
   first error. The caller has already won the [busy] flag. *)
let run_job ~num_chunks chunk_fn =
  let pool = get_pool () in
  Mutex.lock pool.m;
  pool.chunk_fn <- chunk_fn;
  pool.num_chunks <- num_chunks;
  pool.next <- 0;
  pool.remaining <- num_chunks;
  pool.error <- None;
  pool.generation <- pool.generation + 1;
  Condition.broadcast pool.cv_work;
  Mutex.unlock pool.m;
  drain pool;
  Mutex.lock pool.m;
  while pool.remaining > 0 do
    Condition.wait pool.cv_done pool.m
  done;
  let err = pool.error in
  Mutex.unlock pool.m;
  match err with Some e -> raise e | None -> ()

(* Work is split into contiguous chunks so neighbouring indices (which
   usually touch neighbouring rows) stay on one domain. Small iteration
   spaces (limbs) get one chunk per index.

   [min_chunk] is the grain-size floor: iteration spaces of at most
   [min_chunk] indices run inline in the caller (publishing a job and
   waking workers costs more than a handful of cheap bodies — the PR 1
   scaling pair measured a 4-domain inference *slower* than sequential
   because light per-limb kernels paid that wake-up on every call), and
   larger spaces never get chunks smaller than it. *)
let parallel_for ?(min_chunk = 1) n fn =
  if n <= 0 then ()
  else
    let p = target_size () in
    if p = 1 || n = 1 || n <= min_chunk then run_seq n fn
    else if not (Atomic.compare_and_set busy false true) then run_seq n fn
    else
      Fun.protect
        ~finally:(fun () -> Atomic.set busy false)
        (fun () ->
          let grain = max (max 1 min_chunk) (n / (4 * p)) in
          let num_chunks = (n + grain - 1) / grain in
          let chunk_fn c =
            let lo = c * grain in
            let hi = min n (lo + grain) in
            for i = lo to hi - 1 do
              fn i
            done
          in
          run_job ~num_chunks chunk_fn)

let init ?(min_chunk = 1) n f =
  if n = 0 then [||]
  else begin
    (* First element computed inline both to fix the array's representation
       (floats vs boxes) and to keep the zero-parallelism case allocation
       shaped exactly like Array.init. *)
    let first = f 0 in
    let out = Array.make n first in
    parallel_for ~min_chunk (n - 1) (fun i -> out.(i + 1) <- f (i + 1));
    out
  end

let map ?min_chunk f a = init ?min_chunk (Array.length a) (fun i -> f a.(i))
let mapi ?min_chunk f a = init ?min_chunk (Array.length a) (fun i -> f i a.(i))
