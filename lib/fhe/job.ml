open Effect
open Effect.Deep

type _ Effect.t += Pause : unit Effect.t

exception Aborted

(* Seconds a computation has spent suspended. The clock of the
   computation running on this domain is what [idle] reads; outside any
   [run] it is absent and [pause] does nothing. *)
type clock = { mutable idle : float }

let current : clock option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let pause () = match Domain.DLS.get current with None -> () | Some _ -> perform Pause
let idle () = match Domain.DLS.get current with None -> 0.0 | Some c -> c.idle

let guard ~cleanup f =
  match f () with
  | v -> v
  | exception Aborted ->
    cleanup ();
    raise Aborted

type 'a t = {
  clock : clock;
  mutable deadline : float;
  mutable paused_at : float;
  mutable k : (unit, 'a outcome) continuation option;
}

and 'a outcome = Done of 'a | Paused of 'a t

(* The handler stays installed for the computation's whole life (a deep
   handler travels with its continuation), so the deadline it compares
   against is a field that [resume] moves. *)
let handler j =
  {
    retc = (fun v -> Done v);
    exnc = raise;
    effc =
      (fun (type b) (e : b Effect.t) ->
        match e with
        | Pause ->
          Some
            (fun (k : (b, _) continuation) ->
              let now = Unix.gettimeofday () in
              if now >= j.deadline then begin
                j.k <- Some k;
                j.paused_at <- now;
                Paused j
              end
              else continue k ())
        | _ -> None);
  }

let with_clock c f =
  let saved = Domain.DLS.get current in
  Domain.DLS.set current (Some c);
  Fun.protect ~finally:(fun () -> Domain.DLS.set current saved) f

let run ~until f =
  let j = { clock = { idle = 0.0 }; deadline = until; paused_at = 0.0; k = None } in
  with_clock j.clock (fun () -> match_with f () (handler j))

let take j =
  match j.k with
  | Some k ->
    j.k <- None;
    k
  | None -> invalid_arg "Job: the computation is not suspended"

let resume j ~until =
  let k = take j in
  j.deadline <- until;
  j.clock.idle <- j.clock.idle +. (Unix.gettimeofday () -. j.paused_at);
  with_clock j.clock (fun () -> continue k ())

let abort j =
  let k = take j in
  with_clock j.clock (fun () ->
      match discontinue k Aborted with _ -> () | exception Aborted -> ())
