module Json = Ace_telemetry.Json_lite
module Qsketch = Ace_telemetry.Qsketch

let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* statistics.quantiles(xs, n=4), method='exclusive', in Python's exact
   integer arithmetic, so compare and the acceptance check agree. *)
let quartiles xs =
  let a = sorted_array xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let rel_spread xs =
  let q1, med, q3 = quartiles xs in
  (q3 -. q1) /. abs_float med

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* Per-mille steps keep the "ten samples beyond" test in integers:
   0.9 *. 100. is not exactly 90. *)
let tail_rank n =
  List.find_map
    (fun pm -> if n * (1000 - pm) >= 10_000 then Some (float_of_int pm /. 1000.0) else None)
    [ 999; 990; 950; 900 ]

let tail samples =
  (* five windows: a stall must spoil three of them to move the median *)
  let windows = 5 in
  let all = Array.of_list (List.sort compare (List.map snd samples)) in
  match tail_rank (Array.length all / windows) with
  | None -> (0.5, percentile all 0.5)
  | Some q ->
    let t0 = List.fold_left (fun m (t, _) -> Float.min m t) infinity samples in
    let t1 = List.fold_left (fun m (t, _) -> Float.max m t) neg_infinity samples in
    let width = (t1 -. t0) /. float_of_int windows in
    let window k =
      let lo = t0 +. (float_of_int k *. width) in
      List.filter_map
        (fun (t, v) -> if t >= lo && (t < lo +. width || k = windows - 1) then Some v else None)
        samples
    in
    let tails =
      List.init windows (fun k ->
          let w = Array.of_list (List.sort compare (window k)) in
          if Array.length w = 0 then nan else percentile w q)
    in
    (q, median tails)

(* A Poisson process conditioned on its count: rate * duration arrival
   times drawn uniformly and sorted. The count is fixed, so seeds differ
   only in where the bursts fall. *)
let poisson_schedule ~seed ~rate ~duration =
  let st = Random.State.make [| seed; 0x5eed |] in
  let n = int_of_float (Float.round (rate *. duration)) in
  let a = Array.init n (fun _ -> Random.State.float st duration) in
  Array.sort compare a;
  a

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

let classify ~lower_is_better ~bound ~base ~change =
  let better x y = if lower_is_better then x < y else x > y in
  let all_better = List.for_all (fun c -> List.for_all (fun b -> better c b) base) change in
  let q1, mb, q3 = quartiles base in
  let mc = median change in
  let gain = if lower_is_better then mb -. mc else mc -. mb in
  if rel_spread base > bound || rel_spread change > bound then
    if all_better then Improved else Unresolved
  else if -.gain > bound *. abs_float mb then Regressed
  else if gain > q3 -. q1 then Improved
  else Unchanged

type flushed = { f_count : int; f_sketch : Qsketch.t option }

let merge_jsonl ?since lines =
  let tbl = Hashtbl.create 64 in
  let dropped = ref 0 in
  let num key doc =
    match Json.member key doc with Some (Json.Num v) -> Some v | _ -> None
  in
  let merge_line line =
    let doc = try Json.parse line with Json.Parse_error m -> failwith ("bad flush line: " ^ m) in
    let ts =
      match num "ts" doc with Some t -> t | None -> failwith "flush line without ts"
    in
    if match since with Some s -> ts > s | None -> true then begin
      Option.iter (fun d -> dropped := !dropped + int_of_float d) (num "dropped_events" doc);
      match Json.member "metrics" doc with
      | Some (Json.Obj entries) ->
        List.iter
          (fun (name, entry) ->
            let count = Option.fold ~none:0 ~some:int_of_float (num "count" entry) in
            let sketch = Option.map Qsketch.of_json (Json.member "sketch" entry) in
            let merged =
              match (Hashtbl.find_opt tbl name, sketch) with
              | None, _ -> { f_count = count; f_sketch = sketch }
              | Some old, None -> { old with f_count = old.f_count + count }
              | Some { f_count; f_sketch = None }, Some _ ->
                { f_count = f_count + count; f_sketch = sketch }
              | Some { f_count; f_sketch = Some dst }, Some src ->
                Qsketch.merge dst src;
                { f_count = f_count + count; f_sketch = Some dst }
            in
            Hashtbl.replace tbl name merged)
          entries
      | _ -> failwith "flush line without metrics"
    end
  in
  List.iter (fun l -> if String.trim l <> "" then merge_line l) lines;
  (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []), !dropped)

let flushed_sum m name =
  match List.assoc_opt name m with
  | Some { f_sketch = Some q; _ } -> Qsketch.sum q
  | _ -> 0.0

let flushed_count m name =
  match List.assoc_opt name m with
  | Some { f_count; f_sketch } ->
    max f_count (match f_sketch with Some q -> Qsketch.count q | None -> 0)
  | None -> 0

let flushed_quantile m name q =
  match List.assoc_opt name m with
  | Some { f_sketch = Some s; _ } -> Qsketch.quantile s q
  | _ -> 0.0

let cpu_list s =
  List.concat_map
    (fun part ->
      match String.split_on_char '-' (String.trim part) with
      | [ "" ] -> []
      | [ a ] -> [ int_of_string a ]
      | [ a; b ] -> List.init (int_of_string b - int_of_string a + 1) (fun i -> int_of_string a + i)
      | _ -> failwith ("bad CPU list " ^ s))
    (String.split_on_char ',' s)

let input_lines ic =
  let rec go acc =
    match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
  in
  go []

let read_lines path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> input_lines ic)
