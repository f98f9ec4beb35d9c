(* Validate a Chrome trace_event file emitted by Ace_telemetry: CI runs a
   traced smoke inference and this checker proves the artifact is what
   chrome://tracing expects — well-formed JSON, a non-empty traceEvents
   array of complete events with numeric ts/dur/tid, and (with --min-tids)
   spans from at least that many distinct domains.

   --count-of NAME validates as usual but then prints only the number of
   events named exactly NAME, so shell scripts can compare op counts
   across traces (CI asserts the fhe.relinearize count drops between an
   ACE_LAZY=0 and an ACE_LAZY=1 run of the same model).

   --no-drops fails the check when the trace's top-level droppedEvents
   member is nonzero (a shard's span buffer hit its cap, so the artifact
   is silently truncated). Traces from before the member existed count
   as zero drops.

     check_trace TRACE.json [--min-tids N] [--require NAME] [--count-of NAME]
                 [--no-drops] *)

module Json = Ace_telemetry.Json_lite

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("check_trace: " ^ m); exit 1) fmt

let () =
  let path = ref None in
  let min_tids = ref 1 in
  let required = ref [] in
  let count_of = ref None in
  let no_drops = ref false in
  let rec parse_args = function
    | [] -> ()
    | "--min-tids" :: v :: rest ->
      min_tids := int_of_string v;
      parse_args rest
    | "--require" :: name :: rest ->
      required := name :: !required;
      parse_args rest
    | "--count-of" :: name :: rest ->
      count_of := Some name;
      parse_args rest
    | "--no-drops" :: rest ->
      no_drops := true;
      parse_args rest
    | arg :: rest when !path = None && String.length arg > 0 && arg.[0] <> '-' ->
      path := Some arg;
      parse_args rest
    | arg :: _ -> die "unknown argument %s" arg
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let path = match !path with Some p -> p | None -> die "usage: check_trace TRACE.json" in
  let doc = try Json.parse_file path with Json.Parse_error m -> die "%s: bad JSON: %s" path m in
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.Arr evs) -> evs
    | Some _ -> die "%s: traceEvents is not an array" path
    | None -> die "%s: no traceEvents member" path
  in
  if events = [] then die "%s: empty traceEvents" path;
  if !no_drops then begin
    let dropped =
      match Json.member "droppedEvents" doc with
      | Some (Json.Num n) -> int_of_float n
      | Some _ -> die "%s: droppedEvents is not a number" path
      | None -> 0
    in
    if dropped > 0 then
      die "%s: %d spans dropped (event buffer overflow) — trace is truncated" path dropped
  end;
  let tids = Hashtbl.create 8 in
  let names = Hashtbl.create 64 in
  List.iteri
    (fun i ev ->
      let str k =
        match Json.member k ev with
        | Some (Json.Str s) -> s
        | _ -> die "%s: event %d: missing string %s" path i k
      in
      let num k =
        match Json.member k ev with
        | Some (Json.Num n) -> n
        | _ -> die "%s: event %d: missing number %s" path i k
      in
      if str "ph" <> "X" then die "%s: event %d: ph <> X" path i;
      (let name = str "name" in
       Hashtbl.replace names name
         (1 + Option.value ~default:0 (Hashtbl.find_opt names name)));
      ignore (str "cat");
      if num "ts" < 0.0 then die "%s: event %d: negative ts" path i;
      if num "dur" < 0.0 then die "%s: event %d: negative dur" path i;
      Hashtbl.replace tids (num "tid") ())
    events;
  let distinct_tids = Hashtbl.length tids in
  if distinct_tids < !min_tids then
    die "%s: %d distinct tids, need >= %d" path distinct_tids !min_tids;
  List.iter
    (fun name -> if not (Hashtbl.mem names name) then die "%s: no span named %s" path name)
    !required;
  match !count_of with
  | Some name ->
    Printf.printf "%d\n" (Option.value ~default:0 (Hashtbl.find_opt names name))
  | None ->
    Printf.printf "check_trace: %s OK (%d events, %d tids, %d span names)\n" path
      (List.length events) distinct_tids (Hashtbl.length names)
