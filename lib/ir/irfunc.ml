type node = {
  id : int;
  op : Op.t;
  args : int array;
  ty : Types.t;
  mutable scale : float;
  mutable node_level : int;
  mutable origin : string; (* provenance: the NN operator this serves *)
}

type t = {
  fn_name : string;
  fn_level : Level.t;
  fn_params : (string * Types.t) array;
  mutable nodes : node array;
  mutable count : int;
  mutable rets : int list;
  consts : (string, float array * int array) Hashtbl.t;
  mutable gensym : int;
}

let dummy_node = { id = 0; op = Op.Param 0; args = [||]; ty = Types.Scalar; scale = 0.0; node_level = -1; origin = "" }

let name t = t.fn_name
let level t = t.fn_level
let params t = t.fn_params

let grow t =
  if t.count = Array.length t.nodes then begin
    let bigger = Array.make (2 * t.count) t.nodes.(0) in
    Array.blit t.nodes 0 bigger 0 t.count;
    t.nodes <- bigger
  end

let add t op args ty =
  Array.iter (fun a -> if a < 0 || a >= t.count then invalid_arg "Irfunc.add: bad arg id") args;
  (match Op.arity op with
  | Some n when n <> Array.length args ->
    invalid_arg (Printf.sprintf "Irfunc.add: %s expects %d args" (Op.name op) n)
  | _ -> ());
  grow t;
  let id = t.count in
  t.nodes.(id) <- { id; op; args = Array.copy args; ty; scale = 0.0; node_level = -1; origin = "" };
  t.count <- id + 1;
  id

let create ~name ~level ~params =
  let fn_params = Array.of_list params in
  let t =
    {
      fn_name = name;
      fn_level = level;
      fn_params;
      nodes = Array.make 16 dummy_node;
      count = 0;
      rets = [];
      consts = Hashtbl.create 16;
      gensym = 0;
    }
  in
  (* Parameter nodes occupy ids 0 .. num_params-1. *)
  Array.iteri (fun i (_, ty) -> ignore (add t (Op.Param i) [||] ty)) fn_params;
  t

let param t i =
  if i < 0 || i >= Array.length t.fn_params then invalid_arg "Irfunc.param";
  i

let node t i =
  if i < 0 || i >= t.count then invalid_arg "Irfunc.node";
  t.nodes.(i)

let num_nodes t = t.count

let truncate t n =
  if n < Array.length t.fn_params || n > t.count then invalid_arg "Irfunc.truncate";
  if List.exists (fun r -> r >= n) t.rets then invalid_arg "Irfunc.truncate: drops a return";
  Array.fill t.nodes n (t.count - n) dummy_node;
  t.count <- n

let iter t f =
  for i = 0 to t.count - 1 do
    f t.nodes.(i)
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun n -> acc := f !acc n);
  !acc

let set_returns t rets =
  List.iter (fun r -> if r < 0 || r >= t.count then invalid_arg "Irfunc.set_returns") rets;
  t.rets <- rets

let returns t = t.rets

let add_const t name ?(dims = [||]) data =
  match Hashtbl.find_opt t.consts name with
  | Some (old, _) when old = data -> ()
  | Some _ -> invalid_arg (Printf.sprintf "Irfunc.add_const: %s redefined" name)
  | None -> Hashtbl.add t.consts name (data, dims)

let fresh_const t ~prefix ?(dims = [||]) data =
  t.gensym <- t.gensym + 1;
  let name = Printf.sprintf "%s_%d" prefix t.gensym in
  add_const t name ~dims data;
  name

let const t name =
  match Hashtbl.find_opt t.consts name with
  | Some (d, _) -> d
  | None -> invalid_arg (Printf.sprintf "Irfunc.const: unknown %s" name)

let const_dims t name =
  match Hashtbl.find_opt t.consts name with
  | Some (_, dims) -> dims
  | None -> invalid_arg (Printf.sprintf "Irfunc.const_dims: unknown %s" name)

let const_names t = Hashtbl.fold (fun k _ acc -> k :: acc) t.consts [] |> List.sort compare
let has_const t name = Hashtbl.mem t.consts name

let uses t =
  let u = Array.make (max 1 t.count) 0 in
  iter t (fun n -> Array.iter (fun a -> u.(a) <- u.(a) + 1) n.args);
  List.iter (fun r -> u.(r) <- u.(r) + 1) t.rets;
  u

let map_rebuild src ~name ~level ~params ~emit =
  let dst = create ~name ~level ~params in
  (* Force param nodes so lowering can reference them. *)
  if params <> [] then ignore (param dst 0);
  Hashtbl.iter (fun k (d, dims) -> add_const dst k ~dims d) src.consts;
  let map = Array.make (max 1 src.count) (-1) in
  let lookup i =
    if map.(i) < 0 then invalid_arg "Irfunc.map_rebuild: forward reference";
    map.(i)
  in
  iter src (fun n -> map.(n.id) <- emit dst lookup n);
  set_returns dst (List.map lookup src.rets);
  dst
