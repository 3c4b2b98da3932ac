open Dsm_memory
module Machine = Dsm_rdma.Machine

type layout = Block | Cyclic | On_node of int

type t = {
  env : Env.t;
  name : string;
  len : int;
  layout : layout;
  n : int;
  block : int; (* ceil(len/n), used by Block *)
  chunks : Addr.region option array; (* per node *)
  scratch : Addr.region array; (* one private staging element per node *)
}

let chunk_size ~len ~n ~block layout node =
  match layout with
  | Block ->
      let lo = node * block in
      let hi = min len ((node + 1) * block) in
      max 0 (hi - lo)
  | Cyclic -> ((len - node - 1) / n) + if node < len then 1 else 0
  | On_node p -> if node = p then len else 0

let create env ~name ~len ?(layout = Block) () =
  if len < 1 then invalid_arg "Shared_array.create: len must be positive";
  let m = Env.machine env in
  let n = Machine.n m in
  (match layout with
  | On_node p when p < 0 || p >= n ->
      invalid_arg "Shared_array.create: On_node pid out of range"
  | On_node _ | Block | Cyclic -> ());
  let block = (len + n - 1) / n in
  let chunks =
    Array.init n (fun node ->
        let size = chunk_size ~len ~n ~block layout node in
        if size = 0 then None
        else
          Some
            (Machine.alloc_public m ~pid:node
               ~name:(Printf.sprintf "%s@%d" name node)
               ~len:size ()))
  in
  let scratch =
    Array.init n (fun node ->
        Machine.alloc_private m ~pid:node
          ~name:(Printf.sprintf "%s.scratch" name)
          ~len:1 ())
  in
  let t = { env; name; len; layout; n; block; chunks; scratch } in
  (* Register every element as one shared datum. *)
  (match Env.detector env with
  | None -> ()
  | Some _ ->
      for node = 0 to n - 1 do
        match chunks.(node) with
        | None -> ()
        | Some (c : Addr.region) ->
            for e = 0 to c.len - 1 do
              Env.register env
                (Addr.region ~pid:node ~space:Addr.Public
                   ~offset:(c.base.offset + e) ~len:1)
            done
      done);
  t

let length t = t.len

let check_index t i =
  if i < 0 || i >= t.len then invalid_arg "Shared_array: index out of bounds"

let owner t i =
  check_index t i;
  match t.layout with
  | Block -> i / t.block
  | Cyclic -> i mod t.n
  | On_node p -> p

let local_index t i =
  match t.layout with
  | Block -> i mod t.block
  | Cyclic -> i / t.n
  | On_node _ -> i

let region_of t i =
  check_index t i;
  let node = owner t i in
  match t.chunks.(node) with
  | None -> assert false (* an owned element implies a non-empty chunk *)
  | Some (c : Addr.region) ->
      Addr.region ~pid:node ~space:Addr.Public
        ~offset:(c.base.offset + local_index t i) ~len:1

let memory t pid = Machine.node (Env.machine t.env) pid

let read t p i =
  let dst = t.scratch.(Machine.pid p) in
  Env.get t.env p ~src:(region_of t i) ~dst;
  (Node_memory.read (memory t (Machine.pid p)) dst).(0)

let write t p i v =
  let src = t.scratch.(Machine.pid p) in
  Node_memory.write (memory t (Machine.pid p)) src [| v |];
  Env.put t.env p ~src ~dst:(region_of t i)

let peek t i =
  let r = region_of t i in
  (Node_memory.read (memory t r.base.pid) r).(0)

let poke t i v =
  let r = region_of t i in
  Node_memory.write (memory t r.base.pid) r [| v |]

let my_indices t ~pid =
  List.filter (fun i -> owner t i = pid) (List.init t.len (fun i -> i))
