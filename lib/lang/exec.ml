open Dsm_memory
module Machine = Dsm_rdma.Machine
module Detector = Dsm_core.Detector

exception Runtime_error of string

type runtime = {
  machine : Machine.t;
  n : int;
  arrays : (string, Addr.region array) Hashtbl.t; (* element regions *)
  collectives : Dsm_pgas.Collectives.t;
}

let fail fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

let element rt name idx =
  match Hashtbl.find_opt rt.arrays name with
  | None -> fail "unknown shared array %S" name
  | Some elems ->
      if idx < 0 || idx >= Array.length elems then
        fail "%s[%d] out of bounds (length %d)" name idx (Array.length elems);
      elems.(idx)

let interpret rt ~detector p body =
  let pid = Machine.pid p in
  let scratch = Machine.alloc_private rt.machine ~pid ~len:1 () in
  let vars : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let read_scratch () =
    (Node_memory.read (Machine.node rt.machine pid) scratch).(0)
  in
  let write_scratch v =
    Node_memory.write (Machine.node rt.machine pid) scratch [| v |]
  in
  let data_op access ~checked ~raw =
    match (access, detector) with
    | Ir.Raw, _ -> raw ()
    | Ir.Checked, Some d -> checked d
    | Ir.Checked, None ->
        fail "checked access executed without a detector attached"
  in
  let rec eval : Ir.expr -> int = function
    | Ir.Int i -> i
    | Ir.Var v -> (
        match Hashtbl.find_opt vars v with
        | Some x -> x
        | None -> fail "undefined variable %S" v)
    | Ir.Mine -> pid
    | Ir.Procs -> rt.n
    | Ir.Load (access, name, idx) ->
        let r = element rt name (eval idx) in
        data_op access
          ~checked:(fun d -> Detector.get d p ~src:r ~dst:scratch)
          ~raw:(fun () -> Machine.get p ~src:r ~dst:scratch ());
        read_scratch ()
    | Ir.Binop (op, a, b) -> (
        let x = eval a in
        let y = eval b in
        match op with
        | Ast.Add -> x + y
        | Ast.Sub -> x - y
        | Ast.Mul -> x * y
        | Ast.Div -> if y = 0 then fail "division by zero" else x / y
        | Ast.Mod -> if y = 0 then fail "modulo by zero" else x mod y
        | Ast.Eq -> if x = y then 1 else 0
        | Ast.Lt -> if x < y then 1 else 0)
  in
  let rec exec : Ir.stmt -> unit = function
    | Ir.Skip -> ()
    | Ir.Let (v, e) -> Hashtbl.replace vars v (eval e)
    | Ir.Store (access, name, idx, e) ->
        let r = element rt name (eval idx) in
        write_scratch (eval e);
        data_op access
          ~checked:(fun d -> Detector.put d p ~src:scratch ~dst:r)
          ~raw:(fun () -> Machine.put p ~src:scratch ~dst:r ())
    | Ir.Fetch_add (access, name, idx, e) ->
        let r = element rt name (eval idx) in
        let delta = eval e in
        data_op access
          ~checked:(fun d ->
            ignore (Detector.fetch_add d p ~target:r.Addr.base ~delta))
          ~raw:(fun () ->
            ignore (Machine.fetch_add p ~target:r.Addr.base ~delta ()))
    | Ir.Barrier -> Dsm_pgas.Collectives.barrier rt.collectives p
    | Ir.Compute e ->
        let d = eval e in
        if d < 0 then fail "compute %d: negative duration" d;
        Machine.compute p (float_of_int d)
    | Ir.Seq l -> List.iter exec l
    | Ir.If (c, a, b) -> if eval c <> 0 then exec a else exec b
    | Ir.For (v, lo, hi, body) ->
        let lo = eval lo and hi = eval hi in
        for i = lo to hi do
          Hashtbl.replace vars v i;
          exec body
        done
    | Ir.While (c, body) ->
        (* Each iteration is a zero-time scheduling point, so a loop
           whose body touches no shared data still lets the others run
           and ends at the event budget instead of spinning forever. *)
        while eval c <> 0 do
          exec body;
          Machine.compute p 0.
        done
  in
  exec body

(* Element [i] of every array goes to node [i mod n], so node [pid]
   holds [ceil ((length - pid) / n)] of a declaration's elements, and
   the collectives then take [n] reduction words on every node. The
   check runs before anything is allocated: a declaration too large for
   memory must fail here, not in building its element table. *)
let check_fit machine (prog : Ir.program) =
  let n = Machine.n machine in
  let public pid =
    Node_memory.allocator (Machine.node machine pid) Addr.Public
  in
  let left =
    Array.init n (fun pid ->
        Allocator.capacity (public pid) - Allocator.allocated (public pid))
  in
  let rec go = function
    | [] -> Ok ()
    | (d : Ast.shared_decl) :: rest ->
        let rec on_node pid =
          if pid >= min n d.length then go rest
          else
            let need = (d.length - pid + n - 1) / n in
            if need > left.(pid) - n then
              Error
                (Printf.sprintf
                   "shared %s[%d] does not fit: %d of its elements go to \
                    node %d, whose %d-word public segment has %d words left%s"
                   d.name d.length need pid
                   (Allocator.capacity (public pid))
                   left.(pid)
                   (if need > left.(pid) then ""
                    else
                      Printf.sprintf
                        ", %d of them for the collectives' reduction slots" n))
            else begin
              left.(pid) <- left.(pid) - need;
              on_node (pid + 1)
            end
        in
        on_node 0
  in
  go prog.shared

let setup machine ?detector (prog : Ir.program) =
  Result.iter_error invalid_arg (check_fit machine prog);
  let n = Machine.n machine in
  let env =
    match detector with
    | Some d -> Dsm_pgas.Env.checked d
    | None -> Dsm_pgas.Env.plain machine
  in
  let arrays = Hashtbl.create 8 in
  List.iter
    (fun (d : Ast.shared_decl) ->
      let elems =
        Array.init d.length (fun i ->
            let pid = i mod n in
            let r =
              Machine.alloc_public machine ~pid
                ~name:(Printf.sprintf "%s[%d]" d.name i)
                ~len:1 ()
            in
            Dsm_pgas.Env.register env r;
            r)
      in
      Hashtbl.add arrays d.name elems)
    prog.shared;
  let rt =
    { machine; n; arrays; collectives = Dsm_pgas.Collectives.create env }
  in
  Machine.spawn_all machine (fun p -> interpret rt ~detector p prog.body);
  rt

let array_contents rt name =
  match Hashtbl.find_opt rt.arrays name with
  | None -> raise Not_found
  | Some elems ->
      Array.map
        (fun (r : Addr.region) ->
          (Node_memory.read (Machine.node rt.machine r.base.pid) r).(0))
        elems
