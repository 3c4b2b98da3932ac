open Dsm_memory
open Dsm_sim
module Machine = Dsm_rdma.Machine
module Detector = Dsm_core.Detector

let arrive_tag = "pgas.barrier.arrive"

let release_tag = "pgas.barrier.release"

type t = {
  env : Env.t;
  n : int;
  gen_of_pid : int array; (* barriers entered so far, per process *)
  arrivals : (int, int) Hashtbl.t; (* generation -> count at coordinator *)
  releases : (int * int, unit Ivar.t) Hashtbl.t; (* (generation, pid) *)
  reduce_slots : Addr.region array; (* n public words per node *)
  mutable slots_registered : bool;
      (* the reduce slots are registered with the detector by the first
         [reduce_gather], the only collective that touches them *)
  scratch : Addr.region array; (* private staging word per node *)
}

let release_ivar t ~generation ~pid =
  let key = (generation, pid) in
  match Hashtbl.find_opt t.releases key with
  | Some iv -> iv
  | None ->
      let iv = Ivar.create () in
      Hashtbl.add t.releases key iv;
      iv

let check_n n =
  let words = Node_memory.default_words in
  if n <= words then Ok ()
  else
    Error
      (Printf.sprintf
         "-n %d does not fit: a %d-word public segment holds one reduction \
          slot per process, so -n is at most %d"
         n words words)

let create env =
  let m = Env.machine env in
  let n = Machine.n m in
  (* Allocation order fixes the layout: the reduce slots open the public
     segment. Every offset after them, which reports and pinned outputs
     print, depends on it. *)
  let scratch =
    Array.init n (fun pid ->
        Machine.alloc_private m ~pid ~name:"pgas.scratch" ~len:1 ())
  in
  let reduce_slots =
    Array.init n (fun pid ->
        Machine.alloc_public m ~pid ~name:"pgas.reduce" ~len:n ())
  in
  let t =
    {
      env;
      n;
      gen_of_pid = Array.make n 0;
      arrivals = Hashtbl.create 16;
      releases = Hashtbl.create 16;
      reduce_slots;
      slots_registered = false;
      scratch;
    }
  in
  let sim = Machine.sim m in
  Machine.set_control_handler m ~tag:arrive_tag
    (fun ~node:_ ~origin:_ words ->
      let generation = words.(0) in
      let count =
        (match Hashtbl.find_opt t.arrivals generation with
        | Some c -> c
        | None -> 0)
        + 1
      in
      Hashtbl.replace t.arrivals generation count;
      if count = n then begin
        (* Everyone is in: merge the clocks (the causal content of the
           barrier), then notify every node. *)
        (match Env.detector env with
        | Some d -> Detector.barrier_sync d
        | None -> ());
        for dst = 0 to n - 1 do
          Machine.control_notify m ~src:0 ~dst ~tag:release_tag
            ~words:[| generation |]
        done
      end;
      None);
  Machine.set_control_handler m ~tag:release_tag
    (fun ~node ~origin:_ words ->
      Ivar.fill ~label:Label.unknown sim
        (release_ivar t ~generation:words.(0) ~pid:node)
        ();
      None);
  t

let barrier t p =
  let pid = Machine.pid p in
  let generation = t.gen_of_pid.(pid) in
  t.gen_of_pid.(pid) <- generation + 1;
  let m = Env.machine t.env in
  let time () = Engine.now (Machine.sim m) in
  (match Env.detector t.env with
  | Some d -> Detector.on_barrier d ~pid ~phase:`Enter ~generation ~time:(time ())
  | None -> ());
  Machine.control_async p ~target:0 ~tag:arrive_tag ~words:[| generation |];
  Ivar.read (Machine.sim m) (release_ivar t ~generation ~pid);
  match Env.detector t.env with
  | Some d -> Detector.on_barrier d ~pid ~phase:`Exit ~generation ~time:(time ())
  | None -> ()

let staged t p v =
  let pid = Machine.pid p in
  Dsm_memory.Node_memory.write
    (Machine.node (Env.machine t.env) pid)
    t.scratch.(pid) [| v |];
  t.scratch.(pid)

let read_scratch t p =
  let pid = Machine.pid p in
  (Dsm_memory.Node_memory.read
     (Machine.node (Env.machine t.env) pid)
     t.scratch.(pid)).(0)

let slot t ~root ~pid =
  let (r : Addr.region) = t.reduce_slots.(root) in
  Addr.region ~pid:r.base.pid ~space:Addr.Public ~offset:(r.base.offset + pid)
    ~len:1

(* Register the staging slots per word: each slot is written by one
   process, so per-slot clocks avoid false sharing between contributors.
   Every slot is registered at once, before any process's first put to
   one, so a run that never reduces registers none of them. *)
let register_slots t =
  if not t.slots_registered then begin
    t.slots_registered <- true;
    Array.iter
      (fun (r : Addr.region) ->
        for off = 0 to r.len - 1 do
          Env.register t.env
            (Addr.region ~pid:r.base.pid ~space:Addr.Public
               ~offset:(r.base.offset + off) ~len:1)
        done)
      t.reduce_slots
  end

let reduce_gather t p ~root ~value =
  register_slots t;
  let pid = Machine.pid p in
  Env.put t.env p ~src:(staged t p value) ~dst:(slot t ~root ~pid);
  barrier t p;
  let result =
    if pid <> root then None
    else begin
      let sum = ref 0 in
      for contributor = 0 to t.n - 1 do
        Env.get t.env p ~src:(slot t ~root ~pid:contributor)
          ~dst:t.scratch.(pid);
        sum := !sum + read_scratch t p
      done;
      Some !sum
    end
  in
  barrier t p;
  result

(* The §5.2 one-sided reduction, generalized to any accumulate operator.
   The caller alone pulls the whole distributed array — no participation
   from the owners — but instead of one get per element it stages each
   owner's span with a single batched get (the owner's elements are
   contiguous in its chunk under every layout, so each node costs one
   request/data round trip) and folds locally with [Message.apply_acc].
   Detection is per element, exactly as if each get were issued alone. *)
let reduce_onesided t p ?(aop = Dsm_rdma.Message.Add) array =
  let len = Shared_array.length array in
  let m = Env.machine t.env in
  let pid = Machine.pid p in
  let stage = Machine.alloc_private m ~pid ~name:"pgas.reduce1s" ~len () in
  let next = ref 0 in
  for owner = 0 to t.n - 1 do
    let pairs =
      List.map
        (fun i ->
          let dst =
            Addr.region ~pid ~space:Addr.Private
              ~offset:(stage.base.offset + !next) ~len:1
          in
          incr next;
          (Shared_array.region_of array i, dst))
        (Shared_array.my_indices array ~pid:owner)
    in
    if pairs <> [] then Env.get_batch t.env p ~pairs
  done;
  let words = Node_memory.read (Machine.node m pid) stage in
  Array.fold_left
    (fun acc v ->
      match acc with
      | None -> Some v
      | Some a -> Some (Dsm_rdma.Message.apply_acc aop a v))
    None words
  |> Option.get

let reduce_onesided_sum t p array =
  reduce_onesided t p ~aop:Dsm_rdma.Message.Add array
