open Dsm_memory
open Dsm_pgas
module Machine = Dsm_rdma.Machine

type usage_violation = { time : float; pid : int; what : string }

(* Per-process epoch state. *)
type epoch = Idle | Fence_open | Passive of (int, Env.lock_handle) Hashtbl.t

type t = {
  env : Env.t;
  collectives : Collectives.t;
  n : int;
  len : int;
  exposure : Addr.region array; (* len words per rank *)
  mutexes : Addr.region array; (* 1-word lock object per rank *)
  scratch : Addr.region array; (* private staging word per rank *)
  state : epoch array;
  mutable violations : usage_violation list;
}

let create env ~collectives ~name ~len_per_rank =
  if len_per_rank < 1 then invalid_arg "Window.create: len_per_rank";
  let m = Env.machine env in
  let n = Machine.n m in
  let t =
    {
      env;
      collectives;
      n;
      len = len_per_rank;
      exposure =
        Array.init n (fun pid ->
            Machine.alloc_public m ~pid
              ~name:(Printf.sprintf "%s.win" name)
              ~len:len_per_rank ());
      mutexes =
        Array.init n (fun pid ->
            Machine.alloc_public m ~pid
              ~name:(Printf.sprintf "%s.mutex" name)
              ~len:1 ());
      scratch =
        Array.init n (fun pid ->
            Machine.alloc_private m ~pid
              ~name:(Printf.sprintf "%s.scratch" name)
              ~len:1 ());
      state = Array.make n Idle;
      violations = [];
    }
  in
  (* One shared datum per window word (the compiler's role). *)
  Array.iter
    (fun (r : Addr.region) ->
      for off = 0 to r.len - 1 do
        Env.register env
          (Addr.region ~pid:r.base.pid ~space:Addr.Public
             ~offset:(r.base.offset + off) ~len:1)
      done)
    t.exposure;
  t

let now t = Dsm_sim.Engine.now (Machine.sim (Env.machine t.env))

let violate t p what =
  t.violations <-
    { time = now t; pid = Machine.pid p; what } :: t.violations

let usage_violations t = List.rev t.violations

let pp_usage_violation ppf v =
  Format.fprintf ppf "USAGE at t=%.2f: P%d %s" v.time v.pid v.what

(* An RMA op towards [rank] is legal inside a fence epoch or while
   holding the passive lock on that rank. *)
let check_epoch t p ~rank ~what =
  match t.state.(Machine.pid p) with
  | Fence_open -> ()
  | Passive held when Hashtbl.mem held rank -> ()
  | Passive _ ->
      violate t p
        (Printf.sprintf "%s to rank %d without holding its lock" what rank)
  | Idle -> violate t p (Printf.sprintf "%s outside any access epoch" what)

let word t ~rank ~offset =
  if rank < 0 || rank >= t.n then invalid_arg "Window: rank out of range";
  if offset < 0 || offset >= t.len then
    invalid_arg "Window: offset outside the window";
  let (r : Addr.region) = t.exposure.(rank) in
  Addr.region ~pid:rank ~space:Addr.Public ~offset:(r.base.offset + offset)
    ~len:1

(* ---------- synchronization ---------- *)

let fence t p =
  let pid = Machine.pid p in
  (match t.state.(pid) with
  | Passive _ ->
      violate t p "called fence while holding a passive-target lock"
  | Idle | Fence_open -> ());
  Collectives.barrier t.collectives p;
  t.state.(pid) <- Fence_open

let lock t p ~rank =
  if rank < 0 || rank >= t.n then invalid_arg "Window.lock: rank";
  let pid = Machine.pid p in
  let held =
    match t.state.(pid) with
    | Passive held -> held
    | Idle -> Hashtbl.create 4
    | Fence_open ->
        violate t p "passive lock inside a fence epoch";
        Hashtbl.create 4
  in
  if Hashtbl.mem held rank then
    violate t p (Printf.sprintf "double lock of rank %d" rank)
  else begin
    let h = Env.lock t.env p t.mutexes.(rank) in
    Hashtbl.replace held rank h
  end;
  t.state.(pid) <- Passive held

let unlock t p ~rank =
  let pid = Machine.pid p in
  match t.state.(pid) with
  | Passive held when Hashtbl.mem held rank ->
      let h = Hashtbl.find held rank in
      Hashtbl.remove held rank;
      Env.unlock t.env p h;
      if Hashtbl.length held = 0 then t.state.(pid) <- Idle
  | Passive _ | Idle | Fence_open ->
      violate t p (Printf.sprintf "unlock of rank %d without a lock" rank)

(* ---------- RMA ---------- *)

let staged t p v =
  let pid = Machine.pid p in
  Node_memory.write (Machine.node (Env.machine t.env) pid) t.scratch.(pid)
    [| v |];
  t.scratch.(pid)

let put t p ~rank ~offset v =
  check_epoch t p ~rank ~what:"put";
  Env.put t.env p ~src:(staged t p v) ~dst:(word t ~rank ~offset)

let get t p ~rank ~offset =
  check_epoch t p ~rank ~what:"get";
  let pid = Machine.pid p in
  Env.get t.env p ~src:(word t ~rank ~offset) ~dst:t.scratch.(pid);
  (Node_memory.read (Machine.node (Env.machine t.env) pid) t.scratch.(pid)).(0)

let accumulate t p ~rank ~offset ~delta =
  check_epoch t p ~rank ~what:"accumulate";
  ignore (Env.fetch_add t.env p ~target:(word t ~rank ~offset).base ~delta)
