open Dsm_sim
open Dsm_pgas
module Machine = Dsm_rdma.Machine
module Addr = Dsm_memory.Addr

type params = {
  steals_per_thief : int;
  racy : bool;
  think_mean : float;
  seed : int;
}

let item_value i = 100 + i

(* A one-owner work-stealing deque in the C11 release/acquire idiom,
   built from one-sided operations. Node 0 hosts [top], [bottom] and the
   task slots. The owner (process 0) pushes: a plain put of the task
   into slot [b] followed by a fetch_add on [bottom] — the fetch_add's
   S release publishes the slot write. A thief reads [top] and [bottom],
   CASes [top] forward to claim a task, and only then plain-gets the
   claimed slot; its atomic read of [bottom] is the acquire that orders
   the get after the owner's put, and the CAS serializes thieves so a
   slot has exactly one reader. Every thief loops until it has stolen
   its quota; the owner pushes exactly (n-1) * steals_per_thief tasks,
   so every run drains the deque and terminates.

   After its last push the owner reads [top] once to see how much work
   remains — through the RMW path normally, so the read serializes with
   the thieves' CASes and stays silent.

   [racy] swaps every read of [top] (the thieves' and the owner's) for
   a plain get. A plain read never acquires the S clock before its
   check, so the owner's final read of [top] is concurrent with a
   successful CAS in every schedule: a thief that fills its quota stops
   before its next [bottom] read, so its winning CAS tick is never
   released anywhere the owner absorbs from — and symmetrically the
   owner's read tick is released nowhere, so a later CAS cannot be
   ordered after it either. The racy granule set is exactly {top} in
   every schedule: slots and [bottom] keep their RMW/acquire ordering
   either way. *)
let setup env params =
  if params.steals_per_thief < 1 then
    invalid_arg "Deque.setup: degenerate parameters";
  let m = Env.machine env in
  let n = Machine.n m in
  if n < 2 then invalid_arg "Deque.setup: needs an owner and a thief";
  let pushes = (n - 1) * params.steals_per_thief in
  let top = Machine.alloc_public m ~pid:0 ~name:"deque.top" ~len:1 () in
  let bottom = Machine.alloc_public m ~pid:0 ~name:"deque.bottom" ~len:1 () in
  let slots = Machine.alloc_public m ~pid:0 ~name:"deque.slots" ~len:pushes () in
  Env.register env top;
  Env.register env bottom;
  for i = 0 to pushes - 1 do
    Env.register env
      (Addr.region ~pid:0 ~space:Addr.Public ~offset:(slots.base.offset + i)
         ~len:1)
  done;
  let top_g =
    Addr.global ~pid:0 ~space:Addr.Public ~offset:top.base.offset
  in
  let bottom_g =
    Addr.global ~pid:0 ~space:Addr.Public ~offset:bottom.base.offset
  in
  let slot i =
    Addr.region ~pid:0 ~space:Addr.Public ~offset:(slots.base.offset + i)
      ~len:1
  in
  let steals : (int * int * int) list ref = ref [] in
  (* owner: push every task *)
  let g0 = Prng.create ~seed:params.seed in
  let owner_think =
    Array.init pushes (fun _ ->
        if params.think_mean <= 0. then 0.
        else Prng.exponential g0 ~mean:params.think_mean)
  in
  Machine.spawn m ~pid:0 ~name:"owner" (fun p ->
      let src = Machine.alloc_private m ~pid:0 ~name:"deque.push" ~len:1 () in
      for i = 0 to pushes - 1 do
        if owner_think.(i) > 0. then Machine.compute p owner_think.(i);
        Dsm_memory.Node_memory.write (Machine.node m 0) src
          [| item_value i |];
        Env.put env p ~src ~dst:(slot i);
        ignore (Env.fetch_add env p ~target:bottom_g ~delta:1)
      done;
      (* one look at how much work remains: the racy variant's
         unsynchronized read of [top] *)
      if params.racy then
        Env.get env p ~src:(Addr.region_of_global top_g ~len:1) ~dst:src
      else ignore (Env.atomic_read env p ~target:top_g));
  for pid = 1 to n - 1 do
    Machine.spawn m ~pid
      ~name:(Printf.sprintf "thief%d" pid)
      (fun p ->
        let buf = Machine.alloc_private m ~pid ~name:"deque.steal" ~len:1 () in
        let stolen = ref 0 in
        let read_top () =
          if params.racy then begin
            Env.get env p ~src:(Addr.region_of_global top_g ~len:1) ~dst:buf;
            (Dsm_memory.Node_memory.read (Machine.node m pid) buf).(0)
          end
          else Env.atomic_read env p ~target:top_g
        in
        while !stolen < params.steals_per_thief do
          let t = read_top () in
          let b = Env.atomic_read env p ~target:bottom_g in
          if t < b then begin
            if Env.cas env p ~target:top_g ~expected:t ~desired:(t + 1) then begin
              Env.get env p ~src:(slot t) ~dst:buf;
              let v = (Dsm_memory.Node_memory.read (Machine.node m pid) buf).(0)
              in
              steals := (pid, t, v) :: !steals;
              incr stolen
            end
          end
          else
            (* deque momentarily empty: let the owner make progress *)
            Machine.compute p 1.0
        done);
  done;
  (* post-run functional check: every task stolen exactly once, with the
     value the owner pushed for that index *)
  let check () =
    let got = List.sort compare !steals in
    let problems = ref [] in
    let seen = Hashtbl.create 16 in
    List.iter
      (fun (pid, i, v) ->
        if Hashtbl.mem seen i then
          problems :=
            Printf.sprintf "slot %d stolen more than once" i :: !problems;
        Hashtbl.replace seen i ();
        if v <> item_value i then
          problems :=
            Printf.sprintf "thief %d stole slot %d value %d, expected %d" pid
              i v (item_value i)
            :: !problems)
      got;
    if List.length got <> pushes then
      problems :=
        Printf.sprintf "%d steals recorded, expected %d" (List.length got)
          pushes
        :: !problems;
    List.rev_map (fun msg -> ("deque-steals", msg)) !problems
  in
  check
