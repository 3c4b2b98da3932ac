(* Tests for dsm_rdma: one-sided semantics, atomicity (Figure 3), locks,
   atomics, control plane, one-sidedness. *)

open Dsm_sim
open Dsm_memory
open Dsm_rdma

let make ?(n = 3) ?latency ?seed () =
  let sim = Engine.create ?seed () in
  let m = Machine.create sim ~n ?latency () in
  (sim, m)

let expect_completed m =
  match Machine.run m with
  | Engine.Completed -> ()
  | outcome ->
      Alcotest.failf "simulation did not complete: %s"
        (match outcome with
        | Engine.Blocked k -> Printf.sprintf "blocked(%d)" k
        | Engine.Stopped -> "stopped"
        | Engine.Time_limit_reached -> "time limit"
        | Engine.Event_limit_reached -> "event limit"
        | Engine.Completed -> "completed")

(* ---------- put / get basics ---------- *)

let test_put_writes_remote () =
  let _, m = make () in
  let dst = Machine.alloc_public m ~pid:1 ~len:3 () in
  Machine.spawn m ~pid:0 (fun p ->
      let src = Machine.alloc_private m ~pid:0 ~len:3 () in
      Node_memory.write (Machine.node m 0) src [| 7; 8; 9 |];
      Machine.put p ~src ~dst ());
  expect_completed m;
  Alcotest.(check (array int)) "remote memory written" [| 7; 8; 9 |]
    (Node_memory.read (Machine.node m 1) dst)

let test_get_reads_remote () =
  let _, m = make () in
  let src = Machine.alloc_public m ~pid:2 ~len:4 () in
  Node_memory.write (Machine.node m 2) src [| 4; 3; 2; 1 |];
  let result = ref [||] in
  Machine.spawn m ~pid:0 (fun p ->
      let dst = Machine.alloc_private m ~pid:0 ~len:4 () in
      Machine.get p ~src ~dst ();
      result := Node_memory.read (Machine.node m 0) dst);
  expect_completed m;
  Alcotest.(check (array int)) "data fetched" [| 4; 3; 2; 1 |] !result

let test_put_is_one_message_get_is_two () =
  let _, m = make () in
  let dst = Machine.alloc_public m ~pid:1 ~len:1 () in
  Machine.spawn m ~pid:0 (fun p ->
      let src = Machine.alloc_private m ~pid:0 ~len:1 () in
      (* Unacked put: the paper's bare one-message put (§3.2). *)
      Machine.put p ~src ~dst ~ack:false ());
  expect_completed m;
  Alcotest.(check int) "put = 1 message" 1 (Machine.fabric_messages m);
  let src = Machine.alloc_public m ~pid:1 ~len:1 () in
  Machine.spawn m ~pid:0 (fun p ->
      let dst = Machine.alloc_private m ~pid:0 ~len:1 () in
      Machine.get p ~src ~dst ());
  expect_completed m;
  Alcotest.(check int) "get = 2 messages" 2 (Machine.fabric_messages m - 1)

let test_put_length_mismatch_rejected () =
  let _, m = make () in
  let dst = Machine.alloc_public m ~pid:1 ~len:2 () in
  let failed = ref false in
  Machine.spawn m ~pid:0 (fun p ->
      let src = Machine.alloc_private m ~pid:0 ~len:3 () in
      try Machine.put p ~src ~dst () with Invalid_argument _ -> failed := true);
  expect_completed m;
  Alcotest.(check bool) "rejected" true !failed

let test_put_to_private_rejected () =
  let _, m = make () in
  let dst = Machine.alloc_private m ~pid:1 ~len:1 () in
  let failed = ref false in
  Machine.spawn m ~pid:0 (fun p ->
      let src = Machine.alloc_private m ~pid:0 ~len:1 () in
      try Machine.put p ~src ~dst () with Invalid_argument _ -> failed := true);
  expect_completed m;
  Alcotest.(check bool) "private is not remotely writable" true !failed

let test_put_from_foreign_src_rejected () =
  let _, m = make () in
  let dst = Machine.alloc_public m ~pid:1 ~len:1 () in
  let foreign_src = Machine.alloc_public m ~pid:2 ~len:1 () in
  let failed = ref false in
  Machine.spawn m ~pid:0 (fun p ->
      try Machine.put p ~src:foreign_src ~dst ()
      with Invalid_argument _ -> failed := true);
  expect_completed m;
  Alcotest.(check bool) "src must be local" true !failed

let test_self_put () =
  let _, m = make () in
  let dst = Machine.alloc_public m ~pid:0 ~len:1 () in
  Machine.spawn m ~pid:0 (fun p ->
      let src = Machine.alloc_private m ~pid:0 ~len:1 () in
      Node_memory.write (Machine.node m 0) src [| 123 |];
      Machine.put p ~src ~dst ());
  expect_completed m;
  Alcotest.(check (array int)) "loopback put" [| 123 |]
    (Node_memory.read (Machine.node m 0) dst)

let test_one_sidedness () =
  (* The target node runs NO program at all: remote accesses must still
     work — OS bypass, §3.2. *)
  let _, m = make ~n:2 () in
  let area = Machine.alloc_public m ~pid:1 ~len:1 () in
  let seen = ref 0 in
  Machine.spawn m ~pid:0 (fun p ->
      let buf = Machine.alloc_private m ~pid:0 ~len:1 () in
      Node_memory.write (Machine.node m 0) buf [| 55 |];
      Machine.put p ~src:buf ~dst:area ();
      let back = Machine.alloc_private m ~pid:0 ~len:1 () in
      Machine.get p ~src:area ~dst:back ();
      seen := (Node_memory.read (Machine.node m 0) back).(0));
  expect_completed m;
  Alcotest.(check int) "read back through NIC only" 55 !seen

let test_copy_within_public_space () =
  (* §3.2: "Communications can also be done within the public space, when
     data is copied from a place that has affinity to a process to a
     place that has affinity to another process" — here P0 moves P1's
     data to P2 with a get + put, running no code on P1 or P2. *)
  let _, m = make () in
  let src = Machine.alloc_public m ~pid:1 ~len:3 () in
  Node_memory.write (Machine.node m 1) src [| 7; 8; 9 |];
  let dst = Machine.alloc_public m ~pid:2 ~len:3 () in
  Machine.spawn m ~pid:0 (fun p ->
      let bounce = Machine.alloc_private m ~pid:0 ~len:3 () in
      Machine.get p ~src ~dst:bounce ();
      Machine.put p ~src:bounce ~dst ());
  expect_completed m;
  Alcotest.(check (array int)) "moved across publics" [| 7; 8; 9 |]
    (Node_memory.read (Machine.node m 2) dst)

(* ---------- timing / Figure 3 ---------- *)

let test_put_latency_blocking () =
  let _, m = make ~latency:(Dsm_net.Latency.Constant 1.0) () in
  let dst = Machine.alloc_public m ~pid:1 ~len:1 () in
  let t_done = ref 0. in
  Machine.spawn m ~pid:0 (fun p ->
      let src = Machine.alloc_private m ~pid:0 ~len:1 () in
      Machine.put p ~src ~dst ();
      t_done := Engine.now (Machine.sim m));
  expect_completed m;
  (* 1 us for the put + 1 us for the ack *)
  Alcotest.(check (float 1e-6)) "blocking put RTT" 2.0 !t_done

let test_figure3_put_delayed_by_get () =
  (* P2 gets a large region from P1 into its public dst; while the get is
     in flight P0 puts to the same dst. The put must be delayed until the
     get completes, and the final value must be the put's. *)
  let _, m = make ~latency:(Dsm_net.Latency.Constant 1.0) () in
  let src1 = Machine.alloc_public m ~pid:1 ~len:4 () in
  Node_memory.write (Machine.node m 1) src1 [| 1; 1; 1; 1 |];
  let dst2 = Machine.alloc_public m ~pid:2 ~len:4 () in
  let get_done = ref 0. and put_done = ref 0. in
  Machine.spawn m ~pid:2 (fun p ->
      Machine.get p ~src:src1 ~dst:dst2 ();
      get_done := Engine.now (Machine.sim m));
  Machine.spawn m ~pid:0 (fun p ->
      Machine.compute p 0.5;
      let buf = Machine.alloc_private m ~pid:0 ~len:4 () in
      Node_memory.write (Machine.node m 0) buf [| 2; 2; 2; 2 |];
      Machine.put p ~src:buf ~dst:dst2 ();
      put_done := Engine.now (Machine.sim m));
  expect_completed m;
  (* Get: request arrives at 1.0, reply at 2.0. Put: sent 0.5, arrives 1.5
     — inside the get's window — so its write waits until 2.0; ack lands
     at 3.0. *)
  Alcotest.(check (float 1e-6)) "get completes at 2" 2.0 !get_done;
  Alcotest.(check bool) "put delayed past get" true (!put_done >= 3.0 -. 1e-9);
  Alcotest.(check (array int)) "put applied after get" [| 2; 2; 2; 2 |]
    (Node_memory.read (Machine.node m 2) dst2)

let test_put_not_delayed_on_disjoint_region () =
  let _, m = make ~latency:(Dsm_net.Latency.Constant 1.0) () in
  let src1 = Machine.alloc_public m ~pid:1 ~len:4 () in
  let dst2 = Machine.alloc_public m ~pid:2 ~len:4 () in
  let other2 = Machine.alloc_public m ~pid:2 ~len:4 () in
  let put_done = ref 0. in
  Machine.spawn m ~pid:2 (fun p -> Machine.get p ~src:src1 ~dst:dst2 ());
  Machine.spawn m ~pid:0 (fun p ->
      Machine.compute p 0.5;
      let buf = Machine.alloc_private m ~pid:0 ~len:4 () in
      Machine.put p ~src:buf ~dst:other2 ();
      put_done := Engine.now (Machine.sim m));
  expect_completed m;
  (* Undelayed: send at 0.5, write at 1.5, ack at 2.5. *)
  Alcotest.(check (float 1e-6)) "no interference" 2.5 !put_done

(* ---------- atomics ---------- *)

let test_fetch_add_returns_old () =
  let _, m = make () in
  let counter = Machine.alloc_public m ~pid:1 ~len:1 () in
  Node_memory.write (Machine.node m 1) counter [| 10 |];
  let old = ref (-1) in
  Machine.spawn m ~pid:0 (fun p ->
      old := Machine.fetch_add p ~target:counter.Addr.base ~delta:5 ());
  expect_completed m;
  Alcotest.(check int) "old value" 10 !old;
  Alcotest.(check (array int)) "incremented" [| 15 |]
    (Node_memory.read (Machine.node m 1) counter)

let test_fetch_add_concurrent_total () =
  let _, m = make ~n:5 () in
  let counter = Machine.alloc_public m ~pid:0 ~len:1 () in
  for pid = 1 to 4 do
    Machine.spawn m ~pid (fun p ->
        for _ = 1 to 10 do
          ignore (Machine.fetch_add p ~target:counter.Addr.base ~delta:1 ())
        done)
  done;
  expect_completed m;
  Alcotest.(check (array int)) "no lost updates" [| 40 |]
    (Node_memory.read (Machine.node m 0) counter)

let test_cas_semantics () =
  let _, m = make () in
  let cell = Machine.alloc_public m ~pid:1 ~len:1 () in
  let r1 = ref false and r2 = ref false in
  Machine.spawn m ~pid:0 (fun p ->
      r1 := Machine.cas p ~target:cell.Addr.base ~expected:0 ~desired:9 ();
      r2 := Machine.cas p ~target:cell.Addr.base ~expected:0 ~desired:5 ());
  expect_completed m;
  Alcotest.(check bool) "first cas wins" true !r1;
  Alcotest.(check bool) "second cas fails" false !r2;
  Alcotest.(check (array int)) "value" [| 9 |]
    (Node_memory.read (Machine.node m 1) cell)

let test_concurrent_gets_serialize_but_complete () =
  (* Reads take the target's range lock exclusively in this NIC model, so
     two concurrent gets on one region serialize — and both complete. *)
  let _, m = make ~latency:(Dsm_net.Latency.Constant 1.0) () in
  let src = Machine.alloc_public m ~pid:0 ~len:64 () in
  let done_times = ref [] in
  for pid = 1 to 2 do
    Machine.spawn m ~pid (fun p ->
        let dst = Machine.alloc_private m ~pid ~len:64 () in
        Machine.get p ~src ~dst ();
        done_times := Engine.now (Machine.sim m) :: !done_times)
  done;
  expect_completed m;
  Alcotest.(check int) "both finished" 2 (List.length !done_times)

let test_control_handler_sees_origin () =
  let _, m = make () in
  Machine.set_control_handler m ~tag:"who" (fun ~node ~origin _ ->
      Some [| node; origin |]);
  let reply = ref [||] in
  Machine.spawn m ~pid:2 (fun p ->
      reply := Machine.control p ~target:1 ~tag:"who" ~words:[||]);
  expect_completed m;
  Alcotest.(check (array int)) "node and origin" [| 1; 2 |] !reply

let test_proc_out_of_range () =
  let _, m = make () in
  Alcotest.check_raises "pid range"
    (Invalid_argument "Machine.proc: pid out of range") (fun () ->
      ignore (Machine.proc m ~pid:99))

let test_no_nodes_rejected () =
  let sim = Engine.create () in
  Alcotest.check_raises "no nodes"
    (Invalid_argument "Machine.create: need at least one node") (fun () ->
      ignore (Machine.create sim ~n:0 ()))

(* ---------- lock service ---------- *)

let test_remote_lock_excludes_put () =
  let _, m = make ~latency:(Dsm_net.Latency.Constant 1.0) () in
  let area = Machine.alloc_public m ~pid:1 ~len:2 () in
  let put_done = ref 0. in
  Machine.spawn m ~pid:0 (fun p ->
      let tok = Machine.lock p area in
      Machine.compute p 10.0;
      Machine.unlock p tok);
  Machine.spawn m ~pid:2 (fun p ->
      Machine.compute p 3.0;
      let buf = Machine.alloc_private m ~pid:2 ~len:2 () in
      Machine.put p ~src:buf ~dst:area ();
      put_done := Engine.now (Machine.sim m));
  expect_completed m;
  (* Lock granted ~2.0, held until 12.0 + unlock message arrives 13.0; the
     put (arriving ~4.0) writes only after that. *)
  Alcotest.(check bool) "put waited for the lock" true (!put_done >= 13.0 -. 1e-6)

let test_lock_private_foreign_rejected () =
  let _, m = make () in
  let foreign = Machine.alloc_private m ~pid:1 ~len:1 () in
  let failed = ref false in
  Machine.spawn m ~pid:0 (fun p ->
      try ignore (Machine.lock p foreign)
      with Invalid_argument _ -> failed := true);
  expect_completed m;
  Alcotest.(check bool) "rejected" true !failed

let test_own_private_lock_is_free () =
  let _, m = make () in
  let mine = Machine.alloc_private m ~pid:0 ~len:1 () in
  Machine.spawn m ~pid:0 (fun p ->
      let tok = Machine.lock p mine in
      Machine.unlock p tok);
  expect_completed m;
  Alcotest.(check int) "no messages for private locks" 0
    (Machine.fabric_messages m)

(* An uncontended lock on the caller's own node is granted on the spot:
   no event runs between the call and its return, so no other ready
   process runs in between either — whichever end of the ready set the
   chooser picks from. *)
let test_uncontended_local_lock_does_not_yield () =
  List.iter
    (fun (name, choose) ->
      let sim, m = make ~latency:(Dsm_net.Latency.Constant 1.0) () in
      Engine.set_chooser sim (Some choose);
      let area = Machine.alloc_public m ~pid:0 ~len:2 () in
      let log = ref [] in
      let note s = log := s :: !log in
      let events_in_lock = ref (-1) in
      Machine.spawn m ~pid:1 (fun _ -> note "other");
      Machine.spawn m ~pid:0 (fun p ->
          note "lock";
          let before = Engine.events_processed sim in
          let tok = Machine.lock p area in
          events_in_lock := Engine.events_processed sim - before;
          note "locked";
          Machine.unlock p tok);
      Machine.spawn m ~pid:2 (fun _ -> note "another");
      expect_completed m;
      Alcotest.(check int) (name ^ ": no event inside lock") 0 !events_in_lock;
      let rec adjacent = function
        | "lock" :: "locked" :: _ -> true
        | _ :: rest -> adjacent rest
        | [] -> false
      in
      Alcotest.(check bool)
        (name ^ ": nothing runs between lock and locked")
        true
        (adjacent (List.rev !log));
      Alcotest.(check bool) (name ^ ": quiescent") true
        (Machine.locks_quiescent m))
    [ ("last pick", fun k -> k - 1); ("first pick", fun _ -> 0) ]

(* A contended lock on the caller's own node still queues, behind the
   holder and behind whatever asked first — another local locker or a
   remote one — and is granted in arrival order. *)
let test_contended_local_lock_queues_in_order () =
  let sim, m = make ~latency:(Dsm_net.Latency.Constant 1.0) () in
  let area = Machine.alloc_public m ~pid:0 ~len:2 () in
  let grants = ref [] in
  let hold name p dt =
    let tok = Machine.lock p area in
    grants := (name, Engine.now sim) :: !grants;
    Machine.compute p dt;
    Machine.unlock p tok
  in
  Machine.spawn m ~pid:0 (fun p -> hold "holder" p 5.0);
  Machine.spawn m ~pid:0 (fun p ->
      Machine.compute p 1.0;
      hold "local A" p 1.0);
  (* the remote request reaches node 0's NIC at 2.5 *)
  Machine.spawn m ~pid:1 (fun p ->
      Machine.compute p 1.5;
      hold "remote" p 1.0);
  Machine.spawn m ~pid:0 (fun p ->
      Machine.compute p 3.0;
      hold "local B" p 1.0);
  expect_completed m;
  Alcotest.(check (list (pair string (float 1e-9))))
    "arrival order"
    [
      ("holder", 0.0);
      ("local A", 5.0);
      ("remote", 7.0);
      ("local B", 9.0);
    ]
    (List.rev !grants);
  Alcotest.(check bool) "quiescent" true (Machine.locks_quiescent m)

let test_deadlock_detected_as_blocked () =
  (* Failure injection: opposite lock orders must deadlock, and the engine
     must report it rather than hang. *)
  let _, m = make ~latency:(Dsm_net.Latency.Constant 1.0) () in
  let r1 = Machine.alloc_public m ~pid:1 ~len:1 () in
  let r2 = Machine.alloc_public m ~pid:2 ~len:1 () in
  Machine.spawn m ~pid:0 (fun p ->
      let t1 = Machine.lock p r1 in
      Machine.compute p 5.0;
      let t2 = Machine.lock p r2 in
      Machine.unlock p t2;
      Machine.unlock p t1);
  Machine.spawn m ~pid:2 (fun p ->
      let t2 = Machine.lock p r2 in
      Machine.compute p 5.0;
      let t1 = Machine.lock p r1 in
      Machine.unlock p t1;
      Machine.unlock p t2);
  (match Machine.run m with
  | Engine.Blocked k -> Alcotest.(check int) "both stuck" 2 k
  | _ -> Alcotest.fail "expected deadlock to surface as Blocked")

let test_lossy_fabric_blocks_operations () =
  (* The one-sided protocols assume reliable delivery (as InfiniBand
     provides); on a lossy fabric a blocking put eventually loses its
     data or ack message and the initiator stays suspended — which the
     engine reports rather than hiding. *)
  let sim = Engine.create ~seed:5 () in
  let m =
    Machine.create sim ~n:2 ~latency:(Dsm_net.Latency.Constant 1.0)
      ~faults:(Dsm_net.Fault.of_string "drop=0.4") ()
  in
  let dst = Machine.alloc_public m ~pid:1 ~len:1 () in
  Machine.spawn m ~pid:0 (fun p ->
      let src = Machine.alloc_private m ~pid:0 ~len:1 () in
      for _ = 1 to 50 do
        Machine.put p ~src ~dst ()
      done);
  match Machine.run m with
  | Engine.Blocked 1 -> ()
  | Engine.Completed ->
      Alcotest.fail "50 puts at 40% loss should have lost a message"
  | _ -> Alcotest.fail "unexpected outcome"

(* ---------- caller-held locks ---------- *)

let test_unlocked_put_bypasses_lock () =
  let _, m = make ~latency:(Dsm_net.Latency.Constant 1.0) () in
  let area = Machine.alloc_public m ~pid:1 ~len:1 () in
  let put_done = ref 0. in
  Machine.spawn m ~pid:0 (fun p ->
      (* Hold the lock ourselves, as a detector transaction would... *)
      let tok = Machine.lock p area in
      let buf = Machine.alloc_private m ~pid:0 ~len:1 () in
      Node_memory.write (Machine.node m 0) buf [| 77 |];
      (* ...an unlocked put must go through even though the range is
         locked. *)
      Machine.put p ~src:buf ~dst:area ~locked:false ();
      put_done := Engine.now (Machine.sim m);
      Machine.unlock p tok);
  expect_completed m;
  Alcotest.(check (array int)) "written" [| 77 |]
    (Node_memory.read (Machine.node m 1) area);
  Alcotest.(check bool) "did not self-deadlock" true (!put_done > 0.)

let test_extra_words_charged () =
  let _, m = make () in
  let dst = Machine.alloc_public m ~pid:1 ~len:1 () in
  Machine.spawn m ~pid:0 (fun p ->
      let src = Machine.alloc_private m ~pid:0 ~len:1 () in
      Machine.put p ~src ~dst ~extra_words:10 ~ack:false ());
  expect_completed m;
  (* header(2) + payload(1) + extra(10) *)
  Alcotest.(check int) "piggyback priced" 13 (Machine.fabric_words m)

(* ---------- control plane ---------- *)

let test_control_roundtrip () =
  let _, m = make () in
  Machine.set_control_handler m ~tag:"sum" (fun ~node:_ ~origin:_ words ->
      Some [| Array.fold_left ( + ) 0 words |]);
  let result = ref [||] in
  Machine.spawn m ~pid:0 (fun p ->
      result := Machine.control p ~target:2 ~tag:"sum" ~words:[| 1; 2; 3 |]);
  expect_completed m;
  Alcotest.(check (array int)) "service reply" [| 6 |] !result

let test_control_async_fire_and_forget () =
  let _, m = make () in
  let hits = ref [] in
  Machine.set_control_handler m ~tag:"log" (fun ~node ~origin words ->
      hits := (node, origin, words.(0)) :: !hits;
      None);
  Machine.spawn m ~pid:0 (fun p ->
      Machine.control_async p ~target:1 ~tag:"log" ~words:[| 42 |]);
  expect_completed m;
  Alcotest.(check (list (triple int int int))) "handler ran" [ (1, 0, 42) ]
    !hits

let test_control_unknown_tag_fails () =
  let _, m = make () in
  Machine.spawn m ~pid:0 (fun p ->
      ignore (Machine.control p ~target:1 ~tag:"nope" ~words:[||]));
  match Machine.run m with
  | exception Failure msg ->
      Alcotest.(check bool) "mentions tag" true
        (String.length msg > 0
        && String.contains msg 'n' (* "no control handler for tag" *))
  | _ -> Alcotest.fail "expected failure"

let test_duplicate_control_tag_rejected () =
  let _, m = make () in
  Machine.set_control_handler m ~tag:"t" (fun ~node:_ ~origin:_ _ -> None);
  Alcotest.check_raises "dup"
    (Invalid_argument "Machine.set_control_handler: tag \"t\" is taken")
    (fun () ->
      Machine.set_control_handler m ~tag:"t" (fun ~node:_ ~origin:_ _ -> None))

(* ---------- observation ---------- *)

(* Messages and the memory effect reach consumers on the one probe
   bus, in the classes a sink names. *)
let test_bus_sees_messages () =
  let sim, m = make () in
  let sent = ref 0 and delivered = ref 0 and writes = ref 0 in
  Dsm_obs.Probe.(attach (Engine.probe sim) (msg lor apply)) (function
    | Msg_sent _ -> incr sent
    | Msg_delivered _ -> incr delivered
    | Write_applied _ -> incr writes
    | _ -> ());
  let dst = Machine.alloc_public m ~pid:1 ~len:1 () in
  Machine.spawn m ~pid:0 (fun p ->
      let src = Machine.alloc_private m ~pid:0 ~len:1 () in
      Machine.put p ~src ~dst ());
  expect_completed m;
  Alcotest.(check int) "2 sends (put + ack)" 2 !sent;
  Alcotest.(check int) "2 deliveries" 2 !delivered;
  Alcotest.(check int) "1 write applied" 1 !writes

let test_spawn_all_spmd () =
  let _, m = make ~n:4 () in
  let counter = Machine.alloc_public m ~pid:0 ~len:1 () in
  Machine.spawn_all m (fun p ->
      ignore (Machine.fetch_add p ~target:counter.Addr.base ~delta:1 ()));
  expect_completed m;
  Alcotest.(check (array int)) "all ran" [| 4 |]
    (Node_memory.read (Machine.node m 0) counter)

(* ---------- per-verb steps ---------- *)

(* Every verb's NIC steps, pinned in [machine_steps.expected]: for each
   scenario below, under [nic_atomic] and under [relaxed], the probe
   events the machine fires (op lifecycle, messages, locks, batch
   flushes, and the memory effects of the apply and rmw classes as the
   [obs] lines, an RMW's at its linearization point), each at the bus's
   clock when it is delivered, in emission order, then the run's
   outcome and its engine event count. A
   refactor of the machine must leave every line where it was. *)

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

let step_lines ~model ~bugs setup =
  let sim = Engine.create () in
  let m = Machine.create sim ~n:3 ~model ~protocol_bugs:bugs () in
  let lines = ref [] in
  let add fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  let bus = Engine.probe sim in
  Dsm_obs.Probe.(attach bus all) (fun ev ->
    let time = Dsm_obs.Probe.now bus in
    match ev with
    | Op_begin { pid; op; kind; target } ->
        add "%.4f op_begin P%d #%d %s -> P%d" time pid op kind target
    | Op_end { pid; op; kind } ->
        add "%.4f op_end P%d #%d %s" time pid op kind
    | Msg_sent { src; dst; msg } ->
        add "%.4f msg_sent P%d -> P%d %s" time src dst (Dsm_obs.Msg.label msg)
    | Msg_delivered { src; dst; msg } ->
        add "%.4f msg_delivered P%d -> P%d %s" time src dst
          (Dsm_obs.Msg.label msg)
    | Lock_acquired { pid; node; offset; len } ->
        add "%.4f lock_acquired P%d at P%d [%d..+%d)" time pid node offset len
    | Lock_released { pid; node; offset; len } ->
        add "%.4f lock_released P%d at P%d [%d..+%d)" time pid node offset len
    | Batch_flush { pid; node; kind; parts; words } ->
        add "%.4f batch_flush P%d %s -> P%d parts=%d words=%d" time pid kind
          node parts words
    | Write_applied { node; offset; data; origin } ->
        add "%.4f obs write P%d [%d]=%s from P%d" time node offset (ints data)
          origin
    | Read_served { node; offset; data; origin } ->
        add "%.4f obs read P%d [%d]=%s for P%d" time node offset (ints data)
          origin
    | Atomic_applied
        { node; offset; kind = _; old_value; new_value; origin } ->
        add "%.4f obs atomic P%d [%d] %d -> %d from P%d" time node offset
          old_value new_value origin
    | Acc_applied { node; offset; aop; old; data; result; origin } ->
        add "%.4f obs acc %s P%d [%d] %s (+) %s = %s from P%d" time
          (Dsm_obs.Probe.acc_op_name aop) node offset (ints old) (ints data)
          (ints result) origin
    | _ -> ());
  setup m;
  let outcome =
    match Machine.run m with
    | Engine.Completed -> "completed"
    | Engine.Blocked k -> Printf.sprintf "blocked(%d)" k
    | _ -> "other"
  in
  add "%s after %d events, %d pending" outcome (Engine.events_processed sim)
    (Machine.pending_ops m);
  List.rev !lines

(* A [len]-word region of [pid]'s memory holding [v], [v + 1], ... *)
let filled m ~pid ~space ~len v =
  let r =
    match space with
    | Addr.Public -> Machine.alloc_public m ~pid ~len ()
    | Addr.Private -> Machine.alloc_private m ~pid ~len ()
  in
  Node_memory.write (Machine.node m pid) r (Array.init len (fun i -> v + i));
  r

let sub (r : Addr.region) ~off ~len =
  Addr.region ~pid:r.base.pid ~space:r.base.space ~offset:(r.base.offset + off)
    ~len

let put_scenario ?ack ?locked () m =
  let dst = filled m ~pid:2 ~space:Addr.Public ~len:2 0 in
  Machine.spawn m ~pid:0 (fun p ->
      let src = filled m ~pid:0 ~space:Addr.Private ~len:2 10 in
      Machine.put p ~src ~dst ?ack ?locked ())

let put_batch_scenario ?locked () m =
  let dst = filled m ~pid:2 ~space:Addr.Public ~len:4 0 in
  Machine.spawn m ~pid:0 (fun p ->
      let src = filled m ~pid:0 ~space:Addr.Private ~len:3 10 in
      Machine.put_batch p
        (Machine.check_batch p Machine.Put
           ~pairs:
             [
               (sub src ~off:0 ~len:2, sub dst ~off:0 ~len:2);
               (sub src ~off:2 ~len:1, sub dst ~off:3 ~len:1);
             ])
        ?locked ())

let get_scenario ?locked () m =
  let src = filled m ~pid:2 ~space:Addr.Public ~len:2 20 in
  Machine.spawn m ~pid:0 (fun p ->
      let dst = filled m ~pid:0 ~space:Addr.Public ~len:2 0 in
      Machine.get p ~src ~dst ?locked ())

let get_batch_scenario ?locked () m =
  let src = filled m ~pid:2 ~space:Addr.Public ~len:3 20 in
  Machine.spawn m ~pid:0 (fun p ->
      let dst = filled m ~pid:0 ~space:Addr.Public ~len:3 0 in
      let priv = filled m ~pid:0 ~space:Addr.Private ~len:1 0 in
      Machine.get_batch p
        (Machine.check_batch p Machine.Get
           ~pairs:[ (sub src ~off:0 ~len:2, sub dst ~off:1 ~len:2);
                    (sub src ~off:2 ~len:1, priv) ])
        ?locked ())

let rmw_scenario m =
  let cell = filled m ~pid:2 ~space:Addr.Public ~len:2 5 in
  Machine.spawn m ~pid:0 (fun p ->
      ignore (Machine.fetch_add p ~target:cell.base ~delta:3 ());
      ignore (Machine.cas p ~target:cell.base ~expected:8 ~desired:1 ());
      ignore (Machine.cas p ~target:cell.base ~expected:8 ~desired:2 ());
      let src = filled m ~pid:0 ~space:Addr.Private ~len:2 4 in
      ignore (Machine.accumulate p ~src ~dst:cell ~aop:Message.Max ()))

let lock_scenario m =
  let own = filled m ~pid:0 ~space:Addr.Public ~len:2 0 in
  let remote = filled m ~pid:2 ~space:Addr.Public ~len:2 0 in
  let priv = filled m ~pid:0 ~space:Addr.Private ~len:1 0 in
  Machine.spawn m ~pid:0 (fun p ->
      Machine.unlock p (Machine.lock p priv);
      let t = Machine.lock p own in
      Machine.compute p 1.0;
      Machine.unlock p t;
      let t = Machine.lock p remote in
      Machine.compute p 1.0;
      Machine.unlock p t)

let control_scenario m =
  Machine.set_control_handler m ~tag:"echo" (fun ~node ~origin:_ words ->
      Some (Array.map (fun w -> w + node) words));
  Machine.set_control_handler m ~tag:"fwd" (fun ~node ~origin:_ words ->
      Machine.control_notify m ~src:node ~dst:2 ~tag:"sink" ~words;
      None);
  Machine.set_control_handler m ~tag:"sink" (fun ~node:_ ~origin:_ _ -> None);
  Machine.spawn m ~pid:0 (fun p ->
      ignore (Machine.control p ~target:2 ~tag:"echo" ~words:[| 1; 2 |]);
      Machine.control_async p ~target:1 ~tag:"fwd" ~words:[| 7 |])

(* Two processes put and get the same span while its owner locks it:
   the NIC lock queues, and under relaxed the word-by-word put. *)
let contended_scenario m =
  let area = filled m ~pid:2 ~space:Addr.Public ~len:2 0 in
  let worker p =
    let pid = Machine.pid p in
    let src = filled m ~pid ~space:Addr.Private ~len:2 (10 * (pid + 1)) in
    let dst = filled m ~pid ~space:Addr.Public ~len:2 0 in
    Machine.put p ~src ~dst:area ();
    Machine.get p ~src:area ~dst ()
  in
  Machine.spawn m ~pid:0 worker;
  Machine.spawn m ~pid:1 worker;
  Machine.spawn m ~pid:2 (fun p ->
      let t = Machine.lock p area in
      Machine.compute p 3.0;
      Machine.unlock p t)

let racing_rmw_scenario m =
  let cell = filled m ~pid:2 ~space:Addr.Public ~len:1 0 in
  let body p = ignore (Machine.fetch_add p ~target:cell.base ~delta:1 ()) in
  Machine.spawn m ~pid:0 body;
  Machine.spawn m ~pid:1 body

let racing_get_scenario m =
  let src = filled m ~pid:2 ~space:Addr.Public ~len:1 20 in
  let dst = filled m ~pid:0 ~space:Addr.Public ~len:1 0 in
  Machine.spawn m ~pid:0 (fun p -> Machine.get p ~src ~dst ());
  Machine.spawn m ~pid:1 (fun p ->
      let src = filled m ~pid:1 ~space:Addr.Private ~len:1 9 in
      Machine.put p ~src ~dst ())

let step_scenarios =
  [
    ("put", [], put_scenario ());
    ("put unacked", [], put_scenario ~ack:false ());
    ("put unlocked", [], put_scenario ~locked:false ());
    ("put unacked unlocked", [], put_scenario ~ack:false ~locked:false ());
    ("put_batch", [], put_batch_scenario ());
    ("put_batch unlocked", [], put_batch_scenario ~locked:false ());
    ("get", [], get_scenario ());
    ("get unlocked", [], get_scenario ~locked:false ());
    ("get_batch", [], get_batch_scenario ());
    ("get_batch unlocked", [], get_batch_scenario ~locked:false ());
    ("fetch_add cas accumulate", [], rmw_scenario);
    ("lock unlock", [], lock_scenario);
    ("control", [], control_scenario);
    ("contended", [], contended_scenario);
    ("racing rmw", [], racing_rmw_scenario);
    ("racing rmw, write after release", [ Machine.Skip_rmw_write_mark ],
     racing_rmw_scenario);
    ("racing get", [], racing_get_scenario);
    ("racing get, no destination lock", [ Machine.Skip_get_dst_lock ],
     racing_get_scenario);
  ]

let test_steps_pinned () =
  let got =
    List.concat_map
      (fun model ->
        List.concat_map
          (fun (name, bugs, setup) ->
            Printf.sprintf "== %s under %s" name (Model.name model)
            :: step_lines ~model ~bugs setup)
          step_scenarios)
      [ Model.Nic_atomic; Model.Relaxed ]
  in
  let expected =
    In_channel.with_open_text "machine_steps.expected" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  if got <> expected then begin
    Out_channel.with_open_text "machine_steps.out" (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) got);
    let rec first i = function
      | g :: gs, e :: es -> if g = e then first (i + 1) (gs, es) else (i, g, e)
      | g :: _, [] -> (i, g, "<end>")
      | [], e :: _ -> (i, "<end>", e)
      | [], [] -> (i, "", "")
    in
    let i, g, e = first 1 (got, expected) in
    Alcotest.failf
      "steps differ from machine_steps.expected at line %d:\n\
      \  expected %s\n\
      \  got      %s\n\
       (whole run written to machine_steps.out)"
      i e g
  end

let () =
  Alcotest.run "rdma"
    [
      ( "put-get",
        [
          Alcotest.test_case "put writes remote" `Quick test_put_writes_remote;
          Alcotest.test_case "get reads remote" `Quick test_get_reads_remote;
          Alcotest.test_case "message counts" `Quick test_put_is_one_message_get_is_two;
          Alcotest.test_case "length mismatch" `Quick test_put_length_mismatch_rejected;
          Alcotest.test_case "private dst rejected" `Quick test_put_to_private_rejected;
          Alcotest.test_case "foreign src rejected" `Quick test_put_from_foreign_src_rejected;
          Alcotest.test_case "self put" `Quick test_self_put;
          Alcotest.test_case "one-sidedness" `Quick test_one_sidedness;
          Alcotest.test_case "concurrent gets" `Quick test_concurrent_gets_serialize_but_complete;
          Alcotest.test_case "control origin" `Quick test_control_handler_sees_origin;
          Alcotest.test_case "proc range" `Quick test_proc_out_of_range;
          Alcotest.test_case "no nodes rejected" `Quick test_no_nodes_rejected;
          Alcotest.test_case "public-to-public copy" `Quick test_copy_within_public_space;
        ] );
      ( "atomicity",
        [
          Alcotest.test_case "blocking put RTT" `Quick test_put_latency_blocking;
          Alcotest.test_case "figure 3" `Quick test_figure3_put_delayed_by_get;
          Alcotest.test_case "disjoint regions" `Quick test_put_not_delayed_on_disjoint_region;
        ] );
      ( "atomics",
        [
          Alcotest.test_case "fetch_add old" `Quick test_fetch_add_returns_old;
          Alcotest.test_case "no lost updates" `Quick test_fetch_add_concurrent_total;
          Alcotest.test_case "cas" `Quick test_cas_semantics;
        ] );
      ( "locks",
        [
          Alcotest.test_case "remote lock excludes" `Quick test_remote_lock_excludes_put;
          Alcotest.test_case "foreign private" `Quick test_lock_private_foreign_rejected;
          Alcotest.test_case "own private free" `Quick test_own_private_lock_is_free;
          Alcotest.test_case "deadlock -> Blocked" `Quick test_deadlock_detected_as_blocked;
          Alcotest.test_case "uncontended local lock does not yield" `Quick
            test_uncontended_local_lock_does_not_yield;
          Alcotest.test_case "contended local lock queues in order" `Quick
            test_contended_local_lock_queues_in_order;
        ] );
      ( "faults",
        [
          Alcotest.test_case "lossy fabric blocks" `Quick
            test_lossy_fabric_blocks_operations;
        ] );
      ( "raw",
        [
          Alcotest.test_case "raw put bypasses" `Quick
            test_unlocked_put_bypasses_lock;
          Alcotest.test_case "extra words" `Quick test_extra_words_charged;
        ] );
      ( "control",
        [
          Alcotest.test_case "roundtrip" `Quick test_control_roundtrip;
          Alcotest.test_case "async" `Quick test_control_async_fire_and_forget;
          Alcotest.test_case "unknown tag" `Quick test_control_unknown_tag_fails;
          Alcotest.test_case "duplicate tag" `Quick test_duplicate_control_tag_rejected;
        ] );
      ( "misc",
        [
          Alcotest.test_case "observer" `Quick test_bus_sees_messages;
          Alcotest.test_case "spawn_all" `Quick test_spawn_all_spmd;
          Alcotest.test_case "per-verb steps pinned" `Quick test_steps_pinned;
        ] );
    ]
