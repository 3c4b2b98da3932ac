(* Tests for dsm_svm: the Li-Hudak page-based DSM (§2 related work). *)

open Dsm_sim
module Machine = Dsm_rdma.Machine
module Svm = Dsm_svm.Svm

let make ?(n = 4) ?(page_words = 8) ?(num_pages = 4) () =
  let sim = Engine.create () in
  let m = Machine.create sim ~n ~latency:(Dsm_net.Latency.Constant 1.0) () in
  let svm = Svm.create m ~page_words ~num_pages () in
  (m, svm)

let expect_completed m =
  match Machine.run m with
  | Engine.Completed -> ()
  | Engine.Blocked k -> Alcotest.failf "blocked (%d)" k
  | _ -> Alcotest.fail "did not complete"

(* What node [pid] loads from [addr] once the run is over: a second run
   on the same machine, through the protocol. *)
let load_after m svm ~pid ~addr =
  let got = ref None in
  Machine.spawn m ~pid (fun p -> got := Some (Svm.load svm p ~addr));
  expect_completed m;
  Option.get !got

let test_local_owner_access_is_free () =
  let m, svm = make () in
  Machine.spawn m ~pid:0 (fun p ->
      (* page 0 is owned by node 0: loads and stores are local *)
      Svm.store svm p ~addr:0 42;
      Alcotest.(check int) "read back" 42 (Svm.load svm p ~addr:0));
  expect_completed m;
  Alcotest.(check int) "no faults" 0 (Svm.read_faults svm + Svm.write_faults svm);
  Alcotest.(check int) "no messages" 0 (Machine.fabric_messages m)

let test_read_fault_fetches_page () =
  let m, svm = make () in
  (* initialize page 1 (owned by node 1) out of band *)
  Machine.spawn m ~pid:1 (fun p -> Svm.store svm p ~addr:9 77);
  Machine.spawn m ~pid:0 (fun p ->
      Machine.compute p 10.0;
      Alcotest.(check int) "faulted value" 77 (Svm.load svm p ~addr:9));
  expect_completed m;
  Alcotest.(check int) "one read fault" 1 (Svm.read_faults svm)

let test_cached_rereads_are_free () =
  let m, svm = make () in
  Machine.spawn m ~pid:0 (fun p ->
      ignore (Svm.load svm p ~addr:9);
      let before = Machine.fabric_messages m in
      for _ = 1 to 20 do
        ignore (Svm.load svm p ~addr:9);
        ignore (Svm.load svm p ~addr:10) (* same page *)
      done;
      Alcotest.(check int) "hits are silent" before (Machine.fabric_messages m));
  expect_completed m;
  Alcotest.(check int) "single fault" 1 (Svm.read_faults svm)

let test_write_invalidates_readers () =
  let m, svm = make ~n:3 () in
  Machine.spawn m ~pid:1 (fun p ->
      (* cache page 0 *)
      ignore (Svm.load svm p ~addr:0);
      Machine.compute p 50.0;
      (* the owner's later store must invalidate us: refault and see it *)
      Alcotest.(check int) "sees new value" 5 (Svm.load svm p ~addr:0));
  Machine.spawn m ~pid:0 (fun p ->
      Machine.compute p 20.0;
      Svm.store svm p ~addr:0 5);
  expect_completed m;
  (* P0's store finds its copy shared: it faults to invalidate P1's, so
     P1's second load faults again instead of hitting a stale copy *)
  Alcotest.(check int) "the store faulted" 1 (Svm.write_faults svm);
  Alcotest.(check int) "reader refaulted" 2 (Svm.read_faults svm)

let test_ownership_migrates_on_write () =
  let m, svm = make ~n:2 () in
  Machine.spawn m ~pid:1 (fun p ->
      (* write fault on node 0's page: ownership moves to node 1 *)
      Svm.store svm p ~addr:3 11;
      let before = Machine.fabric_messages m in
      Svm.store svm p ~addr:4 12;
      (* second store on the now-owned page is free *)
      Alcotest.(check int) "exclusive store silent" before
        (Machine.fabric_messages m));
  expect_completed m;
  Alcotest.(check int) "one write fault" 1 (Svm.write_faults svm);
  Alcotest.(check int) "owner's copy is current" 11
    (load_after m svm ~pid:0 ~addr:3);
  Alcotest.(check int) "and the second store too" 12
    (load_after m svm ~pid:0 ~addr:4)

let test_write_ping_pong_costs () =
  (* Two nodes alternately writing the same page: every store faults. *)
  let m, svm = make ~n:2 () in
  let rounds = 5 in
  Machine.spawn m ~pid:0 (fun p ->
      for r = 0 to rounds - 1 do
        Machine.compute p (float_of_int ((2 * r * 40) + 1));
        Svm.store svm p ~addr:0 r
      done);
  Machine.spawn m ~pid:1 (fun p ->
      for r = 0 to rounds - 1 do
        Machine.compute p (float_of_int (((2 * r) + 1) * 40));
        Svm.store svm p ~addr:0 (100 + r)
      done);
  expect_completed m;
  (* node 0's first store is free (it owns page 0); every subsequent
     alternation faults. *)
  Alcotest.(check int) "ping-pong faults" ((2 * rounds) - 1)
    (Svm.write_faults svm);
  Alcotest.(check int) "last writer wins" (100 + rounds - 1)
    (load_after m svm ~pid:0 ~addr:0)

let test_sequentially_consistent_value_flow () =
  (* Producer stores, then (later in time, after invalidation protocol
     quiesces) consumer loads: must read the produced values. *)
  let m, svm = make ~n:2 ~page_words:4 ~num_pages:2 () in
  Machine.spawn m ~pid:0 (fun p ->
      for i = 0 to 3 do
        Svm.store svm p ~addr:i (1000 + i)
      done);
  Machine.spawn m ~pid:1 (fun p ->
      Machine.compute p 100.0;
      for i = 0 to 3 do
        Alcotest.(check int) "value" (1000 + i) (Svm.load svm p ~addr:i)
      done);
  expect_completed m

let test_concurrent_faults_on_one_page_serialize () =
  (* Three nodes fault the same page at the same instant: the manager
     queues them and every one completes with the right data. *)
  let m, svm = make ~n:4 () in
  Machine.spawn m ~pid:0 (fun p -> Svm.store svm p ~addr:1 77);
  let got = Array.make 4 0 in
  for pid = 1 to 3 do
    Machine.spawn m ~pid (fun p ->
        Machine.compute p 20.0;
        got.(pid) <- Svm.load svm p ~addr:1)
  done;
  expect_completed m;
  Alcotest.(check (array int)) "all readers see the store" [| 0; 77; 77; 77 |]
    got;
  Alcotest.(check int) "three read faults" 3 (Svm.read_faults svm)

let test_bounds () =
  let m, svm = make ~num_pages:2 ~page_words:4 () in
  Machine.spawn m ~pid:0 (fun p ->
      Alcotest.check_raises "oob" (Invalid_argument "Svm: address out of range")
        (fun () -> ignore (Svm.load svm p ~addr:8)));
  expect_completed m

(* 3 pages of 16 words: 48 global words, page [p] owned by node [p]. *)
let test_geometry () =
  let m, svm = make ~n:4 ~page_words:16 ~num_pages:3 () in
  Machine.spawn m ~pid:1 (fun p ->
      (* words 16 and 31 are on P1's own page 1 *)
      Svm.store svm p ~addr:16 1;
      Svm.store svm p ~addr:31 1;
      Alcotest.(check int) "page 1 is 16 words" 0 (Svm.write_faults svm);
      Svm.store svm p ~addr:15 1;
      Svm.store svm p ~addr:32 1;
      Alcotest.(check int) "words 15 and 32 are on other pages" 2
        (Svm.write_faults svm);
      ignore (Svm.load svm p ~addr:47);
      Alcotest.check_raises "48 words" (Invalid_argument "Svm: address out of range")
        (fun () -> ignore (Svm.load svm p ~addr:48)));
  expect_completed m

let () =
  Alcotest.run "svm"
    [
      ( "protocol",
        [
          Alcotest.test_case "owner access free" `Quick test_local_owner_access_is_free;
          Alcotest.test_case "read fault" `Quick test_read_fault_fetches_page;
          Alcotest.test_case "cache hits free" `Quick test_cached_rereads_are_free;
          Alcotest.test_case "write invalidates" `Quick test_write_invalidates_readers;
          Alcotest.test_case "ownership migrates" `Quick test_ownership_migrates_on_write;
          Alcotest.test_case "ping-pong" `Quick test_write_ping_pong_costs;
          Alcotest.test_case "value flow" `Quick test_sequentially_consistent_value_flow;
          Alcotest.test_case "concurrent faults" `Quick test_concurrent_faults_on_one_page_serialize;
        ] );
      ( "interface",
        [
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "geometry" `Quick test_geometry;
        ] );
    ]
