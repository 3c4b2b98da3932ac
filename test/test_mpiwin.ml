(* Tests for dsm_mpiwin: MPI-2 windows, fences, passive target, and the
   MARMOT-style usage checker vs. the clock-based race detector. *)

open Dsm_sim
open Dsm_pgas
open Dsm_mpiwin
module Machine = Dsm_rdma.Machine
module Detector = Dsm_core.Detector
module Config = Dsm_core.Config
module Report = Dsm_core.Report

let make ?(n = 4) () =
  let sim = Engine.create () in
  let m = Machine.create sim ~n ~latency:(Dsm_net.Latency.Constant 1.0) () in
  let d = Detector.create m () in
  let env = Env.checked d in
  let c = Collectives.create env in
  (m, env, c, d)

let expect_completed m =
  match Machine.run m with
  | Engine.Completed -> ()
  | Engine.Blocked k -> Alcotest.failf "blocked (%d)" k
  | _ -> Alcotest.fail "did not complete"

let usage_count w = List.length (Window.usage_violations w)

(* ---------- active target (fences) ---------- *)

let test_fence_epoch_exchange () =
  (* Classic BSP neighbour exchange: everyone puts to the right neighbour
     between fences, then reads its own window. *)
  let m, env, c, d = make () in
  let w = Window.create env ~collectives:c ~name:"w" ~len_per_rank:1 in
  let got = Array.make 4 0 in
  Machine.spawn_all m (fun p ->
      let pid = Machine.pid p in
      Window.fence w p;
      Window.put w p ~rank:((pid + 1) mod 4) ~offset:0 (100 + pid);
      Window.fence w p;
      got.(pid) <- Window.get w p ~rank:pid ~offset:0;
      Window.fence w p);
  expect_completed m;
  Alcotest.(check (array int)) "received from left neighbour"
    [| 103; 100; 101; 102 |] got;
  Alcotest.(check int) "no usage violations" 0 (usage_count w);
  Alcotest.(check int) "no races (fences synchronize)" 0
    (Report.count (Detector.report d))

let test_op_outside_epoch_flagged_by_usage_not_clocks () =
  (* A put before the first fence: MARMOT-style checking flags it; the
     race detector stays silent because nothing conflicts. *)
  let m, env, c, d = make ~n:2 () in
  let w = Window.create env ~collectives:c ~name:"w" ~len_per_rank:1 in
  Machine.spawn_all m (fun p ->
      let pid = Machine.pid p in
      if pid = 0 then Window.put w p ~rank:1 ~offset:0 7;
      Window.fence w p);
  expect_completed m;
  (match Window.usage_violations w with
  | [ v ] ->
      Alcotest.(check int) "by P0" 0 v.Window.pid;
      Alcotest.(check bool) "mentions epoch" true
        (Test_util.contains v.Window.what "outside any access epoch")
  | l -> Alcotest.failf "expected 1 usage violation, got %d" (List.length l));
  Alcotest.(check int) "clocks silent (no conflict)" 0
    (Report.count (Detector.report d))

let test_race_within_epoch_flagged_by_clocks_not_usage () =
  (* Two puts to the same word inside one legal epoch: perfectly legal
     MPI usage (MARMOT silent), and a data race (clocks signal). *)
  let m, env, c, d = make ~n:3 () in
  let w = Window.create env ~collectives:c ~name:"w" ~len_per_rank:1 in
  Machine.spawn_all m (fun p ->
      let pid = Machine.pid p in
      Window.fence w p;
      if pid <> 2 then Window.put w p ~rank:2 ~offset:0 pid;
      Window.fence w p);
  expect_completed m;
  Alcotest.(check int) "usage checker silent" 0 (usage_count w);
  Alcotest.(check int) "race detector signals" 1
    (Report.count (Detector.report d))

(* ---------- passive target ---------- *)

(* Rank 0 reads its own word in a fence epoch opened after every rank's
   passive epoch has closed. *)
let final_value w p =
  Window.fence w p;
  let v = Window.get w p ~rank:0 ~offset:0 in
  Window.fence w p;
  v

let test_passive_lock_serializes () =
  let m, env, c, d = make ~n:3 () in
  let w = Window.create env ~collectives:c ~name:"w" ~len_per_rank:1 in
  let final = ref 0 in
  Machine.spawn_all m (fun p ->
      let pid = Machine.pid p in
      if pid <> 0 then begin
        Window.lock w p ~rank:0;
        let v = Window.get w p ~rank:0 ~offset:0 in
        Window.put w p ~rank:0 ~offset:0 (v + 1);
        Window.unlock w p ~rank:0
      end;
      let v = final_value w p in
      if pid = 0 then final := v);
  expect_completed m;
  ignore d;
  Alcotest.(check int) "no usage violations" 0 (usage_count w);
  Alcotest.(check int) "serialized increments" 2 !final

let test_usage_violations_catalogue () =
  let m, env, c, _ = make ~n:2 () in
  let w = Window.create env ~collectives:c ~name:"w" ~len_per_rank:1 in
  Machine.spawn m ~pid:0 (fun p ->
      (* unlock without lock *)
      Window.unlock w p ~rank:1;
      (* double lock *)
      Window.lock w p ~rank:1;
      Window.lock w p ~rank:1;
      (* op towards a rank whose lock we do not hold *)
      Window.put w p ~rank:0 ~offset:0 1;
      Window.unlock w p ~rank:1);
  Machine.spawn m ~pid:1 (fun p -> ignore p);
  expect_completed m;
  let whats = List.map (fun v -> v.Window.what) (Window.usage_violations w) in
  Alcotest.(check int) "three violations" 3 (List.length whats);
  Alcotest.(check bool) "unlock w/o lock" true
    (List.exists (fun s -> Test_util.contains s "without a lock") whats);
  Alcotest.(check bool) "double lock" true
    (List.exists (fun s -> Test_util.contains s "double lock") whats);
  Alcotest.(check bool) "wrong target" true
    (List.exists (fun s -> Test_util.contains s "without holding its lock") whats)

let test_accumulate_is_atomic_and_legal () =
  let m, env, c, d = make ~n:4 () in
  let w = Window.create env ~collectives:c ~name:"w" ~len_per_rank:1 in
  let final = ref 0 in
  Machine.spawn_all m (fun p ->
      Window.fence w p;
      for _ = 1 to 5 do
        Window.accumulate w p ~rank:0 ~offset:0 ~delta:1
      done;
      let v = final_value w p in
      if Machine.pid p = 0 then final := v);
  expect_completed m;
  Alcotest.(check int) "usage clean" 0 (usage_count w);
  Alcotest.(check int) "atomics clean" 0 (Report.count (Detector.report d));
  Alcotest.(check int) "no lost updates" 20 !final

let test_window_bounds () =
  let _, env, c, _ = make ~n:2 () in
  let w = Window.create env ~collectives:c ~name:"w" ~len_per_rank:2 in
  Alcotest.check_raises "offset"
    (Invalid_argument "Window: offset outside the window") (fun () ->
      Window.put w (Machine.proc (Env.machine env) ~pid:0) ~rank:0 ~offset:2 1)

let () =
  Alcotest.run "mpiwin"
    [
      ( "active-target",
        [
          Alcotest.test_case "fence exchange" `Quick test_fence_epoch_exchange;
          Alcotest.test_case "op outside epoch" `Quick
            test_op_outside_epoch_flagged_by_usage_not_clocks;
          Alcotest.test_case "race within epoch" `Quick
            test_race_within_epoch_flagged_by_clocks_not_usage;
        ] );
      ( "passive-target",
        [
          Alcotest.test_case "lock serializes" `Quick test_passive_lock_serializes;
          Alcotest.test_case "usage catalogue" `Quick test_usage_violations_catalogue;
        ] );
      ( "rma",
        [
          Alcotest.test_case "accumulate" `Quick test_accumulate_is_atomic_and_legal;
          Alcotest.test_case "bounds" `Quick test_window_bounds;
        ] );
    ]
