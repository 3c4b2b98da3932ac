(* Tests for dsm_pgas: shared arrays, collectives, and the §5.2 one-sided
   reduction, plain and under detection. *)

open Dsm_sim
open Dsm_pgas
module Machine = Dsm_rdma.Machine
module Detector = Dsm_core.Detector
module Config = Dsm_core.Config
module Report = Dsm_core.Report

let make_plain ?(n = 4) () =
  let sim = Engine.create () in
  let m = Machine.create sim ~n ~latency:(Dsm_net.Latency.Constant 1.0) () in
  (m, Env.plain m)

let make_checked ?(n = 4) ?config () =
  let sim = Engine.create () in
  let m = Machine.create sim ~n ~latency:(Dsm_net.Latency.Constant 1.0) () in
  let d = Detector.create m ?config () in
  (m, Env.checked d, d)

let expect_completed m =
  match Machine.run m with
  | Engine.Completed -> ()
  | Engine.Blocked k -> Alcotest.failf "blocked (%d)" k
  | _ -> Alcotest.fail "did not complete"

(* ---------- shared arrays ---------- *)

(* The affinity of element [i]: the node its region lives on. *)
let owner a i = (Shared_array.region_of a i).Dsm_memory.Addr.base.pid

let test_array_layouts () =
  let _, env = make_plain ~n:4 () in
  let block = Shared_array.create env ~name:"b" ~len:8 () in
  let cyclic = Shared_array.create env ~name:"c" ~len:8 ~layout:Shared_array.Cyclic () in
  let hosted =
    Shared_array.create env ~name:"h" ~len:8 ~layout:(Shared_array.On_node 2) ()
  in
  Alcotest.(check (list int)) "block owners"
    [ 0; 0; 1; 1; 2; 2; 3; 3 ]
    (List.init 8 (owner block));
  Alcotest.(check (list int)) "cyclic owners"
    [ 0; 1; 2; 3; 0; 1; 2; 3 ]
    (List.init 8 (owner cyclic));
  Alcotest.(check (list int)) "hosted owners"
    [ 2; 2; 2; 2; 2; 2; 2; 2 ]
    (List.init 8 (owner hosted))

let test_array_my_indices () =
  let _, env = make_plain ~n:4 () in
  let a = Shared_array.create env ~name:"a" ~len:10 ~layout:Shared_array.Cyclic () in
  Alcotest.(check (list int)) "pid 1 cyclic" [ 1; 5; 9 ]
    (Shared_array.my_indices a ~pid:1)

let test_array_write_read_roundtrip () =
  let m, env = make_plain ~n:3 () in
  let a = Shared_array.create env ~name:"a" ~len:9 () in
  Machine.spawn m ~pid:0 (fun p ->
      for i = 0 to 8 do
        Shared_array.write a p i (i * i)
      done;
      for i = 0 to 8 do
        Alcotest.(check int) (Printf.sprintf "a[%d]" i) (i * i)
          (Shared_array.read a p i)
      done);
  expect_completed m

let test_array_poke_peek () =
  let _, env = make_plain ~n:2 () in
  let a = Shared_array.create env ~name:"a" ~len:4 () in
  Shared_array.poke a 3 42;
  Alcotest.(check int) "meta roundtrip" 42 (Shared_array.peek a 3)

let test_array_bounds () =
  let _, env = make_plain ~n:2 () in
  let a = Shared_array.create env ~name:"a" ~len:4 () in
  Alcotest.check_raises "oob" (Invalid_argument "Shared_array: index out of bounds")
    (fun () -> ignore (Shared_array.region_of a 4))

let test_array_checked_access_is_registered () =
  let m, env, d = make_checked ~n:2 () in
  let a = Shared_array.create env ~name:"a" ~len:4 () in
  Machine.spawn m ~pid:0 (fun p -> Shared_array.write a p 3 7);
  expect_completed m;
  Alcotest.(check int) "no signal on single access" 0
    (Report.count (Detector.report d));
  Alcotest.(check int) "value arrived" 7 (Shared_array.peek a 3)

let test_clock_granularity () =
  (* Two writers to adjacent elements on one node do not race: each
     element has its own clock pair. *)
  let m, env, d = make_checked ~n:3 () in
  let a =
    Shared_array.create env ~name:"a" ~len:2 ~layout:(Shared_array.On_node 2)
      ()
  in
  Machine.spawn m ~pid:0 (fun p -> Shared_array.write a p 0 1);
  Machine.spawn m ~pid:1 (fun p -> Shared_array.write a p 1 2);
  expect_completed m;
  Alcotest.(check int) "distinct elements: clean" 0
    (Report.count (Detector.report d));
  Alcotest.(check (list int)) "values arrived" [ 1; 2 ]
    [ Shared_array.peek a 0; Shared_array.peek a 1 ]

(* Property: under every layout, each index has exactly one owner and a
   distinct global word. *)
let prop_layout_bijection =
  QCheck.Test.make ~name:"layout maps indices to distinct words" ~count:100
    (QCheck.make
       ~print:(fun (n, len, which) ->
         Printf.sprintf "n=%d len=%d layout=%d" n len which)
       QCheck.Gen.(triple (int_range 1 6) (int_range 1 24) (int_range 0 2)))
    (fun (n, len, which) ->
      let sim = Engine.create () in
      let m = Machine.create sim ~n () in
      let env = Env.plain m in
      let layout =
        match which with
        | 0 -> Shared_array.Block
        | 1 -> Shared_array.Cyclic
        | _ -> Shared_array.On_node (len mod n)
      in
      let a = Shared_array.create env ~name:"p" ~len ~layout () in
      let seen = Hashtbl.create 16 in
      let ok = ref true in
      for i = 0 to len - 1 do
        let r = Shared_array.region_of a i in
        let owner = r.Dsm_memory.Addr.base.pid in
        if owner < 0 || owner >= n then ok := false;
        let key = (r.Dsm_memory.Addr.base.pid, r.Dsm_memory.Addr.base.offset) in
        if Hashtbl.mem seen key then ok := false;
        Hashtbl.add seen key ()
      done;
      !ok)

(* ---------- barrier ---------- *)

let test_barrier_releases_everyone () =
  let m, env = make_plain ~n:4 () in
  let c = Collectives.create env in
  let released = ref 0 in
  Machine.spawn_all m (fun p ->
      Machine.compute p (float_of_int (Machine.pid p) *. 10.);
      Collectives.barrier c p;
      incr released);
  expect_completed m;
  Alcotest.(check int) "all released" 4 !released;
  (* each process's generation advanced: the same barrier releases
     everyone again, not a stale generation's waiters *)
  Machine.spawn_all m (fun p ->
      Machine.compute p (float_of_int (3 - Machine.pid p) *. 10.);
      Collectives.barrier c p;
      incr released);
  expect_completed m;
  Alcotest.(check int) "all released again" 8 !released

let test_barrier_waits_for_slowest () =
  let m, env = make_plain ~n:2 () in
  let c = Collectives.create env in
  let t0 = ref 0. and t1 = ref 0. in
  Machine.spawn m ~pid:0 (fun p ->
      Collectives.barrier c p;
      t0 := Engine.now (Machine.sim m));
  Machine.spawn m ~pid:1 (fun p ->
      Machine.compute p 100.;
      Collectives.barrier c p;
      t1 := Engine.now (Machine.sim m));
  expect_completed m;
  Alcotest.(check bool) "p0 released after p1 arrived" true (!t0 >= 100.);
  Alcotest.(check bool) "releases close together" true (abs_float (!t0 -. !t1) < 5.)

let test_barrier_repeated_generations () =
  let m, env = make_plain ~n:3 () in
  let c = Collectives.create env in
  let log = ref [] in
  Machine.spawn_all m (fun p ->
      for round = 1 to 3 do
        Machine.compute p (float_of_int (Machine.pid p + round));
        Collectives.barrier c p;
        if Machine.pid p = 0 then log := round :: !log
      done);
  expect_completed m;
  Alcotest.(check (list int)) "three rounds" [ 1; 2; 3 ] (List.rev !log)

(* ---------- reductions ---------- *)

let test_reduce_gather_sums () =
  let m, env = make_plain ~n:4 () in
  let c = Collectives.create env in
  let at_root = ref None in
  Machine.spawn_all m (fun p ->
      let pid = Machine.pid p in
      match Collectives.reduce_gather c p ~root:1 ~value:(pid + 1) with
      | Some sum -> at_root := Some (pid, sum)
      | None -> ());
  expect_completed m;
  Alcotest.(check (option (pair int int))) "sum at root" (Some (1, 10)) !at_root

let test_reduce_gather_clean_under_detection () =
  let m, env, d = make_checked ~n:4 () in
  let c = Collectives.create env in
  Machine.spawn_all m (fun p ->
      ignore (Collectives.reduce_gather c p ~root:0 ~value:1));
  expect_completed m;
  Alcotest.(check int) "no false positives" 0 (Report.count (Detector.report d))

let test_reduce_onesided_no_participation () =
  (* The §5.2 scenario: contributions are pre-published; only node 0 runs
     a program during the reduction. *)
  let m, env = make_plain ~n:4 () in
  let slots =
    Shared_array.create env ~name:"contrib" ~len:4 ~layout:Shared_array.Cyclic ()
  in
  for i = 0 to 3 do
    Shared_array.poke slots i (10 * (i + 1))
  done;
  let c = Collectives.create env in
  let sum = ref 0 in
  Machine.spawn m ~pid:0 (fun p ->
      sum := Collectives.reduce_onesided_sum c p slots);
  expect_completed m;
  Alcotest.(check int) "sum" 100 !sum

let test_reduce_onesided_flags_unsynchronized () =
  (* Owners write their slots and the root reduces with no synchronization:
     the detector must signal the write/read races. *)
  let m, env, d = make_checked ~n:3 () in
  let slots =
    Shared_array.create env ~name:"contrib" ~len:3 ~layout:Shared_array.Cyclic ()
  in
  let c = Collectives.create env in
  for pid = 1 to 2 do
    Machine.spawn m ~pid (fun p -> Shared_array.write slots p pid (pid * 5))
  done;
  Machine.spawn m ~pid:0 (fun p ->
      Machine.compute p 50.;
      Shared_array.write slots p 0 5;
      ignore (Collectives.reduce_onesided_sum c p slots));
  expect_completed m;
  Alcotest.(check bool) "unsynchronized one-sided reduce races" true
    (Report.count (Detector.report d) >= 2)

let test_reduce_onesided_clean_after_barrier () =
  let m, env, d = make_checked ~n:3 () in
  let slots =
    Shared_array.create env ~name:"contrib" ~len:3 ~layout:Shared_array.Cyclic ()
  in
  let c = Collectives.create env in
  let sum = ref 0 in
  Machine.spawn_all m (fun p ->
      let pid = Machine.pid p in
      Shared_array.write slots p pid (pid + 1);
      Collectives.barrier c p;
      if pid = 0 then sum := Collectives.reduce_onesided_sum c p slots);
  expect_completed m;
  Alcotest.(check int) "sum" 6 !sum;
  Alcotest.(check int) "clean after barrier" 0 (Report.count (Detector.report d))

(* ---------- batches ---------- *)

(* Plain and checked environments take the same batches: one run, as
   [Machine.check_batch] defines it. Each malformed batch raises the
   same [Invalid_argument] under both, and the checked call raises
   before it counts, ticks, locks or sends anything. *)
let malformed_batches =
  [
    ("empty put_batch", "Machine.put_batch: empty batch");
    ("two-node put_batch", "Machine.put_batch: parts target different nodes");
    ( "non-contiguous get_batch",
      "Machine.get_batch: source parts must be contiguous and ascending" );
  ]

(* Runs [case] from P0 of a fresh three-node machine under [env] and
   returns what the call raised. *)
let raise_batch m env case =
  let pub pid off =
    let r = Machine.alloc_public m ~pid ~len:4 () in
    Dsm_memory.Addr.region ~pid ~space:Dsm_memory.Addr.Public
      ~offset:(r.base.offset + off) ~len:1
  and priv () = Machine.alloc_private m ~pid:0 ~len:1 () in
  let raised = ref "nothing" in
  Machine.spawn m ~pid:0 (fun p ->
      try
        match case with
        | "empty put_batch" -> Env.put_batch env p ~pairs:[]
        | "two-node put_batch" ->
            Env.put_batch env p
              ~pairs:[ (priv (), pub 1 0); (priv (), pub 2 0) ]
        | "non-contiguous get_batch" ->
            let a0 = pub 1 0 in
            let a2 =
              Dsm_memory.Addr.region ~pid:1 ~space:Dsm_memory.Addr.Public
                ~offset:(a0.base.offset + 2) ~len:1
            in
            Env.get_batch env p ~pairs:[ (a0, priv ()); (a2, priv ()) ]
        | c -> Alcotest.failf "unknown batch case %s" c
      with Invalid_argument msg -> raised := msg);
  expect_completed m;
  !raised

let test_batches_plain_checked_agree () =
  List.iter
    (fun (case, want) ->
      let m, env = make_plain ~n:3 () in
      Alcotest.(check string) ("plain " ^ case) want (raise_batch m env case);
      List.iter
        (fun transport ->
          let config = { Config.default with Config.transport } in
          let m, env, d = make_checked ~n:3 ~config () in
          let clock = Dsm_clocks.Vector_clock.to_array (Detector.proc_clock d 0) in
          Alcotest.(check string) ("checked " ^ case) want
            (raise_batch m env case);
          Alcotest.(check int) (case ^ ": nothing counted") 0
            (Detector.checked_ops d);
          Alcotest.(check (array int)) (case ^ ": no tick") clock
            (Dsm_clocks.Vector_clock.to_array (Detector.proc_clock d 0));
          Alcotest.(check bool) (case ^ ": no lock left") true
            (Machine.locks_quiescent m);
          Alcotest.(check int) (case ^ ": no message") 0
            (Machine.fabric_messages m))
        [ Config.Inline; Config.Piggyback_txn; Config.Explicit_txn ])
    malformed_batches

(* ---------- task pool ---------- *)

let test_task_pool_executes_everything () =
  let m, env, d = make_checked ~n:4 () in
  let c = Collectives.create env in
  let pool = Task_pool.create env ~collectives:c ~name:"pool" ~capacity_per_node:16 in
  (* Unbalanced seeding: node 0 has almost all the work. *)
  Task_pool.seed_tasks pool ~pid:0 (List.init 12 (fun i -> i));
  Task_pool.seed_tasks pool ~pid:1 [ 100 ];
  let done_tasks = ref [] in
  Machine.spawn_all m (fun p ->
      Task_pool.run_worker pool p ~work:(fun task ->
          Machine.compute p 5.0;
          done_tasks := task :: !done_tasks));
  expect_completed m;
  Alcotest.(check (list int)) "every task ran exactly once"
    (List.sort compare (100 :: List.init 12 (fun i -> i)))
    (List.sort compare !done_tasks);
  let per_worker = Task_pool.executed pool in
  Alcotest.(check int) "counts add up" 13 (Array.fold_left ( + ) 0 per_worker);
  (* With 5us tasks and unbalanced seeding, stealing must spread work. *)
  Alcotest.(check bool) "idle nodes stole work" true
    (Array.to_list per_worker |> List.filter (fun c -> c > 0) |> List.length >= 3);
  Alcotest.(check int) "lock-free pool is race-free" 0
    (Report.count (Detector.report d))

let test_task_pool_overflow_rejected () =
  let _, env, _ = make_checked ~n:2 () in
  let c = Collectives.create env in
  let pool = Task_pool.create env ~collectives:c ~name:"pool" ~capacity_per_node:2 in
  Alcotest.check_raises "overflow" (Failure "Task_pool.seed_tasks: queue overflow")
    (fun () -> Task_pool.seed_tasks pool ~pid:0 [ 1; 2; 3 ])

let () =
  Alcotest.run "pgas"
    [
      ( "shared-array",
        [
          Alcotest.test_case "layouts" `Quick test_array_layouts;
          Alcotest.test_case "my_indices" `Quick test_array_my_indices;
          Alcotest.test_case "write/read" `Quick test_array_write_read_roundtrip;
          Alcotest.test_case "poke/peek" `Quick test_array_poke_peek;
          Alcotest.test_case "bounds" `Quick test_array_bounds;
          Alcotest.test_case "checked access" `Quick test_array_checked_access_is_registered;
          Alcotest.test_case "clock granularity" `Quick test_clock_granularity;
        ] );
      ("layout-properties", [ QCheck_alcotest.to_alcotest prop_layout_bijection ]);
      ( "barrier",
        [
          Alcotest.test_case "releases everyone" `Quick test_barrier_releases_everyone;
          Alcotest.test_case "waits for slowest" `Quick test_barrier_waits_for_slowest;
          Alcotest.test_case "repeated" `Quick test_barrier_repeated_generations;
        ] );
      ( "task-pool",
        [
          Alcotest.test_case "steals and completes" `Quick test_task_pool_executes_everything;
          Alcotest.test_case "overflow" `Quick test_task_pool_overflow_rejected;
        ] );
      ( "reduce",
        [
          Alcotest.test_case "gather sums" `Quick test_reduce_gather_sums;
          Alcotest.test_case "gather clean" `Quick test_reduce_gather_clean_under_detection;
          Alcotest.test_case "one-sided (5.2)" `Quick test_reduce_onesided_no_participation;
          Alcotest.test_case "one-sided races" `Quick test_reduce_onesided_flags_unsynchronized;
          Alcotest.test_case "one-sided after barrier" `Quick test_reduce_onesided_clean_after_barrier;
        ] );
      ( "batches",
        [
          Alcotest.test_case "plain and checked agree" `Quick
            test_batches_plain_checked_agree;
        ] );
    ]
