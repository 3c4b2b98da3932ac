(* Tests for dsm_workload and dsm_stats: the generators must behave as the
   experiments assume (racy where intended, clean where intended, and
   numerically correct). *)

open Dsm_sim
open Dsm_pgas
open Dsm_workload
module Machine = Dsm_rdma.Machine
module Detector = Dsm_core.Detector
module Config = Dsm_core.Config
module Report = Dsm_core.Report

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

(* ---------- random access ---------- *)

let test_random_access_runs_and_races () =
  let m, env, d = make_checked () in
  Random_access.setup env
    { Random_access.default with ops_per_proc = 30; seed = 42 };
  expect_completed m;
  Alcotest.(check int) "all ops issued" (30 * 4) (Detector.checked_ops d);
  Alcotest.(check bool) "unsynchronized sharing races" true
    (Report.count (Detector.report d) > 0)

let test_random_access_determinism () =
  let run () =
    let m, env, d = make_checked () in
    Random_access.setup env { Random_access.default with seed = 7 };
    expect_completed m;
    (Report.count (Detector.report d), Machine.fabric_messages m)
  in
  let a = run () and b = run () in
  Alcotest.(check (pair int int)) "same seed, same run" a b

let test_random_access_seed_changes_workload () =
  let run seed =
    let m, env, d = make_checked () in
    Random_access.setup env { Random_access.default with seed };
    expect_completed m;
    ignore d;
    Machine.fabric_words m
  in
  Alcotest.(check bool) "different seeds differ" true (run 1 <> run 2)

let test_random_access_barriers_reduce_races () =
  let run barrier_every =
    let m, env, d = make_checked () in
    let c = Collectives.create env in
    Random_access.setup env ~collectives:c
      { Random_access.default with ops_per_proc = 20; barrier_every; seed = 5 };
    expect_completed m;
    Report.count (Detector.report d)
  in
  let free = run None in
  let locked = run (Some 1) in
  (* Barriers order the rounds, so only same-round conflicts remain: far
     fewer than in the fully unsynchronized run (but not necessarily 0 —
     two processes' ops within one round are still concurrent). *)
  Alcotest.(check bool) "barriers reduce races" true (locked < free)

let test_random_access_read_only_clean () =
  (* With 100% reads there is no write anywhere: nothing can race. *)
  let m, env, d = make_checked () in
  Random_access.setup env
    { Random_access.default with read_fraction = 1.0; seed = 3 };
  expect_completed m;
  Alcotest.(check int) "pure readers are clean" 0 (Report.count (Detector.report d))

let test_random_access_validates () =
  let _, env, _ = make_checked () in
  Alcotest.check_raises "barrier needs collectives"
    (Invalid_argument "Random_access.setup: barrier_every needs collectives")
    (fun () ->
      Random_access.setup env
        { Random_access.default with barrier_every = Some 2 })

(* ---------- master/worker ---------- *)

let run_master_worker ~racy =
  let m, env, d = make_checked ~n:4 () in
  let c = Collectives.create env in
  Master_worker.setup env ~collectives:c
    { Master_worker.default with racy; tasks_per_worker = 4 };
  expect_completed m;
  (env, d)

let test_master_worker_racy_flagged_not_aborted () =
  let env, d = run_master_worker ~racy:true in
  Alcotest.(check bool) "intentional race signaled" true
    (Report.count (Detector.report d) > 0);
  (* §4.4: signal but do not abort — the run completed and the master
     read SOME worker's final counter. *)
  Alcotest.(check int) "last write wins" 4 (Master_worker.master_total env)

let test_master_worker_clean_variant () =
  let env, d = run_master_worker ~racy:false in
  Alcotest.(check int) "no signal" 0 (Report.count (Detector.report d));
  Alcotest.(check int) "all results counted" 12 (Master_worker.master_total env)

(* ---------- stencil ---------- *)

let test_stencil_matches_reference_and_is_clean () =
  let m, env, d = make_checked ~n:4 () in
  let c = Collectives.create env in
  let params = { Stencil.default with cells_per_node = 6; iterations = 5 } in
  let grid = Stencil.setup env ~collectives:c params in
  expect_completed m;
  let expected = Stencil.reference grid params in
  let actual = Array.init (Shared_array.length grid) (Shared_array.peek grid) in
  Alcotest.(check (array int)) "simulated = sequential reference" expected actual;
  Alcotest.(check int) "bulk-synchronous: no races" 0
    (Report.count (Detector.report d))

let test_stencil_without_barriers_races () =
  (* Sanity of the workload design: the barriers are what makes it clean.
     Run two iterations with a plain environment but a detector attached
     via a checked env and barriers replaced by nothing — approximated
     here by running neighbours without the barrier collective. *)
  let m, env, d = make_checked ~n:2 () in
  let grid = Shared_array.create env ~name:"g" ~len:8 () in
  Machine.spawn_all m (fun p ->
      let pid = Machine.pid p in
      let other = 1 - pid in
      (* write own boundary, then read the other side with no sync *)
      Shared_array.write grid p ((pid * 4) + 3) 1;
      ignore (Shared_array.read grid p ((other * 4) + 3)));
  expect_completed m;
  Alcotest.(check bool) "unsynchronized halo races" true
    (Report.count (Detector.report d) > 0)

(* A small stencil under the default config (one registered variable per
   cell) on a jittered fabric, once per transport. Every checked access
   looks up the variables it touches, so any change to that lookup's
   visits or their order moves the race fingerprint, the traffic
   counters, the final simulated time or the final grid. *)
let stencil_digest transport =
  let sim = Engine.create ~seed:7 () in
  let latency =
    Dsm_net.Latency.Jittered
      { model = Dsm_net.Latency.Constant 1.0; mean_jitter = 2.0 }
  in
  let m = Machine.create sim ~n:8 ~latency () in
  let d =
    Detector.create m ~config:{ Config.default with Config.transport } ()
  in
  let env = Env.checked d in
  let params = { Stencil.cells_per_node = 16; iterations = 3; seed = 5 } in
  let grid = Stencil.setup env ~collectives:(Collectives.create env) params in
  expect_completed m;
  let cells =
    Array.init (Shared_array.length grid) (Shared_array.peek grid)
    |> Array.to_list |> List.map string_of_int |> String.concat ","
  in
  Printf.sprintf "races=%d msgs=%d wire=%d clock=%d t=%.3f grid=%s fp=%s"
    (Report.count (Detector.report d))
    (Machine.fabric_messages m)
    (Machine.wire_words_sent m)
    (Machine.clock_words_sent m)
    (Engine.now sim) cells
    (Report.fingerprint (Detector.report d))

let stencil_goldens =
  [
    (Config.Inline,
     "races=0 msgs=1716 wire=9634 clock=5200 t=116.669 grid=9,27,38,37,31,26,30,39,50,54,54,50,48,45,45,47,54,58,56,48,43,41,43,45,48,53,58,62,59,51,43,40,43,46,52,57,63,65,65,62,61,60,59,58,56,54,48,46,47,53,52,47,37,33,34,43,52,59,60,56,47,40,36,38,42,49,54,55,54,53,52,47,39,31,32,42,58,73,78,77,69,65,60,57,49,40,32,31,33,37,39,41,39,40,41,48,55,62,62,54,42,32,28,32,44,57,64,61,54,48,49,55,62,60,53,45,41,42,41,42,49,61,70,68,57,41,22,2 fp=fdd73622d6dcab3e995bca53fee6ba14");
    (Config.Piggyback_txn,
     "races=0 msgs=1842 wire=10260 clock=5406 t=147.551 grid=9,27,38,37,31,26,30,39,50,54,54,50,48,45,45,47,54,58,56,48,43,41,43,45,48,53,58,62,59,51,43,40,43,46,52,57,63,65,65,62,61,60,59,58,56,54,48,46,47,53,52,47,37,33,34,43,52,59,60,56,47,40,36,38,42,49,54,55,54,53,52,47,39,31,32,42,58,73,78,77,69,65,60,57,49,40,32,31,33,37,39,41,39,40,41,48,55,62,62,54,42,32,28,32,44,57,64,61,54,48,49,55,62,60,53,45,41,42,41,42,49,61,70,68,57,41,22,2 fp=fdd73622d6dcab3e995bca53fee6ba14");
    (Config.Explicit_txn,
     "races=0 msgs=1968 wire=6744 clock=0 t=201.654 grid=9,27,38,37,31,26,30,39,50,54,54,50,48,45,45,47,54,58,56,48,43,41,43,45,48,53,58,62,59,51,43,40,43,46,52,57,63,65,65,62,61,60,59,58,56,54,48,46,47,53,52,47,37,33,34,43,52,59,60,56,47,40,36,38,42,49,54,55,54,53,52,47,39,31,32,42,58,73,78,77,69,65,60,57,49,40,32,31,33,37,39,41,39,40,41,48,55,62,62,54,42,32,28,32,44,57,64,61,54,48,49,55,62,60,53,45,41,42,41,42,49,61,70,68,57,41,22,2 fp=fdd73622d6dcab3e995bca53fee6ba14");
  ]

let test_stencil_pins () =
  List.iter
    (fun (transport, expected) ->
      Alcotest.(check string) (Config.transport_name transport) expected
        (stencil_digest transport))
    stencil_goldens

(* ---------- pipeline ---------- *)

let test_pipeline_delivers_and_flags_only_the_flag () =
  let m, env, d =
    make_checked ~n:2
      ~config:{ Config.default with Config.granularity = Config.Word }
      ()
  in
  let params = { Pipeline.default with Pipeline.batches = 3 } in
  Pipeline.setup env params;
  expect_completed m;
  let expected = ref 0 in
  for b = 0 to params.batches - 1 do
    for i = 0 to params.batch_words - 1 do
      expected := !expected + (100 * (b + 1)) + i + params.seed
    done
  done;
  let node1 = Machine.node m 1 in
  let consumed =
    match
      Dsm_memory.Allocator.lookup
        (Dsm_memory.Node_memory.allocator node1 Dsm_memory.Addr.Public)
        "pipe.checksum"
    with
    | Some (offset, len) ->
        (Dsm_memory.Node_memory.read node1
           (Dsm_memory.Addr.region ~pid:1 ~space:Dsm_memory.Addr.Public ~offset
              ~len)).(0)
    | None -> Alcotest.fail "no pipe.checksum"
  in
  Alcotest.(check int) "all batches arrived intact" !expected consumed;
  let signals = Report.races (Detector.report d) in
  Alcotest.(check bool) "the polling hand-off races" true
    (List.length signals > 0);
  (* Every signal points at the flag word — the data hand-off itself is
     ordered through the flag's clocks. *)
  let flag_offset, _ =
    Option.get
      (Dsm_memory.Allocator.lookup
         (Dsm_memory.Node_memory.allocator node1 Dsm_memory.Addr.Public)
         "pipe.flag")
  in
  List.iter
    (fun r ->
      let g = r.Report.granule in
      Alcotest.(check (pair int int))
        "signal on the flag word"
        (1, flag_offset)
        (g.Dsm_memory.Addr.base.pid, g.Dsm_memory.Addr.base.offset))
    signals

(* ---------- locked counter ---------- *)

let run_locked_counter ~lock_aware =
  let m, env, d =
    make_checked ~n:3
      ~config:
        {
          Config.default with
          Config.granularity = Config.Word;
          lock_aware_clocks = lock_aware;
        }
      ()
  in
  Locked_counter.setup env
    { Locked_counter.default with increments_per_proc = 4 };
  expect_completed m;
  (Locked_counter.counter_value env, Report.count (Detector.report d))

let test_locked_counter_mutual_exclusion () =
  let count, _ = run_locked_counter ~lock_aware:false in
  Alcotest.(check int) "no lost updates under the lock" 12 count

let test_locked_counter_paper_clocks_false_positive () =
  let _, signals = run_locked_counter ~lock_aware:false in
  Alcotest.(check bool) "paper clocks flag lock-ordered accesses" true
    (signals > 0)

let test_locked_counter_lock_aware_clean () =
  let count, signals = run_locked_counter ~lock_aware:true in
  Alcotest.(check int) "still correct" 12 count;
  Alcotest.(check int) "lock-aware clocks are silent" 0 signals

(* ---------- stats ---------- *)

let test_summary_basic () =
  let open Dsm_stats in
  let s = Summary.of_list [ 1.; 2.; 3.; 4. ] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.Summary.mean;
  Alcotest.(check (float 1e-9)) "min" 1. s.Summary.min;
  Alcotest.(check (float 1e-9)) "max" 4. s.Summary.max;
  Alcotest.(check int) "count" 4 s.Summary.count;
  Alcotest.(check (float 1e-6)) "stddev" 1.290994 s.Summary.stddev

let test_summary_percentile () =
  let open Dsm_stats in
  let xs = [| 10.; 20.; 30.; 40.; 50. |] in
  Alcotest.(check (float 1e-9)) "median" 30. (Summary.percentile xs ~p:50.);
  Alcotest.(check (float 1e-9)) "p0" 10. (Summary.percentile xs ~p:0.);
  Alcotest.(check (float 1e-9)) "p100" 50. (Summary.percentile xs ~p:100.);
  Alcotest.(check (float 1e-9)) "p25" 20. (Summary.percentile xs ~p:25.)

let test_summary_empty_rejected () =
  let open Dsm_stats in
  Alcotest.check_raises "empty" (Invalid_argument "Summary.of_array: empty")
    (fun () -> ignore (Summary.of_list []))

let test_table_renders () =
  let open Dsm_stats in
  let t = Table.create ~headers:[ "n"; "latency" ] in
  Table.add_row t [ "2"; "1.00" ];
  Table.add_row t [ "16"; "12.50" ];
  let s = Table.render t in
  Alcotest.(check bool) "has header" true (Test_util.contains s "latency");
  Alcotest.(check bool) "has rule" true (Test_util.contains s "--");
  Alcotest.(check bool) "has row" true (Test_util.contains s "12.50")

let test_table_width_mismatch () =
  let open Dsm_stats in
  let t = Table.create ~headers:[ "a"; "b" ] in
  Alcotest.check_raises "width"
    (Invalid_argument "Table.add_row: width differs from headers") (fun () ->
      Table.add_row t [ "only one" ])

let () =
  Alcotest.run "workload"
    [
      ( "random-access",
        [
          Alcotest.test_case "runs and races" `Quick test_random_access_runs_and_races;
          Alcotest.test_case "deterministic" `Quick test_random_access_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_random_access_seed_changes_workload;
          Alcotest.test_case "barriers clean" `Quick test_random_access_barriers_reduce_races;
          Alcotest.test_case "read-only clean" `Quick test_random_access_read_only_clean;
          Alcotest.test_case "validates" `Quick test_random_access_validates;
        ] );
      ( "master-worker",
        [
          Alcotest.test_case "racy variant" `Quick test_master_worker_racy_flagged_not_aborted;
          Alcotest.test_case "clean variant" `Quick test_master_worker_clean_variant;
        ] );
      ( "stencil",
        [
          Alcotest.test_case "reference + clean" `Quick test_stencil_matches_reference_and_is_clean;
          Alcotest.test_case "no barriers: races" `Quick test_stencil_without_barriers_races;
          Alcotest.test_case "pinned under every transport" `Quick test_stencil_pins;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "flag-only signals" `Quick
            test_pipeline_delivers_and_flags_only_the_flag;
        ] );
      ( "locked-counter",
        [
          Alcotest.test_case "mutual exclusion" `Quick test_locked_counter_mutual_exclusion;
          Alcotest.test_case "paper clocks FP" `Quick test_locked_counter_paper_clocks_false_positive;
          Alcotest.test_case "lock-aware clean" `Quick test_locked_counter_lock_aware_clean;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_summary_basic;
          Alcotest.test_case "percentile" `Quick test_summary_percentile;
          Alcotest.test_case "empty" `Quick test_summary_empty_rejected;
          Alcotest.test_case "table" `Quick test_table_renders;
          Alcotest.test_case "table width" `Quick test_table_width_mismatch;
        ] );
    ]
