(* Tests for dsm_core: the paper's detection algorithm on the figure
   scenarios of §4, the ablations, and equivalence with the offline
   ground truth. *)

open Dsm_sim
open Dsm_memory
open Dsm_core
module Machine = Dsm_rdma.Machine

let make ?(n = 3) ?config ?seed () =
  let sim = Engine.create ?seed () in
  let m =
    Machine.create sim ~n ~latency:(Dsm_net.Latency.Constant 1.0) ()
  in
  let d = Detector.create m ?config () in
  (m, d)

(* The store's granule walk as an iterator, the shape its oracles take. *)
let iter_granules store r ~f =
  let g = ref (Clock_store.first_granule store r) in
  while !g >= 0 do
    f ~offset:(Clock_store.granule_offset !g) ~len:(Clock_store.granule_len !g);
    g := Clock_store.next_granule store r !g
  done

let expect_completed m =
  match Machine.run m with
  | Engine.Completed -> ()
  | Engine.Blocked k -> Alcotest.failf "blocked with %d processes" k
  | _ -> Alcotest.fail "simulation did not complete"

let races d = Report.count (Detector.report d)

(* Write [v] into process [pid]'s fresh private buffer. *)
let private_buf m ~pid v =
  let r = Machine.alloc_private m ~pid ~len:(Array.length v) () in
  Dsm_memory.Node_memory.write (Machine.node m pid) r v;
  r

(* ---------- Figure 5a: two concurrent puts race ---------- *)

let scenario_5a ?(observe = fun _ -> ()) config =
  let m, d = make ~config () in
  observe m;
  let a = Detector.alloc_shared d ~pid:2 ~name:"a" ~len:1 () in
  Machine.spawn m ~pid:0 (fun p ->
      Detector.put d p ~src:(private_buf m ~pid:0 [| 1 |]) ~dst:a);
  Machine.spawn m ~pid:1 (fun p ->
      Detector.put d p ~src:(private_buf m ~pid:1 [| 2 |]) ~dst:a);
  expect_completed m;
  d

let test_fig5a_concurrent_puts () =
  let d = scenario_5a Config.default in
  Alcotest.(check int) "race detected" 1 (races d)

(* ---------- Figure 5b: causally ordered accesses do not race ---------- *)

let test_fig5b_program_order () =
  let m, d = make () in
  let a = Detector.alloc_shared d ~pid:1 ~name:"a" ~len:1 () in
  Machine.spawn m ~pid:2 (fun p ->
      (* m1: get a; m3: put a — ordered by program order through the
         reader's clock. *)
      let buf = Machine.alloc_private m ~pid:2 ~len:1 () in
      Detector.get d p ~src:a ~dst:buf;
      Detector.put d p ~src:buf ~dst:a);
  expect_completed m;
  Alcotest.(check int) "no race" 0 (races d)

let test_fig5b_cross_process_via_barrier () =
  let m, d = make () in
  let a = Detector.alloc_shared d ~pid:2 ~name:"a" ~len:1 () in
  Machine.spawn m ~pid:0 (fun p ->
      Detector.put d p ~src:(private_buf m ~pid:0 [| 5 |]) ~dst:a;
      (* Model a synchronization point (the PGAS barrier calls this). *)
      Detector.barrier_sync d);
  Machine.spawn m ~pid:1 (fun p ->
      (* Run well after the barrier. *)
      Machine.compute p 100.0;
      let buf = Machine.alloc_private m ~pid:1 ~len:1 () in
      Detector.get d p ~src:a ~dst:buf);
  expect_completed m;
  Alcotest.(check int) "ordered through sync" 0 (races d)

(* ---------- Figure 5c: unrelated message does not order puts ---------- *)

let test_fig5c_intermediary_does_not_order () =
  let m, d = make () in
  let a = Detector.alloc_shared d ~pid:2 ~name:"a" ~len:1 () in
  let c = Detector.alloc_shared d ~pid:0 ~name:"c" ~len:1 () in
  Machine.spawn m ~pid:0 (fun p ->
      (* m1 *)
      Detector.put d p ~src:(private_buf m ~pid:0 [| 1 |]) ~dst:a);
  Machine.spawn m ~pid:1 (fun p ->
      Machine.compute p 10.0;
      (* m2: P1 writes c on P0 — it never READS anything P0 wrote, so no
         causal edge towards P1 is created... *)
      Detector.put d p ~src:(private_buf m ~pid:1 [| 9 |]) ~dst:c;
      (* ...m3: therefore this put is concurrent with m1: race. *)
      Detector.put d p ~src:(private_buf m ~pid:1 [| 2 |]) ~dst:a);
  expect_completed m;
  Alcotest.(check int) "race detected despite m2" 1 (races d)

(* ---------- Figure 4: concurrent reads ---------- *)

let scenario_fig4 config =
  let m, d = make ~config () in
  let a = Detector.alloc_shared d ~pid:0 ~name:"a" ~len:1 () in
  (* Initialize a before any remote access, from P0 itself. *)
  Machine.spawn m ~pid:0 (fun p ->
      Detector.put d p ~src:(private_buf m ~pid:0 [| 42 |]) ~dst:a;
      Detector.barrier_sync d);
  let reader pid =
    Machine.spawn m ~pid (fun p ->
        Machine.compute p 50.0;
        let buf = Machine.alloc_private m ~pid ~len:1 () in
        Detector.get d p ~src:a ~dst:buf)
  in
  reader 1;
  reader 2;
  expect_completed m;
  d

let test_fig4_concurrent_reads_no_race_with_w () =
  let d = scenario_fig4 Config.default in
  Alcotest.(check int) "write clock: no false positive" 0 (races d)

let test_fig4_false_positive_without_w () =
  let d = scenario_fig4 { Config.default with Config.use_write_clock = false } in
  Alcotest.(check bool) "single clock flags read/read" true (races d >= 1);
  (* And the signals are against the general-purpose clock. *)
  List.iter
    (fun r ->
      Alcotest.(check bool) "against V" true
        (r.Report.against = Report.General_clock))
    (Report.races (Detector.report d))

(* ---------- write-read race is found even with W ---------- *)

let test_write_read_race_detected () =
  let m, d = make () in
  let a = Detector.alloc_shared d ~pid:2 ~name:"a" ~len:1 () in
  Machine.spawn m ~pid:0 (fun p ->
      Detector.put d p ~src:(private_buf m ~pid:0 [| 1 |]) ~dst:a);
  Machine.spawn m ~pid:1 (fun p ->
      Machine.compute p 30.0;
      (* Later in wall time but causally unordered: still a race. *)
      let buf = Machine.alloc_private m ~pid:1 ~len:1 () in
      Detector.get d p ~src:a ~dst:buf);
  expect_completed m;
  Alcotest.(check int) "flagged" 1 (races d)

(* ---------- ablation: transports agree ---------- *)

let test_transports_agree_on_verdicts () =
  let run transport =
    let d =
      scenario_5a { Config.default with Config.transport } in
    races d
  in
  let inline = run Config.Inline in
  let piggy = run Config.Piggyback_txn in
  let explicit = run Config.Explicit_txn in
  Alcotest.(check int) "inline = piggyback" piggy inline;
  Alcotest.(check int) "piggyback = explicit" explicit piggy;
  Alcotest.(check int) "all detect" 1 piggy

let test_explicit_costs_meta_messages () =
  let meta config =
    let count = ref (fun () -> 0) in
    ignore
      (scenario_5a ~observe:(fun m -> count := Test_util.meta_messages m) config);
    !count ()
  in
  Alcotest.(check bool) "clock control messages flowed" true
    (meta { Config.default with Config.transport = Config.Explicit_txn } > 0);
  Alcotest.(check int) "piggyback needs none" 0 (meta Config.default)

let test_piggyback_ships_clock_words () =
  (* Under the default Piggyback_txn transport each put is one lock
     round trip plus the data message, and of those only Lock_granted
     and Put carry clocks. Every frame here is first-on-its-edge, so no
     delta base exists and the adaptive delta encoder
     ships self-contained sparse frames: the two grants carry node 2's
     still-zero clock (2 payload + tag + seq = 4 words each), the two
     puts a single-entry sender clock (4 payload + tag + seq = 6 words
     each) — 20 words in total. *)
  let d = scenario_5a Config.default in
  Alcotest.(check int) "clock words" 20 (Detector.clock_words_shipped d);
  let _, sparse, delta = Machine.clock_encodings (Detector.machine d) in
  Alcotest.(check int) "self-contained sparse frames" 4 sparse;
  Alcotest.(check int) "no deltas without a base" 0 delta

(* ---------- ablation: Lamport clocks detect nothing ---------- *)

let test_lamport_misses_races () =
  let d =
    scenario_5a { Config.default with Config.clock_mode = Config.Lamport_only }
  in
  Alcotest.(check int) "scalar clocks are blind" 0 (races d)

(* ---------- granularity ---------- *)

let test_unregistered_variable_rejected () =
  let m, d = make () in
  let a = Machine.alloc_public m ~pid:2 ~len:1 () in
  (* not registered *)
  Machine.spawn m ~pid:0 (fun p ->
      Detector.put d p ~src:(private_buf m ~pid:0 [| 1 |]) ~dst:a);
  match Machine.run m with
  | exception Engine.Process_failure (_, Failure msg) ->
      Alcotest.(check bool) "explains" true
        (Test_util.contains msg "unregistered shared data")
  | _ -> Alcotest.fail "expected a failure about unregistered data"

let test_word_granularity_needs_no_registration () =
  let m, d =
    make ~config:{ Config.default with Config.granularity = Config.Word } ()
  in
  let a = Machine.alloc_public m ~pid:2 ~len:4 () in
  Machine.spawn m ~pid:0 (fun p ->
      Detector.put d p ~src:(private_buf m ~pid:0 [| 1; 1; 1; 1 |]) ~dst:a);
  Machine.spawn m ~pid:1 (fun p ->
      Detector.put d p ~src:(private_buf m ~pid:1 [| 2; 2; 2; 2 |]) ~dst:a);
  expect_completed m;
  (* 4 overlapping word granules, each signalling once at the second put *)
  Alcotest.(check int) "four word-level signals" 4 (races d)

let test_block_granularity_false_sharing () =
  (* Two writes to DISJOINT words race at block granularity but not at
     word granularity: the classic false-sharing artifact. *)
  let run granularity =
    let m, d = make ~config:{ Config.default with Config.granularity } () in
    let a = Machine.alloc_public m ~pid:2 ~len:8 () in
    let sub offset =
      Addr.region ~pid:2 ~space:Addr.Public ~offset ~len:1
    in
    Machine.spawn m ~pid:0 (fun p ->
        Detector.put d p ~src:(private_buf m ~pid:0 [| 1 |]) ~dst:(sub 0));
    Machine.spawn m ~pid:1 (fun p ->
        Detector.put d p ~src:(private_buf m ~pid:1 [| 2 |]) ~dst:(sub 7));
    ignore a;
    expect_completed m;
    races d
  in
  Alcotest.(check int) "word: clean" 0 (run Config.Word);
  Alcotest.(check int) "block8: false sharing" 1 (run (Config.Block 8))

let test_register_overlap_rejected () =
  let _, d = make () in
  let _ = Detector.alloc_shared d ~pid:0 ~len:4 () in
  Alcotest.check_raises "overlap"
    (Invalid_argument "Clock_store.register: overlaps a registered variable")
    (fun () ->
      Detector.register d (Addr.region ~pid:0 ~space:Addr.Public ~offset:2 ~len:2))

let test_access_spanning_two_variables () =
  (* One put covering two registered variables checks both granules. *)
  let m, d = make () in
  let x = Detector.alloc_shared d ~pid:2 ~name:"x" ~len:2 () in
  let _y = Detector.alloc_shared d ~pid:2 ~name:"y" ~len:2 () in
  let span =
    Addr.region ~pid:2 ~space:Addr.Public ~offset:x.Addr.base.offset ~len:4
  in
  Machine.spawn m ~pid:0 (fun p ->
      Detector.put d p ~src:(private_buf m ~pid:0 [| 1; 1; 1; 1 |]) ~dst:span);
  Machine.spawn m ~pid:1 (fun p ->
      Detector.put d p ~src:(private_buf m ~pid:1 [| 2; 2; 2; 2 |]) ~dst:span);
  expect_completed m;
  (* the second put signals once per covered variable *)
  Alcotest.(check int) "one signal per variable" 2 (races d)

let test_partially_registered_access_rejected () =
  let m, d = make () in
  let x = Detector.alloc_shared d ~pid:2 ~name:"x" ~len:2 () in
  ignore (Machine.alloc_public m ~pid:2 ~len:2 ()) (* unregistered hole *);
  let span =
    Addr.region ~pid:2 ~space:Addr.Public ~offset:x.Addr.base.offset ~len:4
  in
  Machine.spawn m ~pid:0 (fun p ->
      Detector.put d p ~src:(private_buf m ~pid:0 [| 1; 1; 1; 1 |]) ~dst:span);
  match Machine.run m with
  | exception Engine.Process_failure (_, Failure msg) ->
      Alcotest.(check bool) "explains" true
        (Test_util.contains msg "unregistered")
  | _ -> Alcotest.fail "expected rejection of the partly covered access"

let test_report_csv () =
  let d = scenario_5a Config.default in
  let csv = Report.to_csv (Detector.report d) in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + 1 row" 2 (List.length lines);
  Alcotest.(check bool) "header columns" true
    (Test_util.contains (List.hd lines) "accessor_clock");
  Alcotest.(check bool) "row mentions the writer kind" true
    (Test_util.contains csv ",write,")

(* ISSUE 9 satellite: the CSV gained an event_id column joining each
   signal to its recorded trace event; without tracing the cell is
   empty but the column is always there. *)
let test_report_csv_event_id () =
  let d = scenario_5a Config.default in
  let csv = Report.to_csv (Detector.report d) in
  let lines = String.split_on_char '\n' (String.trim csv) in
  let header = List.hd lines in
  Alcotest.(check bool) "event_id column" true
    (Test_util.contains header ",event_id");
  (* field count, ignoring commas inside double-quoted clock snapshots *)
  let cols s =
    let n = ref 1 and quoted = ref false in
    String.iter
      (fun c ->
        if c = '"' then quoted := not !quoted
        else if c = ',' && not !quoted then incr n)
      s;
    !n
  in
  List.iter
    (fun line ->
      Alcotest.(check int) "row width matches header" (cols header)
        (cols line))
    lines

(* ---------- lock order ---------- *)

let deadlock_scenario () =
  let m, d = make ~n:2 ~config:Config.default () in
  let x = Detector.alloc_shared d ~pid:0 ~name:"x" ~len:1 () in
  let y = Detector.alloc_shared d ~pid:1 ~name:"y" ~len:1 () in
  (* P0: put x -> y and P1: put y -> x lock the same two regions; in the
     paper's literal src-then-dst order they would deadlock, so both take
     them in global order. *)
  Machine.spawn m ~pid:0 (fun p -> Detector.put d p ~src:x ~dst:y);
  Machine.spawn m ~pid:1 (fun p -> Detector.put d p ~src:y ~dst:x);
  Machine.run m

let test_ordered_locking_avoids_deadlock () =
  match deadlock_scenario () with
  | Engine.Completed -> ()
  | Engine.Blocked k -> Alcotest.failf "deadlocked with %d" k
  | _ -> Alcotest.fail "unexpected outcome"

(* ---------- counters ---------- *)

let test_counters () =
  let d = scenario_5a Config.default in
  Alcotest.(check int) "two checked ops" 2 (Detector.checked_ops d);
  (* one variable entry (v,w of dim 3) + 3 proc clocks of dim 3 *)
  Alcotest.(check int) "storage words" ((2 * 3) + (3 * 3))
    (Detector.storage_words d)

let test_proc_clock_snapshot () =
  let m, d = make () in
  let a = Detector.alloc_shared d ~pid:1 ~len:1 () in
  Machine.spawn m ~pid:0 (fun p ->
      Detector.put d p ~src:(private_buf m ~pid:0 [| 1 |]) ~dst:a);
  expect_completed m;
  let c = Detector.proc_clock d 0 in
  Alcotest.(check int) "ticked once" 1 (Dsm_clocks.Vector_clock.entry c 0);
  Alcotest.(check int) "others zero" 0 (Dsm_clocks.Vector_clock.entry c 1)

let test_contended_puts_race_once () =
  (* Two puts to one datum queue on its owner's NIC lock: the lock
     orders them, but nothing synchronizes them, so they race once. *)
  let sim = Engine.create () in
  let m = Machine.create sim ~n:3 ~latency:(Dsm_net.Latency.Constant 1.0) () in
  let d = Detector.create m () in
  let a = Detector.alloc_shared d ~pid:2 ~name:"a" ~len:1 () in
  Machine.spawn m ~pid:0 (fun p ->
      Detector.put d p ~src:(private_buf m ~pid:0 [| 1 |]) ~dst:a);
  Machine.spawn m ~pid:1 (fun p ->
      Detector.put d p ~src:(private_buf m ~pid:1 [| 2 |]) ~dst:a);
  expect_completed m;
  Alcotest.(check int) "one race" 1 (races d)

(* ---------- report grouping ---------- *)

let test_report_grouping () =
  let m, d = make ~n:4 () in
  let a = Detector.alloc_shared d ~pid:3 ~name:"a" ~len:1 () in
  let b = Detector.alloc_shared d ~pid:3 ~name:"b" ~len:1 () in
  for pid = 0 to 2 do
    Machine.spawn m ~pid (fun p ->
        Detector.put d p ~src:(private_buf m ~pid [| pid |]) ~dst:a;
        Detector.put d p ~src:(private_buf m ~pid [| pid |]) ~dst:b)
  done;
  expect_completed m;
  let groups = Report.grouped (Detector.report d) in
  Alcotest.(check int) "two raced data" 2 (List.length groups);
  List.iter
    (fun g ->
      Alcotest.(check bool) "several signals collapsed" true
        (g.Report.g_count >= 1);
      Alcotest.(check bool) "accessors sorted" true
        (g.Report.g_pids = List.sort compare g.Report.g_pids))
    groups;
  (* groups ordered by first signal time *)
  match groups with
  | [ g1; g2 ] ->
      Alcotest.(check bool) "time ordered" true
        (g1.Report.g_first_time <= g2.Report.g_first_time)
  | _ -> Alcotest.fail "expected two groups"

(* ---------- checked atomics (extension) ---------- *)

let test_atomics_do_not_race_each_other () =
  let m, d = make ~n:4 () in
  let counter = Detector.alloc_shared d ~pid:0 ~name:"ctr" ~len:1 () in
  for pid = 1 to 3 do
    Machine.spawn m ~pid (fun p ->
        for _ = 1 to 5 do
          ignore (Detector.fetch_add d p ~target:counter.Addr.base ~delta:1)
        done)
  done;
  expect_completed m;
  Alcotest.(check int) "atomics are synchronized" 0 (races d);
  Alcotest.(check (array int)) "no lost updates" [| 15 |]
    (Node_memory.read (Machine.node m 0) counter)

let test_atomic_races_with_plain_write () =
  let m, d = make () in
  let cell = Detector.alloc_shared d ~pid:2 ~name:"cell" ~len:1 () in
  Machine.spawn m ~pid:0 (fun p ->
      Detector.put d p ~src:(private_buf m ~pid:0 [| 7 |]) ~dst:cell);
  Machine.spawn m ~pid:1 (fun p ->
      Machine.compute p 30.0;
      ignore (Detector.fetch_add d p ~target:cell.Addr.base ~delta:1));
  expect_completed m;
  Alcotest.(check int) "atomic vs plain write" 1 (races d)

let test_plain_read_races_with_atomic () =
  let m, d = make () in
  let cell = Detector.alloc_shared d ~pid:2 ~name:"cell" ~len:1 () in
  Machine.spawn m ~pid:0 (fun p ->
      ignore (Detector.fetch_add d p ~target:cell.Addr.base ~delta:1));
  Machine.spawn m ~pid:1 (fun p ->
      Machine.compute p 30.0;
      let buf = Machine.alloc_private m ~pid:1 ~len:1 () in
      Detector.get d p ~src:cell ~dst:buf);
  expect_completed m;
  Alcotest.(check int) "plain read vs atomic" 1 (races d)

let test_atomic_synchronizes_causality () =
  (* P0 writes data, then atomically sets a flag. P1 atomically reads the
     flag (fetch_add 0), then reads the data: the atomic chain orders the
     data accesses, so only no races at all are expected once the flag
     access is itself atomic on both sides. *)
  let m, d = make () in
  let data = Detector.alloc_shared d ~pid:2 ~name:"data" ~len:1 () in
  let flag = Detector.alloc_shared d ~pid:2 ~name:"flag" ~len:1 () in
  Machine.spawn m ~pid:0 (fun p ->
      Detector.put d p ~src:(private_buf m ~pid:0 [| 99 |]) ~dst:data;
      ignore (Detector.fetch_add d p ~target:flag.Addr.base ~delta:1));
  Machine.spawn m ~pid:1 (fun p ->
      Machine.compute p 50.0;
      (* acquire: atomically observe the flag *)
      ignore (Detector.fetch_add d p ~target:flag.Addr.base ~delta:0);
      let buf = Machine.alloc_private m ~pid:1 ~len:1 () in
      Detector.get d p ~src:data ~dst:buf);
  expect_completed m;
  Alcotest.(check int) "atomic flag chain orders the data read" 0 (races d)

(* Regression: lock clocks must be keyed by the lock region's full
   identity, space included. Keyed by bare (pid, offset, len), P0's
   private region aliases the public mutex at the same coordinates, so a
   lock/unlock of the private region would publish P0's clock into the
   shared mutex's clock and falsely order P1's write after P0's —
   hiding a real race. *)
let test_lock_clock_space_collision () =
  let config = { Config.default with Config.lock_aware_clocks = true } in
  let m, d = make ~config () in
  let a = Detector.alloc_shared d ~pid:2 ~name:"a" ~len:1 () in
  (* First allocation on node 0 in each space: identical coordinates. *)
  let priv = Machine.alloc_private m ~pid:0 ~len:1 () in
  let mutex = Machine.alloc_public m ~pid:0 ~name:"mutex" ~len:1 () in
  Alcotest.(check int) "aliasing coordinates" priv.Addr.base.offset
    mutex.Addr.base.offset;
  Machine.spawn m ~pid:0 (fun p ->
      Detector.put d p ~src:(private_buf m ~pid:0 [| 1 |]) ~dst:a;
      (* Locking one's own private region is a mutual-exclusion no-op;
         it must also be invisible to the public mutex's clock. *)
      let h = Detector.lock d p priv in
      Detector.unlock d p h);
  Machine.spawn m ~pid:1 (fun p ->
      Machine.compute p 50.0;
      let h = Detector.lock d p mutex in
      Detector.put d p ~src:(private_buf m ~pid:1 [| 2 |]) ~dst:a;
      Detector.unlock d p h);
  expect_completed m;
  Alcotest.(check int) "private lock does not order the puts" 1 (races d)

(* ---------- detector vs. offline ground truth ---------- *)

(* Random lock-free workloads at word granularity: the set of granules the
   online detector flags must equal the set of words the offline
   happens-before analysis proves racy (see the derivation in DESIGN.md
   §4 notes; this is the E8/E9 soundness core). *)
let ground_truth_equivalence ~seed =
  let n = 4 in
  let config =
    {
      Config.default with
      Config.granularity = Config.Word;
      Config.record_trace = true;
    }
  in
  let m, d = make ~n ~config ~seed () in
  (* Three shared arrays of 4 words, on nodes 1, 2, 3. *)
  let vars =
    [| Machine.alloc_public m ~pid:1 ~len:4 ();
       Machine.alloc_public m ~pid:2 ~len:4 ();
       Machine.alloc_public m ~pid:3 ~len:4 () |]
  in
  let g = Dsm_sim.Prng.create ~seed:(seed * 7 + 1) in
  for pid = 0 to n - 1 do
    let ops =
      List.init 12 (fun _ ->
          let v = vars.(Dsm_sim.Prng.int g 3) in
          let offset = v.Addr.base.offset + Dsm_sim.Prng.int g 3 in
          let len = 1 + Dsm_sim.Prng.int g 2 in
          let sub =
            Addr.region ~pid:v.Addr.base.pid ~space:Addr.Public ~offset ~len
          in
          let op =
            match Dsm_sim.Prng.int g 5 with
            | 0 -> `Atomic
            | 1 | 2 -> `Put
            | _ -> `Get
          in
          let delay = Dsm_sim.Prng.float g 20.0 in
          (op, sub, len, delay))
    in
    Machine.spawn m ~pid (fun p ->
        List.iter
          (fun (op, (sub : Addr.region), len, delay) ->
            Machine.compute p delay;
            let buf = Machine.alloc_private m ~pid ~len () in
            match op with
            | `Put -> Detector.put d p ~src:buf ~dst:sub
            | `Get -> Detector.get d p ~src:sub ~dst:buf
            | `Atomic ->
                ignore (Detector.fetch_add d p ~target:sub.base ~delta:1))
          ops)
  done;
  expect_completed m;
  let trace =
    match Detector.trace d with Some t -> t | None -> Alcotest.fail "no trace"
  in
  (* Granules flagged online. *)
  let flagged = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let g = r.Report.granule in
      Hashtbl.replace flagged (g.Addr.base.pid, g.Addr.base.offset) ())
    (Report.races (Detector.report d));
  (* Words racy offline. *)
  let truth = Hashtbl.create 16 in
  List.iter
    (fun { Dsm_trace.Trace.first; second } ->
      let overlap_words (a : Dsm_trace.Event.access)
          (b : Dsm_trace.Event.access) =
        let lo = max a.target.base.offset b.target.base.offset in
        let hi =
          min (Addr.last_offset a.target) (Addr.last_offset b.target)
        in
        List.init (hi - lo + 1) (fun i -> (a.target.base.pid, lo + i))
      in
      List.iter
        (fun k -> Hashtbl.replace truth k ())
        (overlap_words first second))
    (Dsm_trace.Trace.races trace);
  let to_sorted_list h =
    Hashtbl.fold (fun k () acc -> k :: acc) h [] |> List.sort compare
  in
  Alcotest.(check (list (pair int int)))
    (Printf.sprintf "flagged = ground truth (seed %d)" seed)
    (to_sorted_list truth) (to_sorted_list flagged)

let test_ground_truth_seeds () =
  List.iter (fun seed -> ground_truth_equivalence ~seed) [ 1; 2; 3; 4; 5; 6 ]

(* Seeds on which the offline recorder once flagged a read/RMW pair the
   detector had ordered through the NIC's RMW serialization (the S
   clock): 65, 192, 308, 372 and 77606 through an RMW -> RMW
   release/acquire chain, 597 through a plain read acquiring an RMW's
   issue-time release. See DESIGN.md §4. *)
let test_ground_truth_rmw_seeds () =
  List.iter
    (fun seed -> ground_truth_equivalence ~seed)
    [ 65; 192; 308; 372; 597; 77606 ]

(* Seed 65 reduced: P0 reads x, then fetch-adds x; later P1 fetch-adds
   x. The target NIC serializes the two RMWs, so P1's RMW acquires what
   P0's released — P0's read included. Neither the detector nor the
   offline ground truth may call the read and P1's RMW a race. *)
let test_ground_truth_rmw_chain () =
  let config =
    {
      Config.default with
      Config.granularity = Config.Word;
      record_trace = true;
    }
  in
  let m, d = make ~n:3 ~config () in
  let x = Machine.alloc_public m ~pid:2 ~len:1 () in
  Machine.spawn m ~pid:0 (fun p ->
      let buf = Machine.alloc_private m ~pid:0 ~len:1 () in
      Detector.get d p ~src:x ~dst:buf;
      ignore (Detector.fetch_add d p ~target:x.Addr.base ~delta:1));
  Machine.spawn m ~pid:1 (fun p ->
      Machine.compute p 50.0;
      ignore (Detector.fetch_add d p ~target:x.Addr.base ~delta:1));
  expect_completed m;
  let trace =
    match Detector.trace d with Some t -> t | None -> Alcotest.fail "no trace"
  in
  Alcotest.(check int) "detector: ordered" 0 (races d);
  Alcotest.(check int) "ground truth: ordered" 0
    (List.length (Dsm_trace.Trace.races trace))

(* ---------- verdicts against the offline ground truth ----------

   The racy benchmark's oracle, over a seed range: on the racy
   [Random_access] shape (32 variables of 4 words, half reads, a tenth
   atomics) and the stencil shape, at n = 3..8 under constant and
   InfiniBand-like latency, the words the detector flags at word
   granularity must be the words the recorded trace's happens-before
   races cover. At the default variable granularity a race on one word
   flags its whole variable, and reading part of a variable absorbs the
   writes to the rest of it, which can order a later access the words
   alone leave racing; there every flagged variable must hold a racy
   word. *)

let flagged_vs_truth ~granularity ~shape ~n ~latency ~seed =
  let sim = Engine.create ~seed () in
  let m = Machine.create sim ~n ~latency () in
  let d =
    Detector.create m
      ~config:{ Config.default with Config.granularity; record_trace = true }
      ()
  in
  let env = Dsm_pgas.Env.checked d in
  (match shape with
  | `Racy ->
      Dsm_workload.Random_access.setup env
        {
          Dsm_workload.Random_access.default with
          ops_per_proc = 40;
          vars = 32;
          var_len = 4;
          read_fraction = 0.5;
          atomic_fraction = 0.1;
          seed;
        }
  | `Stencil ->
      let collectives = Dsm_pgas.Collectives.create env in
      ignore
        (Dsm_workload.Stencil.setup env ~collectives
           { Dsm_workload.Stencil.cells_per_node = 4; iterations = 3; seed }));
  expect_completed m;
  let trace =
    match Detector.trace d with Some t -> t | None -> Alcotest.fail "no trace"
  in
  ( Dsm_baselines.Scoring.ground_truth_words trace,
    Dsm_baselines.Scoring.detector_words (Detector.report d) )

let test_verdicts_match_ground_truth () =
  List.iter
    (fun (shape, shape_name) ->
      List.iter
        (fun (latency, latency_name) ->
          for n = 3 to 8 do
            for seed = 1 to 5 do
              let name =
                Printf.sprintf "%s n=%d %s seed %d" shape_name n latency_name
                  seed
              in
              let truth, flagged =
                flagged_vs_truth ~granularity:Config.Word ~shape ~n ~latency
                  ~seed
              in
              Alcotest.(check (list (pair int int))) name truth flagged;
              (* Random_access variables are [var_len] words from an
                 aligned base; stencil cells hold no race *)
              let var (node, off) = (node, off / 4) in
              let truth, flagged =
                flagged_vs_truth ~granularity:Config.Variable ~shape ~n
                  ~latency ~seed
              in
              let truth_vars = List.map var truth in
              Alcotest.(check bool)
                (name ^ ", variables: each flagged one racy") true
                (List.for_all (fun w -> List.mem (var w) truth_vars) flagged)
            done
          done)
        [
          (Dsm_net.Latency.Constant 1.0, "constant");
          (Dsm_net.Latency.infiniband_like, "infiniband");
        ])
    [ (`Racy, "racy"); (`Stencil, "stencil") ]

(* ---------- Clock_store packed keys ---------- *)

(* The store keys granules by (offset, len) packed into one immediate
   int. Packing must be injective over the documented range — a
   collision would silently share one clock pair between two unrelated
   granules — and anything outside the range must be rejected, not
   wrapped around into a valid-looking key. *)

let cs_max_len = (1 lsl 21) - 1
let cs_max_off = 1 lsl 40

let gen_granule =
  QCheck.Gen.(
    let off =
      oneof
        [
          int_range 0 4096;
          int_range 0 cs_max_off;
          (* overflow-adjacent: right at the top of the packable range *)
          map (fun k -> cs_max_off - k) (int_range 0 64);
        ]
    in
    let len =
      oneof
        [
          int_range 0 64;
          int_range 0 cs_max_len;
          map (fun k -> cs_max_len - k) (int_range 0 64);
        ]
    in
    pair off len)

let arb_granule_pair =
  QCheck.make
    ~print:(fun ((o1, l1), (o2, l2)) ->
      Printf.sprintf "(%d,%d) / (%d,%d)" o1 l1 o2 l2)
    QCheck.Gen.(pair gen_granule gen_granule)

let prop_packed_key_injective =
  QCheck.Test.make ~name:"packed keys: distinct granule = distinct entry"
    ~count:1000 arb_granule_pair (fun ((o1, l1), (o2, l2)) ->
      let store =
        Clock_store.create ~node:0 ~clock_dim:3 ~granularity:Config.Word
      in
      let e1 = Clock_store.entry_at store ~offset:o1 ~len:l1 in
      let e2 = Clock_store.entry_at store ~offset:o2 ~len:l2 in
      (e1 == e2) = (o1 = o2 && l1 = l2))

(* Each granule's history lives in its own clock-store entry: the same
   (offset, len) on two nodes keeps two histories, the detector's walk
   visits granules in (node, offset, len) order, and at depth 0 nothing
   is kept. P0 writes both words of a variable on node 1 and later the
   second word of one at the same offset on node 0, which P1 wrote
   concurrently: one race, whose prior endpoint is P1's write. *)
let provenance_run depth =
  let config =
    {
      Config.default with
      Config.granularity = Config.Word;
      provenance_depth = depth;
    }
  in
  let m, d = make ~n:2 ~config () in
  let a0 = Machine.alloc_public m ~pid:0 ~len:2 () in
  let a1 = Machine.alloc_public m ~pid:1 ~len:2 () in
  Alcotest.(check int) "same offset on both nodes" a0.base.offset
    a1.base.offset;
  Machine.spawn m ~pid:0 (fun p ->
      Detector.put d p ~src:(private_buf m ~pid:0 [| 1; 2 |]) ~dst:a1;
      Machine.compute p 50.0;
      Detector.put d p
        ~src:(private_buf m ~pid:0 [| 3 |])
        ~dst:
          (Addr.region ~pid:0 ~space:Addr.Public
             ~offset:(a0.base.offset + 1) ~len:1));
  Machine.spawn m ~pid:1 (fun p ->
      Detector.put d p ~src:(private_buf m ~pid:1 [| 4; 5 |]) ~dst:a0);
  expect_completed m;
  let walk = ref [] in
  Detector.iter_provenance d ~f:(fun ~node ~offset ~len entries ->
      walk :=
        ( (node, offset - a0.base.offset, len),
          List.map (fun (e : Provenance.entry) -> e.pid) entries )
        :: !walk);
  ( List.map
      (fun (r : Report.race) ->
        Option.map (fun (e : Provenance.entry) -> e.pid) r.prior)
      (Report.races (Detector.report d)),
    List.rev !walk )

let test_provenance_keys_distinct () =
  let priors, walk = provenance_run 4 in
  Alcotest.(check (list (option int))) "the race names P1's write"
    [ Some 1 ] priors;
  Alcotest.(check (list (pair (triple int int int) (list int))))
    "histories per node, walked in (node, offset, len) order"
    [
      ((0, 0, 1), [ 1 ]);
      ((0, 1, 1), [ 0; 1 ]);
      ((1, 0, 1), [ 0 ]);
      ((1, 1, 1), [ 0 ]);
    ]
    walk;
  let priors, walk = provenance_run 0 in
  Alcotest.(check (list (option int))) "depth 0: the race names no prior"
    [ None ] priors;
  Alcotest.(check int) "depth 0: the walk visits nothing" 0 (List.length walk)

let arb_bad_granule =
  QCheck.make
    ~print:(fun (o, l) -> Printf.sprintf "(%d,%d)" o l)
    QCheck.Gen.(
      oneof
        [
          pair (int_range (-4096) (-1)) (int_range 0 64);
          pair (int_range 0 4096) (int_range (-64) (-1));
          pair (int_range 0 4096)
            (map (fun k -> cs_max_len + 1 + k) (int_range 0 64));
          pair
            (map (fun k -> cs_max_off + 1 + k) (int_range 0 64))
            (int_range 0 64);
        ])

let prop_packed_key_rejects_out_of_range =
  QCheck.Test.make ~name:"packed keys: out-of-range granules rejected"
    ~count:500 arb_bad_granule (fun (offset, len) ->
      let store =
        Clock_store.create ~node:0 ~clock_dim:3 ~granularity:Config.Word
      in
      match Clock_store.entry_at store ~offset ~len with
      | _ -> false
      | exception Invalid_argument _ -> true)

(* ---------- Clock store: one int-keyed table per node ---------- *)

(* Granule identity, lazy zero creation, iteration order and the
   storage/epoch census of one node's store. *)
let test_store_single_table () =
  let s =
    Clock_store.create ~node:0 ~clock_dim:4 ~granularity:Config.Word
  in
  (* offsets straddling several 64-word boundaries *)
  let offsets = [ 0; 1; 63; 64; 65; 130; 1024; 4095 ] in
  let fresh = Clock_store.entry_at s ~offset:0 ~len:1 in
  Alcotest.(check bool) "lazily created entry is zero" true
    (Dsm_clocks.Vector_clock.is_zero fresh.Clock_store.v
    && Dsm_clocks.Vector_clock.is_zero fresh.Clock_store.w
    && Dsm_clocks.Vector_clock.is_zero fresh.Clock_store.s);
  List.iter
    (fun off ->
      let e = Clock_store.entry_at s ~offset:off ~len:1 in
      Dsm_clocks.Vector_clock.tick e.Clock_store.v ~me:(off mod 4))
    offsets;
  (* one entry per touched granule: V + W per entry; S is charged only
     once an atomic touched it *)
  Alcotest.(check int) "storage words"
    (List.length offsets * 2 * 4)
    (Clock_store.storage_words s);
  (* one tick in V leaves every clock an epoch *)
  Alcotest.(check int) "epoch census"
    (List.length offsets * 3)
    (Clock_store.epoch_clocks s);
  List.iter
    (fun off ->
      let e = Clock_store.entry_at s ~offset:off ~len:1 in
      Alcotest.(check int)
        (Printf.sprintf "clock at %d kept" off)
        1
        (Dsm_clocks.Vector_clock.entry e.Clock_store.v (off mod 4)))
    offsets;
  let visited = ref [] in
  iter_granules s
    (Addr.region ~pid:0 ~space:Addr.Public ~offset:60 ~len:10)
    ~f:(fun ~offset ~len:_ -> visited := offset :: !visited);
  Alcotest.(check (list int)) "granules in address order across 64"
    (List.init 10 (fun i -> 60 + i))
    (List.rev !visited);
  (* the hit path returns the same physical entry *)
  let a = Clock_store.entry_at s ~offset:64 ~len:1 in
  let b = Clock_store.entry_at s ~offset:64 ~len:1 in
  Alcotest.(check bool) "stable physical entry" true (a == b)

(* ---------- Clock store: registered variables vs the list oracle ---------- *)

(* A random script against one node's variables: a disjoint layout (with
   adjacent variables and gaps) registered in random order, interleaved
   with accesses that fall inside a variable, span several, straddle a
   gap or run past the last one, and with extra registrations that may
   overlap. Some accesses register a variable from inside their first
   visit, as another process may while an explicit-transport walk waits
   on a control round trip. A few regions are private or on another
   node. *)
type var_op =
  | V_register of Addr.region
  | V_access of Addr.region
  | V_access_registering of Addr.region * Addr.region

let show_var_op = function
  | V_register r -> "register " ^ Addr.to_string r
  | V_access r -> "access " ^ Addr.to_string r
  | V_access_registering (r, r') ->
      Printf.sprintf "access %s registering %s" (Addr.to_string r)
        (Addr.to_string r')

let gen_var_script =
  QCheck.Gen.(
    let* layout =
      list_size (int_range 0 12)
        (pair (frequencyl [ (3, 0); (1, 1); (1, 3) ]) (int_range 1 5))
    in
    let vars, stop =
      List.fold_left
        (fun (acc, at) (gap, len) -> ((at + gap, len) :: acc, at + gap + len))
        ([], 0) layout
    in
    let region =
      let* pid = frequencyl [ (12, 0); (1, 1) ] in
      let* space = frequencyl [ (12, Addr.Public); (1, Addr.Private) ] in
      let* offset = int_range 0 (stop + 4) in
      let+ len = int_range 1 8 in
      Addr.region ~pid ~space ~offset ~len
    in
    let extra =
      frequency
        [
          (6, map (fun r -> V_access r) region);
          (1, map (fun r -> V_register r) region);
          (1, map2 (fun r r' -> V_access_registering (r, r')) region region);
        ]
    in
    let* order = shuffle_l vars in
    let* steps =
      flatten_l
        (List.map
           (fun (offset, len) ->
             let+ after = list_size (int_range 0 3) extra in
             V_register
               (Addr.region ~pid:0 ~space:Addr.Public ~offset ~len)
             :: after)
           order)
    in
    let+ tail = list_size (int_range 1 12) extra in
    List.concat steps @ tail)

let arb_var_script =
  QCheck.make
    ~print:(fun ops -> String.concat "\n" (List.map show_var_op ops))
    gen_var_script

(* What one step did: the registration's outcome, or the visited
   granules, or the exception the walk raised (and whether anything was
   visited before it). *)
let var_outcomes ~register ~iter ops =
  let registering r =
    match register r with
    | () -> "ok"
    | exception Invalid_argument m -> "invalid: " ^ m
  in
  List.map
    (fun op ->
      match op with
      | V_register r -> registering r
      | V_access r | V_access_registering (r, _) -> (
          let visited = ref [] and inner = ref "" in
          let f ~offset ~len =
            (match op with
            | V_access_registering (_, r') when !visited = [] ->
                inner := registering r'
            | _ -> ());
            visited := (offset, len) :: !visited
          in
          match iter r ~f with
          | () ->
              Printf.sprintf "visit %s %s"
                (String.concat ""
                   (List.rev_map
                      (fun (o, l) -> Printf.sprintf "(%d,%d)" o l)
                      !visited))
                !inner
          | exception Failure m ->
              Printf.sprintf "failure: %s after %d visits" m
                (List.length !visited)
          | exception Invalid_argument m -> "invalid: " ^ m))
    ops

let prop_variables_match_list_oracle =
  QCheck.Test.make ~name:"registered variables match the list oracle"
    ~count:1000 arb_var_script (fun ops ->
      let store =
        Clock_store.create ~node:0 ~clock_dim:2 ~granularity:Config.Variable
      in
      let oracle = Variable_ref.create ~node:0 in
      let live =
        var_outcomes ~register:(Clock_store.register store)
          ~iter:(iter_granules store)
          ops
      and expected =
        var_outcomes ~register:(Variable_ref.register oracle)
          ~iter:(Variable_ref.iter_granules oracle)
          ops
      in
      if live = expected then true
      else
        QCheck.Test.fail_reportf "live:\n%s\noracle:\n%s"
          (String.concat "\n" live)
          (String.concat "\n" expected))

(* ---------- Provenance: per-granule history vs the table oracle ---------- *)

(* A random script of accesses noted into granule histories on three
   nodes, interleaved with prior-endpoint queries. A few granules share
   an (offset, len) across nodes, one sits past 2^21, and the scripts
   run longer than the depth so rings wrap. *)
type prov_op =
  | P_note of {
      node : int;
      offset : int;
      len : int;
      pid : int;
      kind : Dsm_trace.Event.kind;
      clock : int array;
    }
  | P_query of {
      node : int;
      offset : int;
      len : int;
      pid : int;
      write : bool;
      clock : int array;
    }

let show_clock c = String.concat "," (Array.to_list (Array.map string_of_int c))

let show_prov_op = function
  | P_note { node; offset; len; pid; kind; clock } ->
      Printf.sprintf "note %d:(%d,%d) P%d %s [%s]" node offset len pid
        (Dsm_trace.Event.kind_name kind) (show_clock clock)
  | P_query { node; offset; len; pid; write; clock } ->
      Printf.sprintf "query %d:(%d,%d) P%d write=%b [%s]" node offset len pid
        write (show_clock clock)

let arb_prov_script =
  let open QCheck.Gen in
  let granule =
    triple (int_range 0 2)
      (oneofl
         [ (0, 1); (1, 1); (0, 2); (4, 4); (1 lsl 21, 1); (cs_max_off, 3) ])
      (int_range 0 2)
  in
  let clock = array_size (return 3) (int_range 0 2) in
  let op =
    granule >>= fun (node, (offset, len), pid) ->
    clock >>= fun clock ->
    frequency
      [
        ( 3,
          map
            (fun kind -> P_note { node; offset; len; pid; kind; clock })
            (oneofl Dsm_trace.Event.[ Read; Write; Atomic_update ]) );
        ( 1,
          map
            (fun write -> P_query { node; offset; len; pid; write; clock })
            bool );
      ]
  in
  QCheck.make
    ~print:(fun (depth, ops) ->
      Printf.sprintf "depth %d\n%s" depth
        (String.concat "\n" (List.map show_prov_op ops)))
    (pair (oneofl [ 0; 1; 4 ]) (list_size (int_range 0 60) op))

(* What a history store answers for a script: the granule's history
   after every note, the prior endpoint of every query (entries named by
   their ordinal), then the granule walk. *)
let prov_outcomes ~note ~history ~find_prior ~iter ops =
  let ids es =
    String.concat " "
      (List.map (fun (e : Provenance.entry) -> string_of_int e.op) es)
  in
  let answers =
    List.mapi
      (fun i -> function
        | P_note { node; offset; len; pid; kind; clock } ->
            note ~node ~offset ~len
              {
                Provenance.pid;
                kind;
                time = float_of_int i;
                op = i;
                event_id = -1;
                clock = Dsm_clocks.Vector_clock.of_array clock;
              };
            "history " ^ ids (history ~node ~offset ~len)
        | P_query { node; offset; len; pid; write; clock } -> (
            match
              find_prior ~node ~offset ~len ~pid ~write
                ~clock:(Dsm_clocks.Vector_clock.of_array clock)
            with
            | Some (e : Provenance.entry) -> Printf.sprintf "prior %d" e.op
            | None -> "no prior"))
      ops
  in
  let walk = ref [] in
  iter ~f:(fun ~node ~offset ~len es ->
      walk :=
        Printf.sprintf "walk %d:(%d,%d) %s" node offset len (ids es) :: !walk);
  answers @ List.rev !walk

let prop_history_matches_table_oracle =
  QCheck.Test.make ~name:"granule histories match the table oracle" ~count:1000
    arb_prov_script (fun (depth, ops) ->
      let stores =
        Array.init 3 (fun node ->
            Clock_store.create ~node ~clock_dim:3 ~granularity:Config.Word)
      in
      let entry ~node ~offset ~len =
        Clock_store.entry_at stores.(node) ~offset ~len
      in
      let oracle = Provenance_ref.create ~depth in
      let live =
        prov_outcomes
          ~note:(fun ~node ~offset ~len x ->
            let e = entry ~node ~offset ~len in
            e.history <-
              Provenance.note ~depth e.history ~pid:x.Provenance.pid
                ~kind:x.kind ~time:x.time ~op:x.op ~event_id:x.event_id
                x.clock)
          ~history:(fun ~node ~offset ~len ->
            Provenance.history (entry ~node ~offset ~len).history)
          ~find_prior:(fun ~node ~offset ~len ->
            Provenance.find_prior (entry ~node ~offset ~len).history)
          ~iter:(fun ~f ->
            Array.iteri
              (fun node store -> Clock_store.iter_history store ~f:(f ~node))
              stores)
          ops
      and expected =
        prov_outcomes ~note:(Provenance_ref.note oracle)
          ~history:(Provenance_ref.history oracle)
          ~find_prior:(Provenance_ref.find_prior oracle)
          ~iter:(Provenance_ref.iter_granules oracle) ops
      in
      if live = expected then true
      else
        QCheck.Test.fail_reportf "live:\n%s\noracle:\n%s"
          (String.concat "\n" live)
          (String.concat "\n" expected))

(* ---------- provenance ring: copies and allocation ---------- *)

let read_entry (e : Provenance.entry) =
  (e.pid, e.kind, e.time, e.op, e.event_id, Dsm_clocks.Vector_clock.to_array e.clock)

(* What [history] and [find_prior] hand out is a copy: notes that wrap
   the ring twice leave it as it was taken. A note reads the accessor's
   clock and keeps none of it: ticking that clock afterwards changes no
   retained entry. *)
let test_history_copies_survive_wraps () =
  let depth = 3 in
  let clock = Dsm_clocks.Vector_clock.create ~n:3 in
  let ring = ref Provenance.empty in
  let noted = Hashtbl.create 16 in
  let note i =
    Dsm_clocks.Vector_clock.tick clock ~me:(i mod 3);
    Hashtbl.replace noted i (Dsm_clocks.Vector_clock.to_array clock);
    ring :=
      Provenance.note ~depth !ring ~pid:(i mod 3) ~kind:Dsm_trace.Event.Write
        ~time:(float_of_int i) ~op:i ~event_id:(-1) clock
  in
  let clocks_as_noted () =
    List.for_all
      (fun (e : Provenance.entry) ->
        Dsm_clocks.Vector_clock.to_array e.clock = Hashtbl.find noted e.op)
      (Provenance.history !ring)
  in
  for i = 0 to depth - 1 do
    note i
  done;
  let history = Provenance.history !ring in
  let prior =
    Provenance.find_prior !ring ~pid:0 ~write:true
      ~clock:(Dsm_clocks.Vector_clock.of_array [| 9; 0; 0 |])
  in
  let history_then = List.map read_entry history in
  let prior_then = Option.map read_entry prior in
  Alcotest.(check (list int)) "history taken" [ 2; 1; 0 ]
    (List.map (fun (e : Provenance.entry) -> e.op) history);
  Alcotest.(check (option int)) "prior taken" (Some 2)
    (Option.map (fun (e : Provenance.entry) -> e.op) prior);
  Alcotest.(check bool) "clocks as noted" true (clocks_as_noted ());
  for i = depth to (3 * depth) - 1 do
    note i;
    Alcotest.(check bool) "clocks as noted after a wrap" true
      (clocks_as_noted ())
  done;
  Alcotest.(check bool) "history unchanged" true
    (List.map read_entry history = history_then);
  Alcotest.(check bool) "prior unchanged" true
    (Option.map read_entry prior = prior_then);
  Alcotest.(check (list int)) "ring moved on" [ 8; 7; 6 ]
    (List.map (fun (e : Provenance.entry) -> e.op) (Provenance.history !ring))

(* Once the ring is full a note overwrites the oldest slot in place. *)
let test_note_full_ring_allocates_nothing () =
  let depth = 4 in
  let clock = Dsm_clocks.Vector_clock.of_array (Array.init 64 (fun i -> i + 1)) in
  let ring = ref Provenance.empty in
  let note () =
    ring :=
      Provenance.note ~depth !ring ~pid:3 ~kind:Dsm_trace.Event.Read ~time:2.5
        ~op:7 ~event_id:(-1) clock
  in
  for _ = 1 to depth do
    note ()
  done;
  note ();
  let before = Gc.minor_words () in
  for _ = 1 to 1_000 do
    note ()
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "ring full" depth (List.length (Provenance.history !ring));
  Alcotest.(check (float 0.)) "note on a full ring" 0. words

(* ---------- allocation budget ---------- *)

(* The minor words a fixed checked stencil run allocates per checked op
   may not rise: 117.92 in the default (release) build and 131.01 under
   --profile dev, whose -opaque modules inline nothing across modules,
   when this ceiling was set at the higher of the two (148.9 before,
   with 148.84 measured under dev, before the lock table stopped
   allocating when nobody waits and the build inlined across modules;
   151.99 before
   clocks lost their sorted-pairs tier, 155.81 before
   same-instant events skipped the event heap, 157.93 before a
   granule's S clock shared the store's zero clock until its first
   release and a clock kept its representation in its owner field,
   168.83 before clock piggybacks were priced instead of built and decoded, 220.96 before the
   piggyback encoder became one pass that advances its edge cache in
   place, frames dropped their option box, uncontended local locks
   stopped suspending and the granule walk its closure; 280.3 before
   suspension, ivar waiters and the fabric entry stopped allocating per
   message, 338.1 before the event heap became parallel arrays and the
   message path's tables int-keyed, 433.6 before clocks were copied in
   place on the checked-op path).
   [Gc.minor_words] is exact and the run deterministic, so any new
   allocation on the per-message or per-check path shows. *)
let checked_stencil () =
  let sim = Engine.create ~seed:7 () in
  let m = Machine.create sim ~n:8 ~latency:(Dsm_net.Latency.Constant 1.0) () in
  let d = Detector.create m () in
  let env = Dsm_pgas.Env.checked d in
  let params =
    { Dsm_workload.Stencil.cells_per_node = 16; iterations = 3; seed = 7 }
  in
  ignore
    (Dsm_workload.Stencil.setup env
       ~collectives:(Dsm_pgas.Collectives.create env) params);
  (sim, m, d)

let test_checked_stencil_minor_words () =
  let _, m, d = checked_stencil () in
  let before = Gc.minor_words () in
  expect_completed m;
  let words = Gc.minor_words () -. before in
  let per_op = words /. float_of_int (Detector.checked_ops d) in
  Alcotest.(check int) "checked ops" 810 (Detector.checked_ops d);
  if per_op > 131.1 then
    Alcotest.failf "%.1f minor words per checked op (ceiling 131.1)" per_op

(* What the same run sends and schedules, recorded before the piggyback
   encoder became one pass and before uncontended local locks stopped
   suspending: the frames chosen, their clock words, the fabric
   messages and the events. A cheaper encoder or lock path must leave
   every one of them as it was. *)
let test_checked_stencil_counters () =
  let sim, m, d = checked_stencil () in
  expect_completed m;
  let dense, sparse, delta = Machine.clock_encodings m in
  Alcotest.(check (list int)) "dense, sparse, delta frames" [ 68; 155; 629 ]
    [ dense; sparse; delta ];
  Alcotest.(check int) "clock words" 5446 (Machine.clock_words_sent m);
  Alcotest.(check int) "fabric messages" 1842 (Machine.fabric_messages m);
  Alcotest.(check int) "wire words" 10300 (Machine.wire_words_sent m);
  Alcotest.(check int) "events" 2750 (Engine.events_processed sim);
  Alcotest.(check int) "checked ops" 810 (Detector.checked_ops d)

(* The push shape: batched race-free [Scale] puts at n=256, every
   process blocked on a checked batch at once. Its minor words per
   checked op may not rise: 71.45 in the default build and 75.95 under
   --profile dev when this ceiling was set at the higher of the two
   (80.4 before, with 80.31 measured under dev, before the empty-queue
   lock release and cross-module inlining; 81.81
   before clocks lost their sorted-pairs tier, 83.19
   before same-instant events skipped the event heap, 84.38 before the
   shared zero S clock and the representation kept in a
   clock's owner field, 94.24
   before clock piggybacks were priced instead of built and decoded,
   116.12 before the one-pass piggyback encoder, option-free frames, locks
   that do not suspend uncontended and the closure-free granule walk;
   178.4 before suspension, ivar waiters, the fabric entry and the
   batch path stopped allocating closures, options and lists per op,
   and before [Scale] built its pairs once per process). *)
let checked_scale () =
  let sim = Engine.create ~seed:5 () in
  let m = Machine.create sim ~n:256 ~private_words:64 ~public_words:64 () in
  let d = Detector.create m () in
  Dsm_workload.Scale.setup (Dsm_pgas.Env.checked d)
    { Dsm_workload.Scale.rounds = 4; chunk = 4; racy = false; batched = true;
      think_mean = 0.; seed = 5 };
  (m, d)

let test_checked_scale_minor_words () =
  let m, d = checked_scale () in
  let before = Gc.minor_words () in
  expect_completed m;
  let words = Gc.minor_words () -. before in
  let per_op = words /. float_of_int (Detector.checked_ops d) in
  Alcotest.(check int) "checked ops" 4096 (Detector.checked_ops d);
  if per_op > 76.0 then
    Alcotest.failf "%.1f minor words per checked op (ceiling 76.0)" per_op

(* The racy benchmark shape with the flight ring attached: [Random_access]
   at n=8, 250 ops per process over 32 variables of 4 words, half of
   them reads and a tenth atomics, constant 1 us latency, seed 4. Every
   access races, and the ring records every message event, so the probe
   events' own allocation shows here. Its minor words per checked op
   may not rise: 352.26 in the default build and 377.32 under --profile
   dev when this ceiling was set at the higher of the two (473.24, with
   489.65 under dev, when each message event carried a flat copy of the
   message and each [Net_send] its nominal size and boxed arrival
   time). *)
let test_checked_racy_flight_minor_words () =
  let sim = Engine.create ~seed:4 () in
  let m = Machine.create sim ~n:8 ~latency:(Dsm_net.Latency.Constant 1.0) () in
  let d = Detector.create m () in
  let flight = Dsm_obs.Flight.attach (Engine.probe sim) in
  Dsm_workload.Random_access.setup (Dsm_pgas.Env.checked d)
    {
      Dsm_workload.Random_access.default with
      ops_per_proc = 250;
      vars = 32;
      var_len = 4;
      read_fraction = 0.5;
      atomic_fraction = 0.1;
      seed = 4;
    };
  let before = Gc.minor_words () in
  expect_completed m;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity flight);
  let per_op = words /. float_of_int (Detector.checked_ops d) in
  Alcotest.(check int) "checked ops" 2000 (Detector.checked_ops d);
  if per_op > 377.4 then
    Alcotest.failf "%.1f minor words per checked op (ceiling 377.4)" per_op

(* The words the detector's clock state (every node's store and the
   process clocks) keeps reachable at the end of a run, after a full
   major collection. The run is deterministic and so is the figure: it
   may not rise. *)
let check_retained ~ceiling d =
  Gc.full_major ();
  let words = Detector.clock_heap_words d in
  if words > ceiling then
    Alcotest.failf "%d retained clock words (ceiling %d)" words ceiling

(* The checked stencil run above: 18,614 words when this ceiling was
   set (21,134 before clocks lost their sorted-pairs tier), and still
   18,614 under both the default build and --profile dev. *)
let test_checked_stencil_retained () =
  let _, m, d = checked_stencil () in
  expect_completed m;
  check_retained ~ceiling:18_614 d

(* The push shape of [test_checked_scale_minor_words]: 32,006 words
   when this ceiling was set (38,150 before clocks lost their
   sorted-pairs tier), and still 32,006 under both the default build
   and --profile dev. *)
let test_checked_scale_retained () =
  let m, d = checked_scale () in
  expect_completed m;
  check_retained ~ceiling:32_006 d

(* The explorer's walk loop: [workload:random] at n=3, seed 1, each walk
   replayed for the determinism check, in an arena that has already run
   once. Its mean minor words per walk may not rise:
   11,344.1 in the default build and 12,216.1 under --profile dev when
   this ceiling was set just above the higher of the two (11,348.1,
   with 12,220.1 under dev, while each run boxed its arena in a fresh
   option; 11,402.1, with
   12,274.1 under dev, while every probe event carried its time;
   11,947.3, with
   12,831.4 under dev, before the coherence checker became a per-arena
   sink of the probe bus, reset per walk, and spawns stopped formatting
   default process names; 14,687.1, with
   16,219.1 under dev, before the program was drawn once per arena, the
   replay compared field by field and digests built on demand; 17,665.1,
   with 18,849.1 under dev, when every message was also published as a
   [Sent] or [Delivered] observation that no observer of this run reads,
   and every observation was handed out through a [List.iter] closure). *)
let test_explored_walk_minor_words () =
  let spec =
    {
      Dsm_explore.Explore.default_spec with
      scenario = "workload:random";
      n = 3;
      seed = 1;
    }
  in
  let ctx = Dsm_explore.Explore.create_ctx spec in
  ignore (Dsm_explore.Explore.run_once_in ctx (Dsm_explore.Explore.Walk 0));
  let runs = 100 in
  let before = Gc.minor_words () in
  let stats =
    Dsm_explore.Explore.explore_random_in ~check_determinism:true
      ~stop_on_first:false ctx ~runs
  in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "walks" runs stats.Dsm_explore.Explore.runs;
  Alcotest.(check int) "no walk violates" 0 stats.violated;
  let per_walk = words /. float_of_int runs in
  if per_walk > 12_216.2 then
    Alcotest.failf "%.1f minor words per explored walk (ceiling 12216.2)"
      per_walk

(* The same loop over the planted-bug scenario with the detector:
   [getput-checked], seed 1, 200 walks after one warm-up walk. Its
   get-window monitor reads messages and apply events only, so the
   other classes' emit sites stay silent: 4,175.1 minor words per walk
   in the default build and 4,396.1 under --profile dev when this
   ceiling was set (4,755.1, with 4,976.1 under dev, while each message
   event carried a flat copy of the message; 4,827.1, with 5,048.1
   under dev, while every probe
   event carried its time and an RMW apply was two events; 6,075.1,
   with 6,256.1 under dev, when the monitor's bus sink turned every
   emit site on). *)
let test_getput_walk_minor_words () =
  let spec =
    { Dsm_explore.Explore.default_spec with scenario = "getput-checked"; seed = 1 }
  in
  let ctx = Dsm_explore.Explore.create_ctx spec in
  ignore (Dsm_explore.Explore.run_once_in ctx (Dsm_explore.Explore.Walk 0));
  let runs = 200 in
  let before = Gc.minor_words () in
  let stats =
    Dsm_explore.Explore.explore_random_in ~check_determinism:true
      ~stop_on_first:false ctx ~runs
  in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "walks" runs stats.Dsm_explore.Explore.runs;
  Alcotest.(check int) "no walk violates" 0 stats.violated;
  let per_walk = words /. float_of_int runs in
  if per_walk > 4_396.1 then
    Alcotest.failf "%.1f minor words per getput walk (ceiling 4396.1)" per_walk

(* ---------- transfer-path pins ---------- *)

(* One scripted program per checked transfer path — single puts and
   gets with private and public local sides, batchable put/get runs,
   runs that fall back to per-op transfers because a local side is
   public, and pairs whose write region sorts before their read region
   — run under every transport on
   a jittered fabric. The digests were recorded before the put/get,
   run and batch paths were each written once; any change to message
   order, lock order, ticks or checks moves the race fingerprint, the
   traffic counters, the final simulated time or the final memory. *)
let transfer_digest ~transport case =
  let sim = Engine.create ~seed:7 () in
  let latency =
    Dsm_net.Latency.Jittered
      { model = Dsm_net.Latency.Constant 1.0; mean_jitter = 2.0 }
  in
  let m = Machine.create sim ~n:3 ~latency () in
  let d =
    Detector.create m
      ~config:{ Config.default with Config.transport }
      ()
  in
  let regions = ref [] in
  let keep r =
    regions := r :: !regions;
    r
  in
  let shared pid name len =
    keep (Detector.alloc_shared d ~pid ~name ~len ())
  in
  let priv pid v = keep (private_buf m ~pid v) in
  let sub (r : Addr.region) i =
    Addr.region ~pid:r.base.pid ~space:r.base.space
      ~offset:(r.base.offset + i) ~len:1
  in
  let init (r : Addr.region) v =
    Node_memory.write (Machine.node m r.base.pid) r v
  in
  let spawn pid f = Machine.spawn m ~pid f in
  (match case with
  | "put-private" ->
      let a = shared 0 "a" 2 in
      spawn 1 (fun p -> Detector.put d p ~src:(priv 1 [| 1; 2 |]) ~dst:a);
      spawn 2 (fun p -> Detector.put d p ~src:(priv 2 [| 3; 4 |]) ~dst:a)
  | "put-public" ->
      let a = shared 0 "a" 2 and b = shared 1 "b" 2 in
      init b [| 5; 6 |];
      spawn 1 (fun p -> Detector.put d p ~src:b ~dst:a);
      spawn 2 (fun p -> Detector.get d p ~src:a ~dst:(priv 2 [| 0; 0 |]))
  | "get-private" ->
      let a = shared 0 "a" 2 in
      init a [| 7; 8 |];
      spawn 1 (fun p -> Detector.get d p ~src:a ~dst:(priv 1 [| 0; 0 |]));
      spawn 2 (fun p -> Detector.put d p ~src:(priv 2 [| 9; 9 |]) ~dst:a)
  | "get-public" ->
      let a = shared 0 "a" 2 and c = shared 1 "c" 2 in
      init a [| 7; 8 |];
      spawn 1 (fun p -> Detector.get d p ~src:a ~dst:c);
      spawn 2 (fun p -> Detector.put d p ~src:(priv 2 [| 3; 3 |]) ~dst:c);
      spawn 0 (fun p -> Detector.put d p ~src:(priv 0 [| 4; 4 |]) ~dst:a)
  | "put-batch" ->
      (* three runs, [a0; a1; a3], [b0; b1] and [a2]: what one mixed
         six-pair batch split into when batches were regrouped. The
         private buffers are allocated up front in the order that
         batch's list literal allocated them, right to left. *)
      let a = shared 0 "a" 4 and b = shared 2 "b" 2 in
      let s6 = priv 1 [| 6 |] in
      let s5 = priv 1 [| 5 |] in
      let s4 = priv 1 [| 4 |] in
      let s3 = priv 1 [| 3 |] in
      let s2 = priv 1 [| 2 |] in
      let s1 = priv 1 [| 1 |] in
      let s9 = priv 2 [| 9 |] in
      let s8 = priv 2 [| 8 |] in
      spawn 1 (fun p ->
          Detector.put_batch d p
            ~pairs:[ (s1, sub a 0); (s2, sub a 1); (s3, sub a 3) ];
          Detector.put_batch d p ~pairs:[ (s4, sub b 0); (s5, sub b 1) ];
          Detector.put_batch d p ~pairs:[ (s6, sub a 2) ]);
      spawn 2 (fun p ->
          Detector.put_batch d p ~pairs:[ (s8, sub a 1); (s9, sub a 2) ])
  | "get-batch" ->
      (* two runs, [a0; a1; a2] and [a0], allocated like "put-batch" *)
      let a = shared 0 "a" 4 in
      init a [| 1; 2; 3; 4 |];
      let d4 = priv 1 [| 0 |] in
      let d3 = priv 1 [| 0 |] in
      let d2 = priv 1 [| 0 |] in
      let d1 = priv 1 [| 0 |] in
      let s9 = priv 2 [| 9 |] in
      spawn 1 (fun p ->
          Detector.get_batch d p
            ~pairs:[ (sub a 0, d1); (sub a 1, d2); (sub a 2, d3) ];
          Detector.get_batch d p ~pairs:[ (sub a 0, d4) ]);
      spawn 2 (fun p -> Detector.put d p ~src:s9 ~dst:(sub a 2))
  | "put-batch-fallback" ->
      let a = shared 0 "a" 3 and b = shared 1 "b" 1 in
      init b [| 5 |];
      spawn 1 (fun p ->
          Detector.put_batch d p
            ~pairs:
              [
                (priv 1 [| 1 |], sub a 0);
                (b, sub a 1);
                (priv 1 [| 3 |], sub a 2);
              ]);
      spawn 2 (fun p -> Detector.put d p ~src:(priv 2 [| 6 |]) ~dst:b)
  | "get-batch-fallback" ->
      let a = shared 0 "a" 3 and c = shared 1 "c" 1 in
      init a [| 1; 2; 3 |];
      spawn 1 (fun p ->
          Detector.get_batch d p
            ~pairs:
              [
                (sub a 0, priv 1 [| 0 |]);
                (sub a 1, c);
                (sub a 2, priv 1 [| 0 |]);
              ]);
      spawn 2 (fun p -> Detector.get d p ~src:c ~dst:(priv 2 [| 0 |]))
  | "write-sorts-first" ->
      (* both transfers write a@P0, which sorts before their read
         region s@P2 *)
      let a = shared 0 "a" 1 and s = shared 2 "s" 1 in
      init s [| 4 |];
      spawn 2 (fun p -> Detector.put d p ~src:s ~dst:a);
      spawn 0 (fun p -> Detector.get d p ~src:s ~dst:a)
  | "crossed-pair" ->
      (* opposite transfers over the same two regions: the literal
         read-then-write order would deadlock under a transaction
         transport *)
      let x = shared 0 "x" 1 and y = shared 1 "y" 1 in
      spawn 0 (fun p -> Detector.put d p ~src:x ~dst:y);
      spawn 1 (fun p -> Detector.put d p ~src:y ~dst:x)
  | c -> Alcotest.failf "unknown transfer case %s" c);
  let outcome =
    match Machine.run m with
    | Engine.Completed -> "done"
    | Engine.Blocked k -> Printf.sprintf "blocked:%d" k
    | _ -> "other"
  in
  let mem =
    List.rev !regions
    |> List.concat_map (fun (r : Addr.region) ->
           Array.to_list (Node_memory.read (Machine.node m r.base.pid) r))
    |> List.map string_of_int |> String.concat ","
  in
  Printf.sprintf "%s races=%d msgs=%d wire=%d clock=%d t=%.3f mem=%s fp=%s"
    outcome (races d)
    (Machine.fabric_messages m)
    (Machine.wire_words_sent m)
    (Machine.clock_words_sent m)
    (Engine.now sim) mem
    (Report.fingerprint (Detector.report d))

let transfer_goldens =
  [
    (Config.Inline, "put-private",
     "done races=1 msgs=4 wire=24 clock=12 t=7.818 mem=3,4,1,2,3,4 fp=10ce7e319e89a77871ec8347ff7f65cb");
    (Config.Inline, "put-public",
     "done races=1 msgs=4 wire=22 clock=10 t=7.818 mem=5,6,5,6,5,6 fp=1c7ef331c8ff7b3c4c64c9caa7850f10");
    (Config.Inline, "get-private",
     "done races=1 msgs=4 wire=22 clock=10 t=7.818 mem=9,9,7,8,9,9 fp=10ce7e319e89a77871ec8347ff7f65cb");
    (Config.Inline, "get-public",
     "done races=2 msgs=6 wire=36 clock=18 t=8.872 mem=4,4,3,3,3,3,4,4 fp=b9ffc3d80369d82e4164123628ad049b");
    (Config.Inline, "put-batch",
     "done races=3 msgs=8 wire=55 clock=24 t=14.331 mem=1,8,6,3,4,5,6,5,4,3,2,1,9,8 fp=15c42809588a94c2a90d04eb3ff24a33");
    (Config.Inline, "get-batch",
     "done races=2 msgs=6 wire=31 clock=14 t=8.601 mem=1,2,9,4,1,3,2,1,9 fp=ac8c28766df318eb137c7014060307f8");
    (Config.Inline, "put-batch-fallback",
     "done races=1 msgs=8 wire=44 clock=24 t=14.331 mem=1,6,3,6,3,1,6 fp=b0c32b65aa06cebe458b41ecbaf8570d");
    (Config.Inline, "get-batch-fallback",
     "done races=1 msgs=8 wire=38 clock=18 t=14.331 mem=1,2,3,2,3,1,0 fp=23290ea59c97e651865648f3a5ce83da");
    (Config.Inline, "write-sorts-first",
     "done races=1 msgs=4 wire=20 clock=10 t=9.026 mem=4,4 fp=58cbd64770737a674584ee9c79e0afc9");
    (Config.Inline, "crossed-pair",
     "done races=1 msgs=4 wire=22 clock=12 t=7.818 mem=0,0 fp=e08c0f7e12094662733f36ebec90f66c");
    (Config.Piggyback_txn, "put-private",
     "done races=1 msgs=10 wire=52 clock=20 t=24.007 mem=3,4,1,2,3,4 fp=9fc9e08ddd80df3939a63b299e02251e");
    (Config.Piggyback_txn, "put-public",
     "done races=1 msgs=10 wire=50 clock=18 t=24.007 mem=5,6,5,6,5,6 fp=52c5e40b34269b6ef1099ceff0601786");
    (Config.Piggyback_txn, "get-private",
     "done races=1 msgs=10 wire=50 clock=18 t=24.007 mem=9,9,7,8,9,9 fp=9fc9e08ddd80df3939a63b299e02251e");
    (Config.Piggyback_txn, "get-public",
     "done races=2 msgs=12 wire=64 clock=26 t=22.953 mem=4,4,4,4,3,3,4,4 fp=17e3efc95c47ea719169023e5b02afe2");
    (Config.Piggyback_txn, "put-batch",
     "done races=3 msgs=20 wire=111 clock=40 t=31.079 mem=1,8,6,3,4,5,6,5,4,3,2,1,9,8 fp=166461eca167129a376bbf11d07077b8");
    (Config.Piggyback_txn, "get-batch",
     "done races=1 msgs=15 wire=73 clock=26 t=25.705 mem=1,2,9,4,1,3,2,1,9 fp=9c63f1eb93a3e6bf1f8eba0f24abe82e");
    (Config.Piggyback_txn, "put-batch-fallback",
     "done races=1 msgs=20 wire=100 clock=40 t=31.752 mem=1,6,3,6,3,1,6 fp=6892b440c148eb6750c7a97e4b479daa");
    (Config.Piggyback_txn, "get-batch-fallback",
     "done races=1 msgs=20 wire=94 clock=34 t=31.752 mem=1,2,3,2,3,1,0 fp=6d07c227a1f0d455d927ad6bc492573d");
    (Config.Piggyback_txn, "write-sorts-first",
     "done races=1 msgs=10 wire=50 clock=20 t=20.195 mem=4,4 fp=ee3e3d9ef4bd3d72dd660a3413747fec");
    (Config.Piggyback_txn, "crossed-pair",
     "done races=1 msgs=10 wire=50 clock=20 t=20.041 mem=0,0 fp=73398c3c42081aa0e7fbc8e1ddfcf21d");
    (Config.Explicit_txn, "put-private",
     "done races=1 msgs=16 wire=82 clock=0 t=32.697 mem=3,4,1,2,3,4 fp=2716c282a7bc4994267c4a2fb9633851");
    (Config.Explicit_txn, "put-public",
     "done races=1 msgs=16 wire=82 clock=0 t=32.697 mem=5,6,5,6,5,6 fp=39e77f403b1e9312b2482ffdab98e683");
    (Config.Explicit_txn, "get-private",
     "done races=1 msgs=16 wire=82 clock=0 t=32.697 mem=9,9,7,8,9,9 fp=2716c282a7bc4994267c4a2fb9633851");
    (Config.Explicit_txn, "get-public",
     "done races=2 msgs=18 wire=88 clock=0 t=33.845 mem=4,4,4,4,3,3,4,4 fp=152f324037cd84050d2dfbc18e09fa80");
    (Config.Explicit_txn, "put-batch",
     "done races=5 msgs=64 wire=320 clock=0 t=126.073 mem=1,2,6,3,4,5,6,5,4,3,2,1,9,8 fp=b568c2af549cc57ba3d4fd8888d78a11");
    (Config.Explicit_txn, "get-batch",
     "done races=2 msgs=40 wire=200 clock=0 t=79.988 mem=1,2,9,4,1,9,2,1,9 fp=ad64fdbbf4a3b13562753a54c6314024");
    (Config.Explicit_txn, "put-batch-fallback",
     "done races=1 msgs=32 wire=160 clock=0 t=68.196 mem=1,6,3,6,3,1,6 fp=af8055c533bd47947e5b9a5694fe93a8");
    (Config.Explicit_txn, "get-batch-fallback",
     "done races=1 msgs=32 wire=160 clock=0 t=68.196 mem=1,2,3,2,3,1,0 fp=cc055ef6a45f90d24c3b023fa118f073");
    (Config.Explicit_txn, "write-sorts-first",
     "done races=1 msgs=16 wire=80 clock=0 t=31.625 mem=4,4 fp=525522871ca28051eaa76aadd7feaec7");
    (Config.Explicit_txn, "crossed-pair",
     "done races=1 msgs=16 wire=80 clock=0 t=31.471 mem=0,0 fp=390b05ee3901fb270564914785607249")
  ]

let test_transfer_path_pins () =
  List.iter
    (fun (transport, case, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "%s %s" (Config.transport_name transport) case)
        expected
        (transfer_digest ~transport case))
    transfer_goldens

(* The same equivalence as a property over arbitrary seeds. *)
let prop_ground_truth_equivalence =
  QCheck.Test.make ~name:"online detector = offline HB (random seeds)"
    ~count:25
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 7 100000))
    (fun seed ->
      ground_truth_equivalence ~seed;
      true)

(* ---------- text writers against their Printf/Format oracle ---------- *)

type clock_mode = Epoch | Dense

(* A clock of dimension 1-40 in the requested representation: one live
   component (or none) stays an epoch, two to [n] are a flat array. A
   dimension of 1 has no dense form and falls back to an epoch. *)
let gen_clock =
  let open QCheck.Gen in
  let tick = oneof [ int_range 1 9; int_range 1 1_000_000_000; return max_int ] in
  int_range 1 40 >>= fun n ->
  oneofl [ Epoch; Dense ] >>= fun mode ->
  let mode = if n < 2 then Epoch else mode in
  (match mode with Epoch -> int_range 0 1 | Dense -> int_range 2 n)
  >>= fun live ->
  shuffle_l (List.init n Fun.id) >>= fun pids ->
  list_repeat live tick >|= fun ticks ->
  let a = Array.make n 0 in
  List.iteri (fun i t -> a.(List.nth pids i) <- t) ticks;
  (mode, Dsm_clocks.Vector_clock.of_array a)

let mode_holds (mode, c) =
  Dsm_clocks.Vector_clock.is_epoch c = (mode = Epoch)

(* Race times: exact half-unit ties at 6 decimals ([j / 128], j odd),
   near ties, ordinary values, and values past the writer's fast path
   ([2^52 / 10^6] and beyond), plus the signs and specials it hands to
   the C formatter. *)
let gen_time =
  let open QCheck.Gen in
  oneof
    [
      map (fun j -> float_of_int ((2 * j) + 1) /. 128.) (int_bound 1_000_000);
      map (fun k -> (float_of_int k /. 1e6) +. 5e-7) (int_bound 100_000_000);
      float_bound_inclusive 1e4;
      map (fun x -> (0x1p52 /. 1e6) +. x) (float_bound_inclusive 1e12);
      oneofl [ 0.; -0.; -1.5; 1e20; 0x1p52 /. 1e6 ];
    ]

let gen_race =
  let open QCheck.Gen in
  gen_time >>= fun time ->
  int_bound 40 >>= fun accessor ->
  oneofl Dsm_trace.Event.[ Read; Write; Atomic_update ] >>= fun kind ->
  triple (int_bound 40) (int_bound 4095) (int_range 1 64)
  >>= fun (pid, offset, len) ->
  pair gen_clock gen_clock >>= fun ((_, accessor_clock), (_, datum_clock)) ->
  oneofl [ Report.General_clock; Report.Write_clock ] >>= fun against ->
  opt (int_bound 1_000_000) >|= fun event_id ->
  {
    Report.event_id;
    time;
    accessor;
    kind;
    granule = Addr.region ~pid ~space:Addr.Public ~offset ~len;
    accessor_clock;
    datum_clock;
    against;
    prior = None;
  }

let prop_csv_matches_printf_oracle =
  QCheck.Test.make ~name:"race CSV matches the Printf oracle" ~count:500
    (QCheck.make
       ~print:(fun races -> Text_ref.to_csv races)
       QCheck.Gen.(list_size (int_bound 12) gen_race))
    (fun races ->
      let report = Report.create () in
      List.iter (Report.signal report) races;
      let got = Report.to_csv report and want = Text_ref.to_csv races in
      got = want
      || QCheck.Test.fail_reportf "live:\n%s\noracle:\n%s" got want)

let prop_clock_text_matches_format =
  QCheck.Test.make ~name:"clock text matches Format's pp" ~count:1000
    (QCheck.make
       ~print:(fun (_, c) -> Text_ref.clock_to_string c)
       gen_clock)
    (fun ((_, c) as mc) ->
      let want = Format.asprintf "%a" Text_ref.pp_clock c in
      mode_holds mc
      && Dsm_clocks.Vector_clock.to_string c = want
      && Format.asprintf "%a" Dsm_clocks.Vector_clock.pp c = want)

let () =
  Alcotest.run "core"
    [
      ( "figures",
        [
          Alcotest.test_case "5a concurrent puts" `Quick test_fig5a_concurrent_puts;
          Alcotest.test_case "5b program order" `Quick test_fig5b_program_order;
          Alcotest.test_case "5b via sync" `Quick test_fig5b_cross_process_via_barrier;
          Alcotest.test_case "5c intermediary" `Quick test_fig5c_intermediary_does_not_order;
          Alcotest.test_case "4 reads with W" `Quick test_fig4_concurrent_reads_no_race_with_w;
          Alcotest.test_case "4 reads without W" `Quick test_fig4_false_positive_without_w;
          Alcotest.test_case "write-read race" `Quick test_write_read_race_detected;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "transports agree" `Quick test_transports_agree_on_verdicts;
          Alcotest.test_case "explicit meta messages" `Quick test_explicit_costs_meta_messages;
          Alcotest.test_case "piggyback words" `Quick test_piggyback_ships_clock_words;
          Alcotest.test_case "lamport blind" `Quick test_lamport_misses_races;
        ] );
      ( "granularity",
        [
          Alcotest.test_case "unregistered rejected" `Quick test_unregistered_variable_rejected;
          Alcotest.test_case "word granularity" `Quick test_word_granularity_needs_no_registration;
          Alcotest.test_case "false sharing" `Quick test_block_granularity_false_sharing;
          Alcotest.test_case "register overlap" `Quick test_register_overlap_rejected;
        ] );
      ( "report",
        [
          Alcotest.test_case "grouping" `Quick test_report_grouping;
          Alcotest.test_case "csv" `Quick test_report_csv;
          Alcotest.test_case "csv event_id" `Quick test_report_csv_event_id;
        ] );
      ( "granule-coverage",
        [
          Alcotest.test_case "spanning access" `Quick test_access_spanning_two_variables;
          Alcotest.test_case "partial coverage" `Quick test_partially_registered_access_rejected;
        ] );
      ( "atomics",
        [
          Alcotest.test_case "atomic-atomic synchronized" `Quick test_atomics_do_not_race_each_other;
          Alcotest.test_case "atomic vs plain write" `Quick test_atomic_races_with_plain_write;
          Alcotest.test_case "plain read vs atomic" `Quick test_plain_read_races_with_atomic;
          Alcotest.test_case "atomic flag chain" `Quick test_atomic_synchronizes_causality;
        ] );
      ( "locking",
        [
          Alcotest.test_case "ordered locking safe" `Quick test_ordered_locking_avoids_deadlock;
          Alcotest.test_case "contended puts race once" `Quick
            test_contended_puts_race_once;
          Alcotest.test_case "lock-clock space collision" `Quick test_lock_clock_space_collision;
        ] );
      ( "transfer-paths",
        [
          Alcotest.test_case "transfer paths pinned" `Quick
            test_transfer_path_pins;
        ] );
      ( "allocation-budget",
        [
          Alcotest.test_case "checked stencil minor words per op" `Quick
            test_checked_stencil_minor_words;
          Alcotest.test_case "checked stencil counters pinned" `Quick
            test_checked_stencil_counters;
          Alcotest.test_case "checked scale minor words per op" `Quick
            test_checked_scale_minor_words;
          Alcotest.test_case "checked stencil retained clock words" `Quick
            test_checked_stencil_retained;
          Alcotest.test_case "checked racy minor words per op, flight ring"
            `Quick test_checked_racy_flight_minor_words;
          Alcotest.test_case "checked scale retained clock words" `Quick
            test_checked_scale_retained;
          Alcotest.test_case "explored walk minor words" `Quick
            test_explored_walk_minor_words;
          Alcotest.test_case "getput walk minor words" `Quick
            test_getput_walk_minor_words;
        ] );
      ( "introspection",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "proc clock" `Quick test_proc_clock_snapshot;
        ] );
      ( "clock-store-keys",
        [
          QCheck_alcotest.to_alcotest prop_packed_key_injective;
          QCheck_alcotest.to_alcotest prop_packed_key_rejects_out_of_range;
          Alcotest.test_case "provenance keys distinct across nodes" `Quick
            test_provenance_keys_distinct;
        ] );
      ( "clock-store-layout",
        [
          Alcotest.test_case "single table" `Quick test_store_single_table;
          QCheck_alcotest.to_alcotest prop_variables_match_list_oracle;
          QCheck_alcotest.to_alcotest prop_history_matches_table_oracle;
          Alcotest.test_case "history copies survive wraps" `Quick
            test_history_copies_survive_wraps;
          Alcotest.test_case "note on a full ring allocates nothing" `Quick
            test_note_full_ring_allocates_nothing;
        ] );
      ( "text-writers",
        [
          QCheck_alcotest.to_alcotest prop_csv_matches_printf_oracle;
          QCheck_alcotest.to_alcotest prop_clock_text_matches_format;
        ] );
      ( "ground-truth",
        [
          Alcotest.test_case "equivalence on seeds" `Quick test_ground_truth_seeds;
          Alcotest.test_case "flagged words = ground truth" `Quick
            test_verdicts_match_ground_truth;
          Alcotest.test_case "RMW regression seeds" `Quick
            test_ground_truth_rmw_seeds;
          Alcotest.test_case "RMW release/acquire chain" `Quick
            test_ground_truth_rmw_chain;
          QCheck_alcotest.to_alcotest prop_ground_truth_equivalence;
        ] );
    ]
