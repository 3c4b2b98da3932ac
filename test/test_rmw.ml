(* One-sided RMW extensions (§5.2): wire codec round-trip + rejection,
   NIC-side apply semantics (exactly-once under duplicate delivery),
   detection marking (an RMW is atomically a read and a write; a failed
   CAS only a read), the serial-specification oracle over explored
   schedules, and schedule-independence of the new workloads' racy
   granule sets. *)

open Dsm_sim
open Dsm_memory
module Machine = Dsm_rdma.Machine
module Message = Dsm_rdma.Message
module Coherence = Dsm_rdma.Coherence
module Detector = Dsm_core.Detector
module Config = Dsm_core.Config
module Report = Dsm_core.Report
module Explore = Dsm_explore.Explore
module Linearize = Dsm_explore.Linearize
module Probe = Dsm_obs.Probe
module Metrics = Dsm_obs.Metrics

(* ------------------------------------------------------------------ *)
(* Wire codec: exact round-trip, total rejection of malformed input.   *)
(* ------------------------------------------------------------------ *)

let directed_msgs =
  [
    ( "fetch_add",
      Message.Atomic
        {
          op = 3;
          origin = 1;
          offset = 5;
          kind = Message.Fetch_add (-2);
          extra_words = 0;
        } );
    ( "cas",
      Message.Atomic
        {
          op = 4;
          origin = 2;
          offset = 9;
          kind = Message.Compare_and_swap { expected = 0; desired = -7 };
          extra_words = 3;
        } );
    ( "accumulate",
      Message.Accumulate
        {
          op = 5;
          origin = 1;
          offset = 2;
          aop = Message.Min;
          data = [| 3; -1; 4 |];
          extra_words = 2;
        } );
    ("atomic_reply", Message.Atomic_reply { op = 3; old_value = -9 });
    ( "acc_reply",
      Message.Acc_reply { op = 5; old = [| 1; -2; 3 |]; extra_words = 2 } );
  ]

let test_codec_directed () =
  List.iter
    (fun (name, m) ->
      (match Message.decode_rmw (Message.encode_rmw m) with
      | Ok m' ->
          Alcotest.(check bool) (name ^ ": word round-trip") true (m = m')
      | Error e -> Alcotest.failf "%s words rejected: %s" name e);
      match Message.rmw_of_string (Message.rmw_to_string m) with
      | Ok m' ->
          Alcotest.(check bool) (name ^ ": string round-trip") true (m = m')
      | Error e -> Alcotest.failf "%s string rejected: %s" name e)
    directed_msgs;
  let rejects name buf =
    match Message.decode_rmw buf with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: malformed buffer was accepted" name
  in
  let fa_words = Message.encode_rmw (snd (List.nth directed_msgs 0)) in
  rejects "empty buffer" [||];
  rejects "unknown tag" [| 9; 1; 1; 1; 1; 1 |];
  rejects "truncated fetch_add" (Array.sub fa_words 0 5);
  rejects "padded fetch_add" (Array.append fa_words [| 0 |]);
  rejects "negative op" [| 1; -1; 0; 0; 0; 1 |];
  rejects "negative offset" [| 1; 0; 0; -3; 0; 1 |];
  rejects "negative extra_words" [| 1; 0; 0; 0; -1; 1 |];
  rejects "unknown accumulate op code" [| 3; 1; 0; 0; 0; 9; 1; 5 |];
  rejects "accumulate length mismatch" [| 3; 1; 0; 0; 0; 0; 2; 5 |];
  rejects "negative accumulate length" [| 3; 1; 0; 0; 0; 0; -1 |];
  let rejects_s name s =
    match Message.rmw_of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: malformed string was accepted" name
  in
  rejects_s "garbage form" "zz|1|2";
  rejects_s "bad integer" "fa|1|x|0|0|1";
  rejects_s "negative framing field" "fa|-1|0|0|0|1";
  rejects_s "unknown acc op name" "acc|1|0|0|0|mul|1,2";
  rejects_s "empty string" "";
  match Message.encode_rmw (Message.Put_ack { op = 1 }) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "encode_rmw accepted a non-RMW message"

let gen_rmw =
  QCheck.Gen.(
    let value = int_range (-4096) 4096 in
    let data = array_size (int_range 1 5) value in
    quad (int_range 0 999) (int_range 0 31) (int_range 0 1023)
      (int_range 0 64)
    >>= fun (op, origin, offset, extra_words) ->
    oneof
      [
        ( value >|= fun d ->
          Message.Atomic
            { op; origin; offset; kind = Message.Fetch_add d; extra_words }
        );
        ( pair value value >|= fun (expected, desired) ->
          Message.Atomic
            {
              op;
              origin;
              offset;
              kind = Message.Compare_and_swap { expected; desired };
              extra_words;
            } );
        ( pair
            (oneofl [ Message.Add; Min; Max; Band; Bor ])
            data
        >|= fun (aop, data) ->
          Message.Accumulate { op; origin; offset; aop; data; extra_words }
        );
        (value >|= fun old_value -> Message.Atomic_reply { op; old_value });
        (data >|= fun old -> Message.Acc_reply { op; old; extra_words });
      ])

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"RMW codec round-trips exactly (words and string)"
    ~count:500
    (QCheck.make ~print:Message.rmw_to_string gen_rmw)
    (fun m ->
      Message.decode_rmw (Message.encode_rmw m) = Ok m
      && Message.rmw_of_string (Message.rmw_to_string m) = Ok m)

(* ------------------------------------------------------------------ *)
(* NIC-side apply: accumulate semantics, exactly-once under faults.    *)
(* ------------------------------------------------------------------ *)

let test_accumulate_span () =
  let sim = Engine.create ~seed:7 () in
  let m = Machine.create sim ~n:2 () in
  let checker = Coherence.attach m in
  let lin = Linearize.attach m in
  let dst = Machine.alloc_public m ~pid:1 ~name:"span" ~len:4 () in
  Node_memory.write (Machine.node m 1) dst [| 5; -2; 12; 6 |];
  let src = Machine.alloc_private m ~pid:0 ~name:"ops" ~len:4 () in
  Node_memory.write (Machine.node m 0) src [| 3; 3; 3; 3 |];
  Machine.spawn m ~pid:0 (fun p ->
      let old = Machine.accumulate p ~src ~dst ~aop:Message.Min () in
      Alcotest.(check (array int))
        "min returns the prior span" [| 5; -2; 12; 6 |] old;
      let old = Machine.accumulate p ~src ~dst ~aop:Message.Max () in
      Alcotest.(check (array int))
        "max sees min's result" [| 3; -2; 3; 3 |] old;
      let old = Machine.accumulate p ~src ~dst ~aop:Message.Bor () in
      Alcotest.(check (array int))
        "bor sees max's result" [| 3; 3; 3; 3 |] old;
      let old = Machine.accumulate p ~src ~dst ~aop:Message.Band () in
      Alcotest.(check (array int))
        "band sees bor's result" [| 3; 3; 3; 3 |] old;
      let old = Machine.accumulate p ~src ~dst () in
      Alcotest.(check (array int))
        "add (default) sees band's result" [| 3; 3; 3; 3 |] old);
  (match Machine.run m with
  | Engine.Completed -> ()
  | _ -> Alcotest.fail "accumulate run did not complete");
  Alcotest.(check (array int))
    "final span: add landed last" [| 6; 6; 6; 6 |]
    (Node_memory.read (Machine.node m 1) dst);
  Alcotest.(check int)
    "coherent" 0
    (List.length (Coherence.violations checker));
  Alcotest.(check bool) "oracle clean" true (Linearize.is_clean lin)

(* Duplicate- and drop-injected fabric under the reliable transport:
   every RMW must be applied at the target exactly once (the receiver
   dedups retransmitted frames), so the counter sums exactly and the
   serial-replay oracle stays clean. *)
let test_rmw_duplicate_delivery_exactly_once () =
  let sim = Engine.create ~seed:3 () in
  let m =
    Machine.create sim ~n:3
      ~latency:(Dsm_net.Latency.Constant 2.0)
      ~faults:(Dsm_net.Fault.of_string "dup=0.4,drop=0.2")
      ~reliability:(Machine.reliability ())
      ()
  in
  let lin = Linearize.attach m in
  let counter = Machine.alloc_public m ~pid:0 ~name:"C" ~len:1 () in
  let target =
    Addr.global ~pid:0 ~space:Addr.Public ~offset:counter.Addr.base.offset
  in
  let applies = ref 0 in
  Machine.add_observer m (function
    | Machine.Atomic_applied { node = 0; _ } -> incr applies
    | _ -> ());
  let per = 5 in
  for pid = 1 to 2 do
    Machine.spawn m ~pid (fun p ->
        for _ = 1 to per do
          ignore (Machine.fetch_add p ~target ~delta:1 ())
        done)
  done;
  (match Machine.run m with
  | Engine.Completed -> ()
  | _ -> Alcotest.fail "faulted run did not complete");
  Alcotest.(check bool)
    "the plan actually forced retransmits" true
    (Machine.transport_retransmits m > 0);
  Alcotest.(check int) "each RMW applied exactly once" (2 * per) !applies;
  Alcotest.(check int)
    "counter sums exactly" (2 * per)
    (Node_memory.read (Machine.node m 0) counter).(0);
  Alcotest.(check bool) "oracle clean" true (Linearize.is_clean lin)

(* ------------------------------------------------------------------ *)
(* Detection marking: RMW = read + write under one lock hold; a failed *)
(* CAS is read-only.                                                   *)
(* ------------------------------------------------------------------ *)

(* Two unsynchronized processes: pid 0 runs one CAS against a word of
   node 1's public segment, pid 1 runs [second] on the same word. *)
let cas_pair ~expected ~second =
  let sim = Engine.create ~seed:5 () in
  let m = Machine.create sim ~n:2 () in
  let d =
    Detector.create m
      ~config:{ Config.default with Config.granularity = Config.Word }
      ()
  in
  let var = Machine.alloc_public m ~pid:1 ~name:"x" ~len:1 () in
  let target =
    Addr.global ~pid:1 ~space:Addr.Public ~offset:var.Addr.base.offset
  in
  Machine.spawn m ~pid:0 (fun p ->
      ignore (Detector.cas d p ~target ~expected ~desired:9));
  Machine.spawn m ~pid:1 (fun p ->
      let buf = Machine.alloc_private m ~pid:1 ~len:1 () in
      second d p ~var ~buf);
  (match Machine.run m with
  | Engine.Completed -> ()
  | _ -> Alcotest.fail "cas pair did not complete");
  Report.count (Detector.report d)

let plain_read d p ~var ~buf = Detector.get d p ~src:var ~dst:buf
let plain_write d p ~var ~buf = Detector.put d p ~src:buf ~dst:var

(* The word starts at 0, so expected:7 fails and expected:0 swaps. *)
let test_failed_cas_is_read_only () =
  Alcotest.(check int)
    "failed CAS vs concurrent plain read: silent" 0
    (cas_pair ~expected:7 ~second:plain_read);
  Alcotest.(check bool)
    "failed CAS vs concurrent plain write: race" true
    (cas_pair ~expected:7 ~second:plain_write > 0)

let test_successful_cas_write_marks () =
  Alcotest.(check bool)
    "successful CAS vs concurrent plain read: race" true
    (cas_pair ~expected:0 ~second:plain_read > 0);
  Alcotest.(check bool)
    "successful CAS vs concurrent plain write: race" true
    (cas_pair ~expected:0 ~second:plain_write > 0)

(* two unsynchronized fetch_adds on the same word: the target NIC
   serializes them under the region lock and the S clock orders the
   pair, so the detector must stay silent *)
let test_rmw_rmw_serialized () =
  let sim = Engine.create ~seed:6 () in
  let m = Machine.create sim ~n:2 () in
  let d =
    Detector.create m
      ~config:{ Config.default with Config.granularity = Config.Word }
      ()
  in
  let var = Machine.alloc_public m ~pid:1 ~name:"x" ~len:1 () in
  let target =
    Addr.global ~pid:1 ~space:Addr.Public ~offset:var.Addr.base.offset
  in
  for pid = 0 to 1 do
    Machine.spawn m ~pid (fun p ->
        ignore (Detector.fetch_add d p ~target ~delta:1))
  done;
  (match Machine.run m with
  | Engine.Completed -> ()
  | _ -> Alcotest.fail "fetch_add pair did not complete");
  Alcotest.(check int)
    "RMW vs RMW: serialized, silent" 0
    (Report.count (Detector.report d))

(* ------------------------------------------------------------------ *)
(* Serial-specification oracle over explored schedules.                *)
(* ------------------------------------------------------------------ *)

(* Random put/get/fetch_add/CAS programs: on every schedule of the
   bounded DFS, RMW return values must match the SC oracle's serial
   replay and the final heap must equal the replayed heap (the
   ["rmw-linearizability"] and ["rmw-heap"] invariants both hold). *)
let prop_rmw_mix_linearizable =
  QCheck.Test.make
    ~name:"rmw-mix matches the serial oracle on every schedule (depth 8)"
    ~count:15
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 1_000_000))
    (fun seed ->
      let spec =
        {
          Explore.default_spec with
          scenario = "workload:rmw-mix";
          n = 2;
          seed;
          latency = Dsm_net.Latency.Constant 1.0;
        }
      in
      let stats = Explore.explore_exhaustive spec ~depth:8 ~max_runs:300 in
      stats.Explore.runs > 0 && stats.Explore.violated = 0)

(* The planted [Skip_rmw_write_mark] bug defers an RMW's write half to a
   delay-0 event; on the rmwlost scenario a tied delivery reads the span
   inside that window and the oracle must fail loudly. *)
let test_planted_rmw_bug_found () =
  let spec =
    {
      Explore.default_spec with
      scenario = "rmwlost";
      n = 3;
      latency = Dsm_net.Latency.Constant 1.0;
      bug = true;
    }
  in
  let stats = Explore.explore_exhaustive spec ~depth:6 ~max_runs:200 in
  Alcotest.(check bool)
    "a schedule violates" true
    (stats.Explore.violated > 0);
  match stats.Explore.first with
  | None -> Alcotest.fail "no violating run returned"
  | Some (_, r) ->
      Alcotest.(check bool)
        "the oracle names the lost update" true
        (List.exists
           (fun (v : Explore.violation) ->
             v.Explore.invariant = "rmw-linearizability")
           r.Explore.violations)

let test_rmwlost_clean_without_bug () =
  let spec =
    {
      Explore.default_spec with
      scenario = "rmwlost";
      n = 3;
      latency = Dsm_net.Latency.Constant 1.0;
    }
  in
  let stats = Explore.explore_exhaustive spec ~depth:10 ~max_runs:500 in
  Alcotest.(check bool)
    "the tied tree really branches" true
    (stats.Explore.runs > 1);
  Alcotest.(check int) "every schedule clean" 0 stats.Explore.violated

(* ------------------------------------------------------------------ *)
(* Schedule independence of the new workloads' racy granule sets.      *)
(* ------------------------------------------------------------------ *)

let attach_granules ctx =
  let granules = ref [] in
  Probe.attach (Explore.ctx_probe ctx) (function
    | Probe.Race_signal { node; offset; len; _ } ->
        granules := (node, offset, len) :: !granules
    | _ -> ());
  granules

let test_racy_sets_schedule_independent () =
  List.iter
    (fun scenario ->
      let spec = { Explore.default_spec with scenario; n = 2 } in
      let ctx = Explore.create_ctx spec in
      let granules = attach_granules ctx in
      let sets =
        List.init 20 (fun walk ->
            granules := [];
            let r = Explore.run_once_in ctx (Explore.Walk walk) in
            Alcotest.(check int)
              (Printf.sprintf "%s walk %d: invariants" scenario walk)
              0
              (List.length r.Explore.violations);
            List.sort_uniq compare !granules)
      in
      match sets with
      | first :: rest ->
          Alcotest.(check bool)
            (scenario ^ ": racy granules observed")
            true (first <> []);
          List.iteri
            (fun i s ->
              Alcotest.(check bool)
                (Printf.sprintf "%s walk %d: same racy granule set" scenario
                   (i + 1))
                true (s = first))
            rest
      | [] -> assert false)
    [
      "workload:histogram-racy"; "workload:deque-racy";
      "workload:allreduce-racy";
    ]

(* Race-free variants: clean on every schedule of the depth-10 bounded
   DFS — no race signal, no invariant violation. *)
let test_race_free_clean_at_depth_10 () =
  List.iter
    (fun scenario ->
      let registry = Metrics.create () in
      let spec = { Explore.default_spec with scenario; n = 2 } in
      let ctx = Explore.create_ctx ~metrics:registry spec in
      let stats = Explore.explore_exhaustive_in ctx ~depth:10 ~max_runs:500 in
      Alcotest.(check int) (scenario ^ ": no violations") 0
        stats.Explore.violated;
      Alcotest.(check int)
        (scenario ^ ": no race signals")
        0
        (Metrics.value (Metrics.counter registry "detector.race_signal")))
    [ "workload:histogram"; "workload:deque"; "workload:allreduce" ]

(* The merged race count is bit-identical across worker counts and
   claim-chunk sizes — parallelism only changes wall-clock time. *)
let test_race_count_jobs_chunk_invariant () =
  let spec =
    {
      Explore.default_spec with
      scenario = "workload:deque-racy";
      n = 2;
    }
  in
  let count ~jobs ~chunk =
    let registry = Metrics.create () in
    let stats =
      Dsm_explore.Parallel.explore_random ~jobs ~chunk ~metrics:registry spec
        ~runs:24
    in
    Alcotest.(check int) "no violations" 0 stats.Explore.violated;
    Metrics.value (Metrics.counter registry "detector.race_signal")
  in
  let base = count ~jobs:1 ~chunk:64 in
  Alcotest.(check bool) "races observed" true (base > 0);
  Alcotest.(check int) "jobs 2 identical" base (count ~jobs:2 ~chunk:64);
  Alcotest.(check int) "chunk 1 identical" base (count ~jobs:2 ~chunk:1)

(* ---------- registration ---------- *)

let () =
  Alcotest.run "rmw"
    [
      ( "codec",
        [
          Alcotest.test_case "directed round-trips + rejection" `Quick
            test_codec_directed;
          QCheck_alcotest.to_alcotest prop_codec_roundtrip;
        ] );
      ( "machine",
        [
          Alcotest.test_case "accumulate span semantics" `Quick
            test_accumulate_span;
          Alcotest.test_case "duplicate delivery applies exactly once"
            `Quick test_rmw_duplicate_delivery_exactly_once;
        ] );
      ( "detection",
        [
          Alcotest.test_case "failed CAS is read-only" `Quick
            test_failed_cas_is_read_only;
          Alcotest.test_case "successful CAS write-marks" `Quick
            test_successful_cas_write_marks;
          Alcotest.test_case "RMW vs RMW serialized" `Quick
            test_rmw_rmw_serialized;
        ] );
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest prop_rmw_mix_linearizable;
          Alcotest.test_case "planted Skip_rmw_write_mark found" `Quick
            test_planted_rmw_bug_found;
          Alcotest.test_case "rmwlost clean without the bug" `Quick
            test_rmwlost_clean_without_bug;
        ] );
      ( "schedule-independence",
        [
          Alcotest.test_case "racy granule sets identical across walks"
            `Slow test_racy_sets_schedule_independent;
          Alcotest.test_case "race-free variants clean at depth 10" `Slow
            test_race_free_clean_at_depth_10;
          Alcotest.test_case "race count invariant under jobs/chunk" `Quick
            test_race_count_jobs_chunk_invariant;
        ] );
    ]
