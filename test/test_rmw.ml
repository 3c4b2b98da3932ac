(* One-sided RMW extensions (§5.2): NIC-side apply semantics
   (exactly-once under duplicate delivery), detection marking (an RMW is
   atomically a read and a write; a failed CAS only a read) on every
   transport, the serial-specification oracle over explored schedules,
   and schedule-independence of the new workloads' racy granule sets. *)

open Dsm_sim
open Dsm_memory
module Machine = Dsm_rdma.Machine
module Message = Dsm_rdma.Message
module Coherence = Dsm_rdma.Coherence
module Detector = Dsm_core.Detector
module Config = Dsm_core.Config
module Report = Dsm_core.Report
module Explore = Dsm_explore.Explore
module Scenario = Dsm_explore.Scenario
module Chooser = Dsm_explore.Chooser
module Probe = Dsm_obs.Probe
module Metrics = Dsm_obs.Metrics

(* ------------------------------------------------------------------ *)
(* NIC-side apply: accumulate semantics, exactly-once under faults.    *)
(* ------------------------------------------------------------------ *)

let test_accumulate_span () =
  let sim = Engine.create ~seed:7 () in
  let m = Machine.create sim ~n:2 () in
  let checker = Coherence.attach m in
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
  Alcotest.(check (list string))
    "oracle clean" [] (Coherence.rmw_violations checker)

(* A get landing in public memory is a write the oracle must replay: an
   RMW that follows it reads the landed value, not the put before it. *)
let test_rmw_after_get_landing () =
  let sim = Engine.create ~seed:7 () in
  let m = Machine.create sim ~n:3 ~latency:(Dsm_net.Latency.Constant 1.0) () in
  let checker = Coherence.attach m in
  let a = Machine.alloc_public m ~pid:0 ~name:"a" ~len:1 () in
  let b = Machine.alloc_public m ~pid:1 ~name:"b" ~len:1 () in
  Node_memory.write (Machine.node m 1) b [| 9 |];
  Machine.spawn m ~pid:2 (fun p ->
      let five = Machine.alloc_private m ~pid:2 ~len:1 () in
      Node_memory.write (Machine.node m 2) five [| 5 |];
      Machine.put p ~src:five ~dst:a ();
      Machine.compute p 20.0;
      Alcotest.(check int)
        "fetch_add reads the landed value" 9
        (Machine.fetch_add p ~target:a.base ~delta:1 ()));
  Machine.spawn m ~pid:0 (fun p ->
      Machine.compute p 10.0;
      Machine.get p ~src:b ~dst:a ());
  (match Machine.run m with
  | Engine.Completed -> ()
  | _ -> Alcotest.fail "landing run did not complete");
  Alcotest.(check (list string))
    "no lost update" [] (Coherence.rmw_violations checker)

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
      ~reliable:true
      ()
  in
  let checker = Coherence.attach m in
  let counter = Machine.alloc_public m ~pid:0 ~name:"C" ~len:1 () in
  let target =
    Addr.global ~pid:0 ~space:Addr.Public ~offset:counter.Addr.base.offset
  in
  let applies = ref 0 in
  Probe.attach (Engine.probe sim) Probe.apply (function
    | Probe.Atomic_applied { node = 0; _ } -> incr applies
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
  Alcotest.(check (list string))
    "oracle clean" [] (Coherence.rmw_violations checker)

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
(* Explicit transport: RMW clock updates by control message.           *)
(* ------------------------------------------------------------------ *)

(* Under [Explicit_txn] every remote granule update is a [vput] control
   message, and an RMW's early S release travels the same way: these
   runs are the only path through the handler's S-release branch.
   The digests were recorded before the clock-update rule was shared
   between the local path and the handler; any drift in verdicts,
   report contents, meta traffic or stored clocks changes them. The
   allreduce-racy fingerprints were re-recorded when the unused
   broadcast and scatter regions left the collectives' layout, which
   moved its public offsets and nothing else. *)
let explicit_rmw_digest ~workload ~n ~seed =
  let sim = Engine.create ~seed () in
  let latency =
    Dsm_net.Latency.Jittered
      { model = Dsm_net.Latency.Constant 1.0; mean_jitter = 2.0 }
  in
  let m = Machine.create sim ~n ~latency () in
  let d =
    Detector.create m
      ~config:{ Config.default with Config.transport = Config.Explicit_txn }
      ()
  in
  let meta_messages = Test_util.meta_messages m in
  let env = Dsm_pgas.Env.checked d in
  let racy = String.ends_with ~suffix:"-racy" workload in
  let post_check =
    match workload with
    | "histogram" | "histogram-racy" ->
        Dsm_workload.Histogram.setup env
          { Dsm_workload.Histogram.default with racy; think_mean = 1.0; seed };
        fun () -> []
    | "deque" | "deque-racy" ->
        Dsm_workload.Deque.setup env
          { Dsm_workload.Deque.default with racy; think_mean = 1.0; seed }
    | "allreduce" | "allreduce-racy" ->
        let collectives = Dsm_pgas.Collectives.create env in
        Dsm_workload.Allreduce.setup env ~collectives
          { Dsm_workload.Allreduce.default with racy; think_mean = 1.0; seed }
    | "rmw-mix" ->
        ignore
          (Dsm_workload.Rmw_mix.setup env
             { Dsm_workload.Rmw_mix.default with think_mean = 1.0; seed });
        fun () -> []
    | w -> Alcotest.failf "unknown workload %s" w
  in
  (match Machine.run m with
  | Engine.Completed -> ()
  | _ -> Alcotest.failf "%s seed %d did not complete" workload seed);
  List.iter
    (fun (label, msg) ->
      Alcotest.failf "%s seed %d: %s: %s" workload seed label msg)
    (post_check ());
  let r = Detector.report d in
  Printf.sprintf "races=%d meta=%d words=%d storage=%d fp=%s" (Report.count r)
    (meta_messages ())
    (Detector.clock_words_shipped d)
    (Detector.storage_words d) (Report.fingerprint r)

let explicit_rmw_goldens =
  [
    ("histogram", 3, 1,
     "races=0 meta=36 words=135 storage=54 fp=fdd73622d6dcab3e995bca53fee6ba14");
    ("histogram", 3, 2,
     "races=0 meta=24 words=90 storage=54 fp=fdd73622d6dcab3e995bca53fee6ba14");
    ("histogram", 3, 3,
     "races=0 meta=28 words=105 storage=63 fp=fdd73622d6dcab3e995bca53fee6ba14");
    ("histogram-racy", 3, 1,
     "races=1 meta=39 words=147 storage=60 fp=89353d78c6212e8cedb9f9eecbef516f");
    ("histogram-racy", 3, 2,
     "races=1 meta=27 words=102 storage=60 fp=93c10503f20f3300191adea4598a28e6");
    ("histogram-racy", 3, 3,
     "races=2 meta=31 words=117 storage=63 fp=f3abe51ec5d1f35bca4010bbe795be81");
    ("deque", 3, 1,
     "races=0 meta=42 words=159 storage=39 fp=fdd73622d6dcab3e995bca53fee6ba14");
    ("deque", 3, 2,
     "races=0 meta=42 words=159 storage=39 fp=fdd73622d6dcab3e995bca53fee6ba14");
    ("deque", 3, 3,
     "races=0 meta=42 words=159 storage=39 fp=fdd73622d6dcab3e995bca53fee6ba14");
    ("deque-racy", 3, 1,
     "races=2 meta=39 words=150 storage=39 fp=3269d3a5c58fb841b4a07b377579168d");
    ("deque-racy", 3, 2,
     "races=2 meta=39 words=150 storage=39 fp=f8f6b43c3ae58893ca4bf69cf12e039e");
    ("deque-racy", 3, 3,
     "races=2 meta=39 words=150 storage=39 fp=654a535cafe80ab8fe0d7027799e498b");
    ("allreduce", 4, 1,
     "races=0 meta=96 words=504 storage=92 fp=fdd73622d6dcab3e995bca53fee6ba14");
    ("allreduce", 4, 2,
     "races=0 meta=96 words=504 storage=92 fp=fdd73622d6dcab3e995bca53fee6ba14");
    ("allreduce", 4, 3,
     "races=0 meta=96 words=504 storage=92 fp=fdd73622d6dcab3e995bca53fee6ba14");
    ("allreduce-racy", 4, 1,
     "races=6 meta=200 words=1024 storage=92 fp=b7c769b610fccfb128cf719e4594c4f3");
    ("allreduce-racy", 4, 2,
     "races=6 meta=196 words=1004 storage=92 fp=94491e4de79bb6c95ad74f5b8eb19a12");
    ("allreduce-racy", 4, 3,
     "races=6 meta=204 words=1044 storage=92 fp=16fb577e288d12551c805f08f2eacebf");
    ("rmw-mix", 3, 1,
     "races=4 meta=35 words=135 storage=45 fp=720fe98736c4a3a027c934efd41bd414");
    ("rmw-mix", 3, 2,
     "races=2 meta=24 words=93 storage=48 fp=7e1d8207705bc10b9762fa51fa2409f0");
    ("rmw-mix", 3, 3,
     "races=5 meta=24 words=93 storage=57 fp=fd83d2e101015d4cff81addc86f45695")
  ]

let test_explicit_rmw_fingerprints () =
  List.iter
    (fun (workload, n, seed, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "%s n=%d seed %d" workload n seed)
        expected
        (explicit_rmw_digest ~workload ~n ~seed))
    explicit_rmw_goldens

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
      let stats =
        Explore.explore_exhaustive_in (Explore.create_ctx spec)
          ~depth:8 ~max_runs:300
      in
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
  let stats =
    Explore.explore_exhaustive_in (Explore.create_ctx spec)
      ~depth:6 ~max_runs:200
  in
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

(* [Coherence] absorbed the standalone RMW oracle; [Linearize_ref] is
   that oracle as it was. One random walk of [scenario] at n=3 with
   both attached to the same machine: the RMW violations must be the
   same strings in the same order, and the shadow must agree with the
   reference heap on every public word at quiescence. [bug] plants the
   protocol-defect family, [Skip_rmw_write_mark] included. Returns
   whether the walk violated. *)
let merged_matches_reference ~scenario ~bug seed =
  let spec =
    {
      Explore.default_spec with
      scenario;
      n = 3;
      seed;
      latency = Dsm_net.Latency.Constant 1.0;
      bug;
    }
  in
  let sim = Engine.create ~seed () in
  let built = Scenario.instantiate (Scenario.prepare spec) sim in
  let m = built.Scenario.machine in
  let reference = Linearize_ref.attach m in
  let chooser = Chooser.scripted [] in
  Chooser.reset_random chooser (Prng.create ~seed:(seed + 1));
  Engine.set_chooser sim (Some (Chooser.fn chooser));
  ignore (Engine.run ~max_events:200_000 sim : Engine.outcome);
  let what = Printf.sprintf "%s bug=%b seed %d" scenario bug seed in
  let merged = Coherence.rmw_violations built.Scenario.coherence in
  Alcotest.(check (list string))
    (what ^ ": RMW violations") (Linearize_ref.violations reference) merged;
  for node = 0 to Machine.n m - 1 do
    let words =
      Allocator.capacity (Node_memory.allocator (Machine.node m node) Addr.Public)
    in
    for offset = 0 to words - 1 do
      let want = Linearize_ref.expected reference ~node ~offset in
      if Coherence.expected built.Scenario.coherence ~node ~offset <> want then
        Alcotest.failf "%s: shadow and reference differ at %d[%d]" what node
          offset
    done
  done;
  merged <> []

let test_merged_oracle_matches_reference () =
  List.iter
    (fun (scenario, bug) ->
      let violating =
        List.length
          (List.filter
             (merged_matches_reference ~scenario ~bug)
             (List.init 100 (fun i -> i + 1)))
      in
      if bug && violating = 0 then
        Alcotest.failf "%s: no walk of the planted bug violated" scenario;
      if (not bug) && violating > 0 then
        Alcotest.failf "%s: %d bug-free walks violated" scenario violating)
    [
      ("workload:rmw-mix", false);
      ("workload:rmw-mix", true);
      ("rmwlost", false);
      ("rmwlost", true);
    ]

(* A declared initial image is the shadow's value from the start, so the
   first RMW on a declared word is checked against it rather than
   adopted. Memory that disagrees with the declaration is a lost update
   as well as a coherence violation. *)
let test_rmw_checks_declared_init () =
  let sim = Engine.create ~seed:2 () in
  let m = Machine.create sim ~n:2 () in
  let checker = Coherence.attach m in
  let word = Machine.alloc_public m ~pid:1 ~name:"w" ~len:1 () in
  Node_memory.write (Machine.node m 1) word [| 5 |];
  Coherence.declare_init checker ~node:1 ~offset:word.Addr.base.offset [| 3 |];
  Machine.spawn m ~pid:0 (fun p ->
      ignore (Machine.fetch_add p ~target:word.Addr.base ~delta:1 () : int));
  (match Machine.run m with
  | Engine.Completed -> ()
  | _ -> Alcotest.fail "declared-init run did not complete");
  Alcotest.(check int)
    "one coherence violation" 1
    (List.length (Coherence.violations checker));
  match Coherence.rmw_violations checker with
  | [ v ] ->
      Alcotest.(check bool)
        ("a lost update against the declared value: " ^ v)
        true
        (Test_util.contains v "read 5 but the reference heap holds 3")
  | vs -> Alcotest.failf "expected one RMW violation, got %d" (List.length vs)

let test_rmwlost_clean_without_bug () =
  let spec =
    {
      Explore.default_spec with
      scenario = "rmwlost";
      n = 3;
      latency = Dsm_net.Latency.Constant 1.0;
    }
  in
  let stats =
    Explore.explore_exhaustive_in (Explore.create_ctx spec)
      ~depth:10 ~max_runs:500
  in
  Alcotest.(check bool)
    "the tied tree really branches" true
    (stats.Explore.runs > 1);
  Alcotest.(check int) "every schedule clean" 0 stats.Explore.violated

(* ------------------------------------------------------------------ *)
(* Schedule independence of the new workloads' racy granule sets.      *)
(* ------------------------------------------------------------------ *)

let attach_granules ctx =
  let granules = ref [] in
  Probe.attach (Explore.ctx_probe ctx) Probe.race (function
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
      ( "machine",
        [
          Alcotest.test_case "accumulate span semantics" `Quick
            test_accumulate_span;
          Alcotest.test_case "duplicate delivery applies exactly once"
            `Quick test_rmw_duplicate_delivery_exactly_once;
          Alcotest.test_case "RMW after a get landing" `Quick
            test_rmw_after_get_landing;
        ] );
      ( "detection",
        [
          Alcotest.test_case "failed CAS is read-only" `Quick
            test_failed_cas_is_read_only;
          Alcotest.test_case "successful CAS write-marks" `Quick
            test_successful_cas_write_marks;
          Alcotest.test_case "RMW vs RMW serialized" `Quick
            test_rmw_rmw_serialized;
          Alcotest.test_case "explicit transport fingerprints pinned" `Quick
            test_explicit_rmw_fingerprints;
        ] );
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest prop_rmw_mix_linearizable;
          Alcotest.test_case "planted Skip_rmw_write_mark found" `Quick
            test_planted_rmw_bug_found;
          Alcotest.test_case "rmwlost clean without the bug" `Quick
            test_rmwlost_clean_without_bug;
          Alcotest.test_case "matches the reference oracle" `Quick
            test_merged_oracle_matches_reference;
          Alcotest.test_case "first RMW checks the declared init" `Quick
            test_rmw_checks_declared_init;
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
