(* ISSUE 10: the memory-model conformance and differential suite.

   Three layers of evidence that the model refactor is sound:

   1. Golden fingerprints recorded on the pre-refactor tree pin
      [Nic_atomic] — the default — to the exact behavior the paper's
      model had before ordering assumptions moved behind
      [Dsm_rdma.Model]: races, race CSV, message/word counts, simulated
      time, coherence verdicts, final memory and final process clocks,
      as recorded under each of the three clock representations that
      were then selectable, with and without the planted protocol bugs,
      plus explorer fingerprints over the stock scenarios. The one
      remaining clock path must reproduce every recorded digest.

   2. A 500+-schedule randomized sweep holding the default-model
      construction (no [~model]) bit-identical to the
      explicit [Nic_atomic] construction on every schedule, at process
      counts on both sides of the sparse-to-dense promotion, with every
      race signal re-judged by the dense reference oracle.

   3. Differential properties: the sequentially-consistent reference
      never races where every weaker backend is silent (union over a
      budget of depth-8 schedules), and cross-model replay tokens
      round-trip — same model replays bit-identically, a garbage model
      field is a clean [Error]. *)

open Dsm_sim
open Dsm_memory
module Machine = Dsm_rdma.Machine
module Coherence = Dsm_rdma.Coherence
module Model = Dsm_rdma.Model
module Detector = Dsm_core.Detector
module Config = Dsm_core.Config
module Report = Dsm_core.Report
module Explore = Dsm_explore.Explore
module Scenario = Dsm_explore.Scenario
module Token = Dsm_explore.Token

(* Mirrors the pre-refactor golden recorder exactly: same machine, same
   op mix, same fingerprint fields. [model = None] uses the default
   construction path (no [~model] on the machine) — the path every
   pre-refactor caller used. The detector reads the model from the
   machine. *)
let run_once ?model ~n ~seed ~ops ~bugs () =
  let sim = Engine.create ~seed () in
  let latency =
    Dsm_net.Latency.Jittered
      { model = Dsm_net.Latency.Constant 1.0; mean_jitter = 2.0 }
  in
  let m =
    match model with
    | None -> Machine.create sim ~n ~latency ~protocol_bugs:bugs ()
    | Some model ->
        Machine.create sim ~n ~latency ~protocol_bugs:bugs ~model ()
  in
  let checker = Coherence.attach m in
  let config = { Config.default with Config.granularity = Config.Word } in
  let d = Detector.create m ~config () in
  let nvars = max 3 (n / 2) in
  let vars =
    Array.init nvars (fun i ->
        Machine.alloc_public m ~pid:(i mod n)
          ~name:(Printf.sprintf "v%d" i)
          ~len:4 ())
  in
  let mutexes =
    Array.init nvars (fun i ->
        Machine.alloc_public m ~pid:(i mod n)
          ~name:(Printf.sprintf "m%d" i)
          ~len:1 ())
  in
  for pid = 0 to n - 1 do
    let g = Prng.create ~seed:(seed + (97 * pid)) in
    let plan =
      List.init ops (fun _ ->
          (Prng.int g 6, Prng.int g nvars, Prng.int g 4, Prng.float g 15.0))
    in
    Machine.spawn m ~pid (fun p ->
        let buf = Machine.alloc_private m ~pid ~len:4 () in
        List.iter
          (fun (op, v, word, think) ->
            Machine.compute p think;
            let var = vars.(v) in
            let target =
              Addr.global ~pid:var.Addr.base.pid ~space:Addr.Public
                ~offset:(var.Addr.base.offset + word)
            in
            match op with
            | 0 -> Detector.put d p ~src:buf ~dst:var
            | 1 -> Detector.get d p ~src:var ~dst:buf
            | 2 -> ignore (Detector.fetch_add d p ~target ~delta:1)
            | 3 ->
                ignore
                  (Detector.cas d p ~target ~expected:0 ~desired:(pid + 1))
            | 4 ->
                let aop = [| Dsm_rdma.Message.Add; Min; Max; Bor |].(word) in
                ignore (Detector.accumulate d p ~src:buf ~dst:var ~aop)
            | _ ->
                let h = Detector.lock d p mutexes.(v) in
                let cell =
                  Addr.region ~pid:var.Addr.base.pid ~space:Addr.Public
                    ~offset:(var.Addr.base.offset + word)
                    ~len:1
                in
                let scratch = Machine.alloc_private m ~pid ~len:1 () in
                Detector.get d p ~src:cell ~dst:scratch;
                Detector.put d p ~src:scratch ~dst:cell;
                Detector.unlock d p h)
          plan)
  done;
  (match Machine.run m with
  | Engine.Completed -> ()
  | _ -> failwith (Printf.sprintf "seed %d did not complete" seed));
  if not (Dense_ref.signals_concurrent (Detector.report d)) then
    failwith
      (Printf.sprintf "seed %d: race signal ordered under the dense reference"
         seed);
  let fp =
    String.concat "|"
      [
        string_of_int (Report.count (Detector.report d));
        Report.to_csv (Detector.report d);
        string_of_int (Machine.fabric_messages m);
        string_of_int (Machine.fabric_words m);
        Printf.sprintf "%.6f" (Engine.now sim);
        string_of_int (List.length (Coherence.violations checker));
        String.concat ","
          (Array.to_list vars
          |> List.concat_map (fun v ->
                 Array.to_list
                   (Node_memory.read (Machine.node m v.Addr.base.pid) v))
          |> List.map string_of_int);
        String.concat ";"
          (List.init n (fun pid ->
               Dsm_clocks.Vector_clock.to_string (Detector.proc_clock d pid)));
      ]
  in
  Digest.to_hex (Digest.string fp)

let planted = [ Machine.Skip_get_dst_lock; Machine.Skip_rmw_write_mark ]

(* ---------- layer 1: pre-refactor goldens ---------- *)

(* Recorded by dev_goldens/record.ml on the pre-refactor tree (commit
   59f2723), n = 4, ops = 12: (rep, planted bugs, seed, digest). The rep
   column names the clock representation each digest was recorded
   under; the three agree row for row, and the single clock path that
   replaced them is checked against all 48. *)
let direct_goldens =
  [
    ("epoch", false, 1, "8d9b80261cecbdb32bbe5038aa4967a3");
    ("epoch", false, 2, "8ca91e79026721bed7e0b54e8a51c4d3");
    ("epoch", false, 3, "86f6579b930479c4626968f2053e614d");
    ("epoch", false, 5, "d9280aee5cbda57c896e1a203c2050dc");
    ("epoch", false, 8, "30aa8806bf24824cb2edfd0d2367acc3");
    ("epoch", false, 13, "9ea45eef8b3c84c2a3e3a74a3fa1f701");
    ("epoch", false, 21, "e1a43ee90fe47b00e45a85f1f61fa746");
    ("epoch", false, 42, "4dffe66de1d2725e338dd7cde2febf5b");
    ("epoch", true, 1, "8d9b80261cecbdb32bbe5038aa4967a3");
    ("epoch", true, 2, "6f192e4b0f4531e7db72b3c148d673f3");
    ("epoch", true, 3, "a549668a0ea5b5a18546f09e47ac4145");
    ("epoch", true, 5, "d9280aee5cbda57c896e1a203c2050dc");
    ("epoch", true, 8, "cb0f5d033d28df212b419f4fd329db24");
    ("epoch", true, 13, "9ea45eef8b3c84c2a3e3a74a3fa1f701");
    ("epoch", true, 21, "e1a43ee90fe47b00e45a85f1f61fa746");
    ("epoch", true, 42, "4dffe66de1d2725e338dd7cde2febf5b");
    ("dense", false, 1, "8d9b80261cecbdb32bbe5038aa4967a3");
    ("dense", false, 2, "8ca91e79026721bed7e0b54e8a51c4d3");
    ("dense", false, 3, "86f6579b930479c4626968f2053e614d");
    ("dense", false, 5, "d9280aee5cbda57c896e1a203c2050dc");
    ("dense", false, 8, "30aa8806bf24824cb2edfd0d2367acc3");
    ("dense", false, 13, "9ea45eef8b3c84c2a3e3a74a3fa1f701");
    ("dense", false, 21, "e1a43ee90fe47b00e45a85f1f61fa746");
    ("dense", false, 42, "4dffe66de1d2725e338dd7cde2febf5b");
    ("dense", true, 1, "8d9b80261cecbdb32bbe5038aa4967a3");
    ("dense", true, 2, "6f192e4b0f4531e7db72b3c148d673f3");
    ("dense", true, 3, "a549668a0ea5b5a18546f09e47ac4145");
    ("dense", true, 5, "d9280aee5cbda57c896e1a203c2050dc");
    ("dense", true, 8, "cb0f5d033d28df212b419f4fd329db24");
    ("dense", true, 13, "9ea45eef8b3c84c2a3e3a74a3fa1f701");
    ("dense", true, 21, "e1a43ee90fe47b00e45a85f1f61fa746");
    ("dense", true, 42, "4dffe66de1d2725e338dd7cde2febf5b");
    ("sparse", false, 1, "8d9b80261cecbdb32bbe5038aa4967a3");
    ("sparse", false, 2, "8ca91e79026721bed7e0b54e8a51c4d3");
    ("sparse", false, 3, "86f6579b930479c4626968f2053e614d");
    ("sparse", false, 5, "d9280aee5cbda57c896e1a203c2050dc");
    ("sparse", false, 8, "30aa8806bf24824cb2edfd0d2367acc3");
    ("sparse", false, 13, "9ea45eef8b3c84c2a3e3a74a3fa1f701");
    ("sparse", false, 21, "e1a43ee90fe47b00e45a85f1f61fa746");
    ("sparse", false, 42, "4dffe66de1d2725e338dd7cde2febf5b");
    ("sparse", true, 1, "8d9b80261cecbdb32bbe5038aa4967a3");
    ("sparse", true, 2, "6f192e4b0f4531e7db72b3c148d673f3");
    ("sparse", true, 3, "a549668a0ea5b5a18546f09e47ac4145");
    ("sparse", true, 5, "d9280aee5cbda57c896e1a203c2050dc");
    ("sparse", true, 8, "cb0f5d033d28df212b419f4fd329db24");
    ("sparse", true, 13, "9ea45eef8b3c84c2a3e3a74a3fa1f701");
    ("sparse", true, 21, "e1a43ee90fe47b00e45a85f1f61fa746");
    ("sparse", true, 42, "4dffe66de1d2725e338dd7cde2febf5b");
  ]

let test_direct_goldens () =
  List.iter
    (fun (rname, bug, seed, golden) ->
      let bugs = if bug then planted else [] in
      let label = Printf.sprintf "%s bug=%b seed=%d" rname bug seed in
      Alcotest.(check string)
        (label ^ " (default construction)")
        golden
        (run_once ~n:4 ~seed ~ops:12 ~bugs ());
      Alcotest.(check string)
        (label ^ " (explicit nic_atomic)")
        golden
        (run_once ~model:Model.Nic_atomic ~n:4 ~seed ~ops:12 ~bugs ()))
    direct_goldens

(* Explorer fingerprints recorded on the same pre-refactor tree:
   (scenario, n, planted bug, walk, fingerprint); seed 7, constant
   latency. The workload:rmw-mix ones were re-recorded when the unused
   broadcast and scatter regions left the collectives' layout, which
   moved its public offsets and nothing else. *)
let explore_goldens =
  [
    ("getput", 2, false, 0, "dce2b15b4348bd19604278c56413588b");
    ("getput", 2, false, 1, "dce2b15b4348bd19604278c56413588b");
    ("getput", 2, false, 2, "dce2b15b4348bd19604278c56413588b");
    ("getput", 2, false, 3, "dce2b15b4348bd19604278c56413588b");
    ("getput", 2, false, 4, "dce2b15b4348bd19604278c56413588b");
    ("getput-checked", 2, false, 0, "5de34e35838ef77dd29e84dc74f53771");
    ("getput-checked", 2, false, 1, "5de34e35838ef77dd29e84dc74f53771");
    ("getput-checked", 2, false, 2, "5de34e35838ef77dd29e84dc74f53771");
    ("getput-checked", 2, false, 3, "7b3ffdc25d751f3170340e641d7c3fc2");
    ("getput-checked", 2, false, 4, "5de34e35838ef77dd29e84dc74f53771");
    ("getput-checked", 2, true, 0, "18e3efae4e528ff5c56264e435e29d6d");
    ("getput-checked", 2, true, 1, "18e3efae4e528ff5c56264e435e29d6d");
    ("getput-checked", 2, true, 2, "18e3efae4e528ff5c56264e435e29d6d");
    ("getput-checked", 2, true, 3, "ab4897354f138be613bd6e1c813d984a");
    ("getput-checked", 2, true, 4, "18e3efae4e528ff5c56264e435e29d6d");
    ("rmwlost-checked", 3, false, 0, "2cb2b8f706bad0022182d75df8bec1ff");
    ("rmwlost-checked", 3, false, 1, "2cb2b8f706bad0022182d75df8bec1ff");
    ("rmwlost-checked", 3, false, 2, "2cb2b8f706bad0022182d75df8bec1ff");
    ("rmwlost-checked", 3, false, 3, "2cb2b8f706bad0022182d75df8bec1ff");
    ("rmwlost-checked", 3, false, 4, "2cb2b8f706bad0022182d75df8bec1ff");
    ("rmwlost-checked", 3, true, 0, "4a1d8fb4553d1c723e0870d9f7be61ea");
    ("rmwlost-checked", 3, true, 1, "3de7622b0c8b108bd8c3c95667980862");
    ("rmwlost-checked", 3, true, 2, "4a1d8fb4553d1c723e0870d9f7be61ea");
    ("rmwlost-checked", 3, true, 3, "4a1d8fb4553d1c723e0870d9f7be61ea");
    ("rmwlost-checked", 3, true, 4, "4a1d8fb4553d1c723e0870d9f7be61ea");
    ("workload:rmw-mix", 3, false, 0, "ad7238ae4137cf716e2fa41d0c0221b7");
    ("workload:rmw-mix", 3, false, 1, "ad7238ae4137cf716e2fa41d0c0221b7");
    ("workload:rmw-mix", 3, false, 2, "ad7238ae4137cf716e2fa41d0c0221b7");
    ("workload:rmw-mix", 3, false, 3, "ad7238ae4137cf716e2fa41d0c0221b7");
    ("workload:rmw-mix", 3, false, 4, "ad7238ae4137cf716e2fa41d0c0221b7");
  ]

let test_explore_goldens () =
  List.iter
    (fun (scenario, n, bug, walk, golden) ->
      let spec =
        {
          Explore.default_spec with
          scenario;
          n;
          seed = 7;
          latency = Dsm_net.Latency.Constant 1.0;
          bug;
        }
      in
      let r = Explore.run_once spec (Explore.Walk walk) in
      Alcotest.(check string)
        (Printf.sprintf "%s n=%d bug=%b walk=%d" scenario n bug walk)
        golden r.Explore.fingerprint;
      (* and the spec with the model spelled out is the same run *)
      let r' =
        Explore.run_once
          { spec with model = Model.Nic_atomic }
          (Explore.Walk walk)
      in
      Alcotest.(check string)
        (Printf.sprintf "%s walk=%d (explicit nic_atomic)" scenario walk)
        golden r'.Explore.fingerprint)
    explore_goldens

(* ---------- layer 2: 500+-schedule randomized sweep ---------- *)

(* 3 process counts x 2 bug settings x 42 seeds x 2 constructions = 504
   schedules, each default construction held bit-identical to the
   explicit nic_atomic one. At n = 3 clocks stay epochs or sorted pairs;
   at n = 6 and 12 they also cross [sparse_threshold] into dense arrays,
   so the one clock path is exercised in all three shapes. *)
let test_sweep_default_vs_explicit () =
  for i = 0 to 41 do
    let seed = 101 + (13 * i) in
    List.iter
      (fun (n, bug) ->
        let bugs = if bug then planted else [] in
        Alcotest.(check string)
          (Printf.sprintf "n=%d bug=%b seed=%d default=explicit" n bug seed)
          (run_once ~n ~seed ~ops:8 ~bugs ())
          (run_once ~model:Model.Nic_atomic ~n ~seed ~ops:8 ~bugs ()))
      [ (3, false); (3, true); (6, false); (6, true); (12, false); (12, true) ]
  done

(* ---------- layer 3: differential properties ---------- *)

let raced_granules built =
  match built.Scenario.detector with
  | None -> []
  | Some d ->
      List.map
        (fun (r : Report.race) ->
          ( r.Report.granule.Addr.base.pid,
            r.Report.granule.Addr.base.offset,
            r.Report.granule.Addr.len ))
        (Report.races (Detector.report d))

(* Union of raced granules over a fixed budget of depth-8 schedules:
   [count] random decision prefixes of length 8 (rest of the schedule
   default), drawn from [case_seed] — the same prefixes for every
   model. *)
let union_races ~spec ~model ~case_seed ~count =
  let ctx = Explore.create_ctx { spec with model } in
  let g = Prng.create ~seed:case_seed in
  let acc = Hashtbl.create 16 in
  for _ = 1 to count do
    let prefix = List.init 8 (fun _ -> Prng.int g 4) in
    ignore (Explore.run_once_in ctx (Explore.Script prefix));
    match Explore.last_built ctx with
    | None -> ()
    | Some built ->
        List.iter (fun gr -> Hashtbl.replace acc gr ()) (raced_granules built)
  done;
  acc

let diff_scenarios =
  [ ("getput-checked", 2); ("rmwlost-checked", 3); ("workload:rmw-mix", 3) ]

(* The reference model's race set is a subset of every weaker backend's:
   Seq_consistent has every happens-before edge the others have (and
   more), so anything it still flags as concurrent is concurrent under
   fewer edges too. Union-over-schedules because the backends execute
   different schedules from the same decision prefix (non-atomic puts
   add scheduling points). On failure the printer emits replay tokens
   for the failing configuration. *)
let prop_sc_subset =
  let print (idx, case_seed) =
    let scenario, n = List.nth diff_scenarios (idx mod 3) in
    let spec =
      {
        Explore.default_spec with
        scenario;
        n;
        seed = 1 + case_seed;
        latency = Dsm_net.Latency.Constant 1.0;
      }
    in
    Printf.sprintf "%s seed=%d; sc token: %s" scenario (1 + case_seed)
      (Token.to_string
         (Token.make { spec with model = Model.Seq_consistent } []))
  in
  QCheck.Test.make ~count:6 ~name:"seq_consistent races <= weaker models"
    (QCheck.set_print print
       (QCheck.pair (QCheck.int_bound 2) (QCheck.int_bound 999)))
    (fun (idx, case_seed) ->
      let scenario, n = List.nth diff_scenarios (idx mod 3) in
      let spec =
        {
          Explore.default_spec with
          scenario;
          n;
          seed = 1 + case_seed;
          latency = Dsm_net.Latency.Constant 1.0;
        }
      in
      let count = 6 in
      let sc =
        union_races ~spec ~model:Model.Seq_consistent
          ~case_seed:(case_seed * 31) ~count
      in
      List.for_all
        (fun weaker ->
          let w =
            union_races ~spec ~model:weaker ~case_seed:(case_seed * 31)
              ~count
          in
          Hashtbl.fold (fun gr () ok -> ok && Hashtbl.mem w gr) sc true)
        [ Model.Nic_atomic; Model.Relaxed; Model.Eventual ])

(* ---------- cross-model replay ---------- *)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  at 0

let test_cross_model_replay () =
  let spec =
    {
      Explore.default_spec with
      scenario = "rmwlost-checked";
      n = 3;
      latency = Dsm_net.Latency.Constant 1.0;
      model = Model.Relaxed;
    }
  in
  let r = Explore.run_once spec (Explore.Walk 3) in
  let token = Token.make spec r.Explore.decisions in
  let s = Token.to_string token in
  Alcotest.(check bool) "token carries m=relaxed" true
    (contains ~affix:"|m=relaxed" s);
  (match Token.of_string s with
  | Error msg -> Alcotest.fail msg
  | Ok t ->
      Alcotest.(check bool) "model round-trips" true
        (t.Token.spec.model = Model.Relaxed));
  (match Explore.replay token with
  | Error msg -> Alcotest.fail msg
  | Ok r' ->
      Alcotest.(check string) "replay under same model is bit-identical"
        r.Explore.fingerprint r'.Explore.fingerprint);
  (* a garbage model field is a clean Error, not an exception *)
  match
    Token.of_string
      "dsm1|s=getput|n=2|seed=1|m=bogus|f=none|r=0|b=0|me=200000|d="
  with
  | Ok _ -> Alcotest.fail "accepted a bogus model"
  | Error _ -> ()

(* pre-model tokens (no m= field) parse and default to nic_atomic *)
let test_old_tokens_default_model () =
  match
    Token.of_string "dsm1|s=getput|n=2|seed=1|f=none|r=0|b=0|me=200000|d=1,2"
  with
  | Error msg -> Alcotest.fail msg
  | Ok t ->
      Alcotest.(check bool) "defaults to nic_atomic" true
        (t.Token.spec.model = Model.default);
      Alcotest.(check bool) "m= omitted at default" false
        (contains ~affix:"|m=" (Token.to_string t))

(* ---------- coherence: declared init images ---------- *)

let test_declare_init () =
  (* A read of never-written memory is checked against the declared
     image instead of silently adopted: declaring the true contents
     stays clean, declaring a different image flags the first read. *)
  let check ~declared ~expect_clean =
    let sim = Engine.create ~seed:5 () in
    let m = Machine.create sim ~n:2 () in
    let checker = Coherence.attach m in
    let region = Machine.alloc_public m ~pid:0 ~name:"init" ~len:2 () in
    Coherence.declare_init checker ~node:0
      ~offset:region.Addr.base.offset declared;
    Machine.spawn m ~pid:1 (fun p ->
        let buf = Machine.alloc_private m ~pid:1 ~len:2 () in
        Machine.get p ~src:region ~dst:buf ());
    (match Machine.run m with
    | Engine.Completed -> ()
    | _ -> Alcotest.fail "did not complete");
    Alcotest.(check bool)
      (Printf.sprintf "declared %s -> clean=%b"
         (String.concat ","
            (Array.to_list (Array.map string_of_int declared)))
         expect_clean)
      expect_clean (Coherence.is_clean checker)
  in
  (* fresh public segments are zero: the true image *)
  check ~declared:[| 0; 0 |] ~expect_clean:true;
  check ~declared:[| 7; 0 |] ~expect_clean:false

(* [Diff.run ~depth] walks the explorer's bounded-exhaustive DFS: on a
   spec with no violation under the first backend (where
   [explore_exhaustive] never stops early) it visits exactly as many
   schedules — the whole tree when the budget is loose, the budget when
   it is tight. *)
let test_diff_depth_visits_exhaustive_tree () =
  List.iter
    (fun (scenario, depth, runs, whole_tree) ->
      let spec = { Explore.default_spec with scenario; n = 3 } in
      let dfs =
        Explore.explore_exhaustive_in (Explore.create_ctx spec)
          ~depth ~max_runs:runs
      in
      Alcotest.(check int) (scenario ^ ": violation-free") 0
        dfs.Explore.violated;
      Alcotest.(check bool)
        (scenario ^ ": tree smaller than the budget")
        whole_tree (dfs.Explore.runs < runs);
      let diff =
        Dsm_explore.Diff.run ~depth ~runs spec (Model.Nic_atomic, Model.Relaxed)
      in
      Alcotest.(check int)
        (Printf.sprintf "%s depth %d runs %d: same schedule count" scenario
           depth runs)
        dfs.Explore.runs diff.Dsm_explore.Diff.schedules)
    [
      ("workload:master-worker", 6, 300, true);
      ("workload:stencil", 6, 40, false);
    ]

let () =
  Alcotest.run "model"
    [
      ( "nic-atomic-goldens",
        [
          Alcotest.test_case "direct runs (48 pre-refactor digests)" `Quick
            test_direct_goldens;
          Alcotest.test_case "explorer fingerprints (30 pre-refactor)"
            `Quick test_explore_goldens;
        ] );
      ( "conformance-sweep",
        [
          Alcotest.test_case "504 schedules, default = explicit, all reps"
            `Slow test_sweep_default_vs_explicit;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_sc_subset;
          Alcotest.test_case "diff --depth visits the exhaustive tree" `Quick
            test_diff_depth_visits_exhaustive_tree;
        ] );
      ( "replay",
        [
          Alcotest.test_case "cross-model token round-trip" `Quick
            test_cross_model_replay;
          Alcotest.test_case "pre-model tokens default" `Quick
            test_old_tokens_default_model;
        ] );
      ( "coherence-init",
        [ Alcotest.test_case "declared init image" `Quick test_declare_init ] );
    ]
