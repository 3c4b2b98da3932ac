(* ISSUE 9: the explanation pipeline — flight-recorder ring semantics
   (bounded, O(1), arena-reset-aware), fingerprint invariance of the
   attached recorder, and the determinism + both-endpoints guarantees of
   the token-driven race explanations. *)

module Probe = Dsm_obs.Probe
module Flight = Dsm_obs.Flight
module Explain = Dsm_obs.Explain
module Explore = Dsm_explore.Explore
module Explain_run = Dsm_explore.Explain_run
module Parallel = Dsm_explore.Parallel
module Token = Dsm_explore.Token

(* An event class the ring records, stamped [i]. *)
let step i = Probe.Net_deliver { time = float_of_int i; src = 0; dst = 1 }

(* ---------- ring semantics ---------- *)

(* A recorder on a bus of its own, fed by hand. *)
let recorder () =
  let bus = Probe.create () in
  (bus, Flight.attach bus)

let emit_steps bus ~from ~upto =
  for i = from to upto do
    Probe.emit bus (step i)
  done

(* The stamps of the window's events, oldest first. *)
let stamps f =
  List.map
    (function
      | Probe.Net_deliver { time; _ } -> int_of_float time
      | _ -> Alcotest.fail "unexpected event class")
    (Flight.events f)

let test_ring_fills_then_wraps () =
  let bus, f = recorder () in
  emit_steps bus ~from:1 ~upto:3;
  Alcotest.(check (list int)) "partial window" [ 1; 2; 3 ] (stamps f);
  emit_steps bus ~from:4 ~upto:256;
  Alcotest.(check (list int)) "full window, nothing dropped"
    (List.init 256 (fun i -> i + 1))
    (stamps f);
  emit_steps bus ~from:257 ~upto:257;
  Alcotest.(check (list int)) "one past full drops the oldest"
    (List.init 256 (fun i -> i + 2))
    (stamps f)

let test_ring_wraparound () =
  let bus, f = recorder () in
  emit_steps bus ~from:1 ~upto:1000;
  (* 744 overwritten; the newest 256 remain, oldest first *)
  Alcotest.(check (list int)) "last 256, oldest first"
    (List.init 256 (fun i -> i + 745))
    (stamps f)

(* The ring records every event class but the run-boundary markers: a
   [Run_end] is consumed as a control event and takes no slot. *)
let test_ring_filter () =
  let bus, f = recorder () in
  emit_steps bus ~from:3 ~upto:258;
  for run = 1 to 10 do
    Probe.emit bus (Probe.Run_end { run; events = 0; violating = false })
  done;
  Alcotest.(check (list int)) "filtered events don't count"
    (List.init 256 (fun i -> i + 3))
    (stamps f)

(* The explorer emits Run_begin at the top of every run in a (possibly
   reused) arena: the window must cover exactly the current run, so two
   identical runs in the same arena leave identical windows. *)
let test_ring_resets_across_arena_runs () =
  let spec = { Explore.default_spec with seed = 3 } in
  let ctx = Explore.create_ctx spec in
  let f = Flight.attach (Explore.ctx_probe ctx) in
  ignore (Explore.run_once_in ctx (Explore.Walk 1));
  let first = Flight.events f in
  ignore (Explore.run_once_in ctx (Explore.Walk 1));
  Alcotest.(check bool) "first run recorded something" true (first <> []);
  Alcotest.(check bool) "one run fits the window" true
    (List.length first < 256);
  Alcotest.(check int) "window covers one run, not two" (List.length first)
    (List.length (Flight.events f));
  Alcotest.(check bool) "identical run, identical window" true
    (Flight.events f = first)

(* ---------- fingerprint invariance ---------- *)

(* A recorder is a passive sink: attaching one must not change the
   schedule, the fingerprint, or the race verdicts of any run. *)
let prop_flight_fingerprint_invariance =
  QCheck.Test.make ~name:"flight recorder never changes a run" ~count:25
    QCheck.(int_bound 500)
    (fun walk ->
      let spec = { Explore.default_spec with seed = 7 } in
      let plain = Explore.run_once spec (Explore.Walk walk) in
      let ctx = Explore.create_ctx spec in
      ignore (Flight.attach (Explore.ctx_probe ctx));
      let recorded = Explore.run_once_in ctx (Explore.Walk walk) in
      plain.Explore.fingerprint = recorded.Explore.fingerprint
      && plain.Explore.decisions = recorded.Explore.decisions
      && plain.Explore.races = recorded.Explore.races)

(* ---------- explanations: planted get/put bug ---------- *)

let checked_spec =
  {
    Explore.default_spec with
    scenario = "getput-checked";
    latency = Dsm_net.Latency.Constant 1.0;
    bug = true;
  }

let md5 s = Digest.to_hex (Digest.string s)

let test_getput_checked_names_both_endpoints () =
  let r = Explore.run_once checked_spec (Explore.Script []) in
  Alcotest.(check bool) "the planted bug violates" true
    (r.Explore.violations <> []);
  let token = Token.make checked_spec r.Explore.decisions in
  let o = Explain_run.of_token token in
  Alcotest.(check bool) "has explanations" true (o.Explain_run.explanations <> []);
  List.iter
    (fun (e : Explain.t) ->
      Alcotest.(check string) "cause" "race" e.Explain.cause;
      Alcotest.(check int) "granule node" 0 e.Explain.node;
      (match e.Explain.prior with
      | None -> Alcotest.fail "explanation must name the prior endpoint"
      | Some prior ->
          Alcotest.(check bool) "two distinct processes" true
            (prior.Explain.pid <> e.Explain.flagged.Explain.pid);
          Alcotest.(check bool) "prior clock snapshot kept" true
            (Array.length prior.Explain.clock > 0));
      (* Lemma 1: a race signal means incomparable clocks — both
         directions must be witnessed by concrete components *)
      Alcotest.(check bool) "accessor ahead somewhere" true
        (e.Explain.ahead_count > 0);
      Alcotest.(check bool) "accessor behind somewhere" true
        (e.Explain.behind_count > 0);
      (* a concrete missing-sync witness: either the last sync edge that
         failed to order the endpoints, or an explicit absence *)
      (match e.Explain.sync_edge with
      | Some _ -> ()
      | None ->
          Alcotest.(check bool) "window was recorded" true
            (e.Explain.window_events > 0));
      let text = Explain.to_text e in
      Alcotest.(check bool) "text names P0" true
        (Test_util.contains text "P0");
      Alcotest.(check bool) "text names P1" true
        (Test_util.contains text "P1");
      Alcotest.(check bool) "text shows clocks" true
        (Test_util.contains text "clock ["))
    o.Explain_run.explanations

let test_explanations_deterministic () =
  let r = Explore.run_once checked_spec (Explore.Script []) in
  let token = Token.make checked_spec r.Explore.decisions in
  let a = Explain_run.of_token token in
  let b = Explain_run.of_token token in
  Alcotest.(check string) "text byte-identical across replays"
    a.Explain_run.text b.Explain_run.text;
  Alcotest.(check string) "json byte-identical across replays"
    a.Explain_run.json b.Explain_run.json;
  (* and the attached recorder is invisible to the run fingerprint *)
  Alcotest.(check string) "fingerprint matches the bare run"
    r.Explore.fingerprint a.Explain_run.result.Explore.fingerprint

(* The parallel driver's first-violation token is bit-identical for
   every jobs/chunk combination, so the explanations are too. *)
let test_explanations_identical_across_jobs_and_chunk () =
  let texts =
    List.map
      (fun (jobs, chunk) ->
        let stats =
          Parallel.explore_random ~check_determinism:false ~jobs ~chunk
            checked_spec ~runs:20
        in
        match stats.Explore.first with
        | None -> Alcotest.fail "expected a violation"
        | Some (_, r) ->
            let decisions = Token.trim_trailing_zeros r.Explore.decisions in
            let token = Token.make checked_spec decisions in
            (Explain_run.of_token token).Explain_run.text)
      [ (1, 1); (2, 1); (2, 64); (4, 64) ]
  in
  match texts with
  | first :: rest ->
      List.iteri
        (fun i t ->
          Alcotest.(check string)
            (Printf.sprintf "jobs/chunk combination %d" (i + 1))
            first t)
        rest;
      Alcotest.(check bool) "non-empty" true (first <> "")
  | [] -> Alcotest.fail "no combinations ran"

(* ---------- explanations: race-silent RMW atomicity bug ---------- *)

let rmw_spec =
  {
    Explore.default_spec with
    scenario = "rmwlost-checked";
    n = 3;
    latency = Dsm_net.Latency.Constant 1.0;
    bug = true;
  }

let test_rmwlost_checked_atomicity_fallback () =
  let stats =
    Explore.explore_random_in ~check_determinism:false
      (Explore.create_ctx rmw_spec) ~runs:100
  in
  match stats.Explore.first with
  | None -> Alcotest.fail "the planted RMW bug never violated"
  | Some (_, r) ->
      let token = Token.make rmw_spec r.Explore.decisions in
      let o = Explain_run.of_token token in
      (match o.Explain_run.explanations with
      | [ e ] ->
          Alcotest.(check string) "cause" "atomicity" e.Explain.cause;
          Alcotest.(check string) "against the serial spec" "serial-spec"
            e.Explain.against;
          (match e.Explain.prior with
          | None -> Alcotest.fail "atomicity explanation needs both endpoints"
          | Some prior ->
              Alcotest.(check bool) "two distinct processes" true
                (prior.Explain.pid <> e.Explain.flagged.Explain.pid));
          Alcotest.(check string) "flagged endpoint is an RMW" "atomic"
            e.Explain.flagged.Explain.kind;
          Alcotest.(check string) "text md5"
            "b239ccc4f62e92dee40eac26d47a9456" (md5 o.Explain_run.text);
          Alcotest.(check string) "JSON md5"
            "fad6a22795c91574b3e6e99c6f6269ea" (md5 o.Explain_run.json)
      | l ->
          Alcotest.fail
            (Printf.sprintf "expected exactly one fallback explanation, got %d"
               (List.length l)))

(* Clean runs produce no explanations — the pipeline stays quiet when
   there is nothing to explain. *)
let test_clean_run_explains_nothing () =
  let spec = { rmw_spec with bug = false } in
  let r = Explore.run_once spec (Explore.Script []) in
  Alcotest.(check bool) "clean" true (r.Explore.violations = []);
  let o = Explain_run.of_token (Token.make spec r.Explore.decisions) in
  Alcotest.(check int) "no explanations" 0
    (List.length o.Explain_run.explanations);
  Alcotest.(check string) "empty text" "" o.Explain_run.text

(* ---------- pinned report bytes ---------- *)

module Message = Dsm_rdma.Message

(* One racy-random program shaped like the benchmark's racy workload:
   n=8, 250 ops per process over 32 variables of 4 words, half reads,
   a tenth atomics, constant 1 us latency, a flight recorder attached
   beside a sink counting the events it accepts.
   At seed 6 its 256-event window wraps, and its chains hold get,
   get-reply, atomic and lock-granted messages, and some of its sync
   edges are RMW serializations. Seeds 5 and 6 are two of the
   benchmark's four programs at workload seed 1, and the two whose
   JSON weighs the most per race. *)
let racy_report seed =
  let sim = Dsm_sim.Engine.create ~seed () in
  let machine =
    Dsm_rdma.Machine.create sim ~n:8 ~latency:(Dsm_net.Latency.Constant 1.0) ()
  in
  let d = Dsm_core.Detector.create machine () in
  let bus = Dsm_sim.Engine.probe sim in
  let flight = Flight.attach bus in
  let accepted = ref 0 in
  Probe.attach bus Probe.(all land lnot apply) (function
    | Probe.Run_begin _ | Probe.Run_end _ -> ()
    | _ -> incr accepted);
  Dsm_workload.Random_access.setup (Dsm_pgas.Env.checked d)
    {
      Dsm_workload.Random_access.default with
      ops_per_proc = 250;
      vars = 32;
      var_len = 4;
      read_fraction = 0.5;
      atomic_fraction = 0.1;
      seed;
    };
  ignore (Dsm_rdma.Machine.run machine);
  ( !accepted,
    Dsm_core.Diagnose.explain_report ~window:(Flight.events flight)
      (Dsm_core.Detector.report d) )

(* [list_to_json] allocates the document once, at its exact length:
   no buffer that regrows, and no second document-sized block copied
   into the result. The small allocations (the scratch buffer, one
   fragment per chain) are a few KiB. *)
let check_json_allocation es =
  Gc.full_major ();
  let doc, words =
    Test_util.allocated_words (fun () -> Explain.list_to_json es)
  in
  let ratio =
    words *. float_of_int (Sys.word_size / 8) /. float_of_int (String.length doc)
  in
  Alcotest.(check bool)
    (Printf.sprintf "allocates %.3fx the document, at most 1.1x" ratio)
    true (ratio <= 1.1)

let test_full_window_report_pinned () =
  let accepted, es = racy_report 6 in
  Alcotest.(check bool) "the window wrapped" true (accepted > 256);
  let labels =
    List.concat_map
      (fun (e : Explain.t) -> List.map (fun m -> m.Explain.m_label) e.chain)
      es
  in
  List.iter
    (fun prefix ->
      Alcotest.(check bool) ("a chain holds " ^ prefix) true
        (List.exists (String.starts_with ~prefix) labels))
    [ "get#"; "get-reply#"; "atomic#"; "atomic-reply#"; "lock-granted#" ];
  Alcotest.(check bool) "an RMW serialization edge" true
    (List.exists
       (fun (e : Explain.t) ->
         match e.sync_edge with Some (Rmw_serialization _) -> true | _ -> false)
       es);
  Alcotest.(check int) "explanations" 1516 (List.length es);
  Alcotest.(check string) "report JSON md5" "8a8ef1e0e8323b176afcb4b0fba9f3bb" (md5 (Explain.list_to_json es));
  Alcotest.(check string) "report text md5" "6891b547fa990c113dffb808d6d78883"
    (md5 (String.concat "" (List.map Explain.to_text es)));
  check_json_allocation es

(* The bench-shaped report at seed 5, pinned like seed 6's above. *)
let test_bench_report_seed5_pinned () =
  let _, es = racy_report 5 in
  Alcotest.(check int) "explanations" 1527 (List.length es);
  Alcotest.(check string) "report JSON md5" "0c912f718b5d61c212b9498d66e49d4e"
    (md5 (Explain.list_to_json es));
  Alcotest.(check string) "report text md5" "c5bbb62128cb693cb0584677170669d5"
    (md5 (String.concat "" (List.map Explain.to_text es)));
  check_json_allocation es

(* A small racy program with atomics under the Explicit transport, where
   a remote granule's clocks travel by control message, and under Inline.
   The JSON carries every signal's prior endpoint, so it pins the
   history each granule kept. *)
let transport_report transport =
  let sim = Dsm_sim.Engine.create ~seed:4 () in
  let machine =
    Dsm_rdma.Machine.create sim ~n:4 ~latency:(Dsm_net.Latency.Constant 1.0) ()
  in
  let d =
    Dsm_core.Detector.create machine
      ~config:{ Dsm_core.Config.default with Dsm_core.Config.transport }
      ()
  in
  let flight = Flight.attach (Dsm_sim.Engine.probe sim) in
  Dsm_workload.Random_access.setup (Dsm_pgas.Env.checked d)
    {
      Dsm_workload.Random_access.default with
      ops_per_proc = 40;
      vars = 8;
      var_len = 2;
      read_fraction = 0.5;
      atomic_fraction = 0.2;
      seed = 4;
    };
  ignore (Dsm_rdma.Machine.run machine);
  Dsm_core.Diagnose.explain_report ~window:(Flight.events flight)
    (Dsm_core.Detector.report d)

let test_transport_reports_pinned () =
  List.iter
    (fun (transport, count, expected) ->
      let name = Dsm_core.Config.transport_name transport in
      let es = transport_report transport in
      Alcotest.(check int) (name ^ " explanations") count (List.length es);
      Alcotest.(check bool) (name ^ " names prior endpoints") true
        (List.exists (fun (e : Explain.t) -> e.prior <> None) es);
      Alcotest.(check string) (name ^ " report JSON md5") expected
        (md5 (Explain.list_to_json es)))
    [
      (Dsm_core.Config.Explicit_txn, 114, "719e97eef44fd40537fdec089ff33d5e");
      (Dsm_core.Config.Inline, 111, "2a318918a84b83c59d58416cb92d639b");
    ]

(* ---------- shared chains ---------- *)

(* A synthetic window over pids 0..3, from generated steps: a delivery
   (with or without its send), a lock hand-off or an RMW, each on node
   0. Window [k] sits at times [1000k..] and closes with its own
   delivery between P0 and P1, so that pair's chain differs from window
   to window. *)
type wstep =
  | Deliver of int * int * int * bool (* src, dst, op, send recorded *)
  | Lock of int * int (* pid, offset *)
  | Rmw_at of int * int (* origin, offset *)

let window_of k steps =
  let base = 1000. *. float_of_int k in
  let msg src op =
    { Dsm_obs.Msg.none with kind = Get; op; origin = src; offset = op; len = 1 }
  in
  let deliver time (src, dst, op, sent) =
    let m = msg src op in
    (if sent then [ Probe.Msg_sent { time; src; dst; msg = m } ] else [])
    @ [ Probe.Msg_delivered { time = time +. 1.; src; dst; msg = m } ]
  in
  let event i = function
    | Deliver (src, dst, op, sent) ->
        deliver (base +. float_of_int (2 * i)) (src, dst, op, sent)
    | Lock (pid, offset) ->
        let time = base +. float_of_int (2 * i) in
        [
          Probe.Lock_acquired { time; pid; node = 0; offset; len = 2 };
          Probe.Lock_released { time = time +. 1.; pid; node = 0; offset; len = 2 };
        ]
    | Rmw_at (origin, offset) ->
        [
          Probe.Rmw
            { time = base +. float_of_int (2 * i); node = 0; origin; offset;
              len = 1; kind = "fetch_add" };
        ]
  in
  List.concat (List.mapi event steps)
  @ deliver (base +. 999.) (0, 1, 100 + k, true)

(* (window, flagged pid, prior pid or -1, offset, atomicity) *)
type race_spec = int * int * int * int * bool

let explain index ((_, p1, p2, offset, atomicity) : race_spec) =
  let access pid =
    {
      Explain.pid;
      kind = "write";
      time = float_of_int (pid + offset);
      op = offset;
      event_id = -1;
      clock = Array.init 4 (fun i -> if i = pid then 2 + offset else 1);
    }
  in
  let prior = if p2 < 0 then None else Some (access p2) in
  if atomicity then
    Explain.of_atomicity ~node:0 ~offset ~len:1 ~flagged:(access p1) ?prior
      ~index ~detail:"lost update" ()
  else
    Explain.of_race ~node:0 ~offset ~len:1 ~against:"write"
      ~flagged:(access p1) ~datum_clock:(access (max p2 0)).clock ?prior
      ~index ()

(* The pair (P0, P1) explained from two windows, in both orders: a chain
   cache keyed by the pids alone writes the first window's chain for
   the second. *)
let fixed_races : race_spec list =
  [ (0, 0, 1, 0, false); (1, 1, 0, 1, false); (0, 1, 0, 2, false);
    (2, 0, 1, 3, true) ]

let gen_wstep =
  QCheck.Gen.(
    let pid = int_bound 3 in
    frequency
      [
        (4, map (fun (((s, d), op), sent) -> Deliver (s, d, op, sent))
              (pair (pair (pair pid pid) (int_bound 5)) bool));
        (1, map2 (fun p o -> Lock (p, o)) pid (int_bound 3));
        (1, map2 (fun p o -> Rmw_at (p, o)) pid (int_bound 3));
      ])

let gen_race =
  QCheck.Gen.(
    map
      (fun ((w, p1), (p2, (offset, atomicity))) -> (w, p1, p2, offset, atomicity))
      (pair (pair (int_bound 2) (int_bound 3))
         (pair (int_range (-1) 3) (pair (int_bound 3) bool))))

let print_case (windows, races) =
  let step = function
    | Deliver (s, d, op, sent) -> Printf.sprintf "D(%d,%d,%d,%b)" s d op sent
    | Lock (p, o) -> Printf.sprintf "L(%d,%d)" p o
    | Rmw_at (p, o) -> Printf.sprintf "R(%d,%d)" p o
  in
  let race (w, p1, p2, o, a) = Printf.sprintf "(%d,%d,%d,%d,%b)" w p1 p2 o a in
  String.concat " | " (List.map (fun ws -> String.concat " " (List.map step ws)) windows)
  ^ " ; " ^ String.concat " " (List.map race races)

let same_pair (w, p1, p2, _, _) (w', p1', p2', _, _) =
  w = w'
  && ((p1, p2) = (p1', p2') || (p2 >= 0 && (p1, p2) = (p2', p1')))

(* Against fresh scans and the per-explanation writer: every chain is
   the one a fresh index gives, one pair's explanations from one window
   share a single list, in either order, and the document's bytes are
   the reference's. *)
let prop_shared_chains =
  QCheck.Test.make ~name:"shared chains render like the reference" ~count:300
    (QCheck.make ~print:print_case
       QCheck.Gen.(
         pair
           (list_repeat 3 (list_size (int_bound 12) gen_wstep))
           (list_size (int_bound 25) gen_race)))
    (fun (steps, races) ->
      let windows = Array.of_list (List.mapi window_of steps) in
      let indexes = Array.map Explain.index windows in
      let races = fixed_races @ races in
      let es =
        List.map (fun ((w, _, _, _, _) as r) -> explain indexes.(w) r) races
      in
      let cases = List.combine races es in
      List.for_all
        (fun (((w, _, _, _, _) as r), (e : Explain.t)) ->
          e.chain = (explain (Explain.index windows.(w)) r).chain
          && List.for_all
               (fun (r', (e' : Explain.t)) ->
                 (not (same_pair r r')) || e.chain == e'.chain)
               cases)
        cases
      && Explain.list_to_json es = Text_ref.explanations_to_json es)

let test_chain_memo_shares_both_orders () =
  let window = window_of 0 [ Deliver (1, 0, 3, true); Deliver (2, 3, 4, false) ] in
  let index = Explain.index window in
  let e01 = explain index (0, 0, 1, 0, false)
  and e10 = explain index (0, 1, 0, 1, false) in
  Alcotest.(check int) "chain length" 2 (List.length e01.chain);
  Alcotest.(check bool) "one list for both orders" true (e01.chain == e10.chain);
  let fresh = explain (Explain.index window) (0, 0, 1, 0, false) in
  Alcotest.(check bool) "another index scans its own" false
    (fresh.chain == e01.chain)

(* ---------- sync edges against the forward scan ---------- *)

(* A window of arbitrary events over pids 0..3 and nodes 0..1: sends,
   deliveries (with or without their send), lock acquisitions and
   releases and RMWs on overlapping or disjoint ranges, and a clock
   merge (an event the explainer ignores) between them, at times drawn
   from a handful of values, so that ties and decreasing times are
   common. *)
let gen_window =
  QCheck.Gen.(
    let pid = int_bound 3 and node = int_bound 1 and offset = int_bound 5 in
    let len = int_range 1 3 in
    let time = oneofl [ 0.; -0.; 1.; 2.; 2.5; 3.; 4. ] in
    let msg src op =
      { Dsm_obs.Msg.none with kind = Get; op; origin = src; offset = op; len = 1 }
    in
    let event =
      frequency
        [
          ( 2,
            map3
              (fun time (src, dst) op ->
                Probe.Msg_sent { time; src; dst; msg = msg src op })
              time (pair pid pid) (int_bound 3) );
          ( 3,
            map3
              (fun time (src, dst) op ->
                Probe.Msg_delivered { time; src; dst; msg = msg src op })
              time (pair pid pid) (int_bound 3) );
          ( 3,
            map3
              (fun time (pid, node) (offset, len) ->
                Probe.Lock_acquired { time; pid; node; offset; len })
              time (pair pid node) (pair offset len) );
          ( 3,
            map3
              (fun time (pid, node) (offset, len) ->
                Probe.Lock_released { time; pid; node; offset; len })
              time (pair pid node) (pair offset len) );
          ( 2,
            map3
              (fun time (origin, node) (offset, len) ->
                Probe.Rmw { time; node; origin; offset; len; kind = "fetch_add" })
              time (pair pid node) (pair offset len) );
          (1, map2 (fun time pid -> Probe.Clock_merge { time; pid }) time pid);
        ]
    in
    list_size (int_bound 30) event)

(* (flagged pid, prior pid or -1, node, offset, len, atomicity): the
   prior is often the flagged pid itself, and often absent. *)
let gen_sync_race =
  QCheck.Gen.(
    int_bound 3 >>= fun p1 ->
    frequency [ (3, int_bound 3); (1, return p1); (1, return (-1)) ]
    >>= fun p2 ->
    map3
      (fun node (offset, len) atomicity -> (p1, p2, node, offset, len, atomicity))
      (int_bound 1) (pair (int_bound 5) (int_range 1 3)) bool)

let print_window window =
  String.concat "; "
    (List.map
       (function
         | Probe.Msg_sent { time; src; dst; msg } ->
             Printf.sprintf "S(%g,%d->%d,#%d)" time src dst msg.op
         | Probe.Msg_delivered { time; src; dst; msg } ->
             Printf.sprintf "D(%g,%d->%d,#%d)" time src dst msg.op
         | Probe.Lock_acquired { time; pid; node; offset; len } ->
             Printf.sprintf "A(%g,P%d,n%d,%d+%d)" time pid node offset len
         | Probe.Lock_released { time; pid; node; offset; len } ->
             Printf.sprintf "R(%g,P%d,n%d,%d+%d)" time pid node offset len
         | Probe.Rmw { time; node; origin; offset; len; _ } ->
             Printf.sprintf "W(%g,P%d,n%d,%d+%d)" time origin node offset len
         | _ -> "?")
       window)

(* Every explanation's sync edge, from one index shared by all the
   races of the window, is the edge the forward scan finds. *)
let prop_sync_edge_matches_reference =
  QCheck.Test.make ~name:"sync edge matches the forward scan" ~count:1000
    (QCheck.make
       ~print:(fun (window, races) ->
         print_window window ^ " ; "
         ^ String.concat " "
             (List.map
                (fun (p1, p2, node, offset, len, a) ->
                  Printf.sprintf "(%d,%d,n%d,%d+%d,%b)" p1 p2 node offset len a)
                races))
       QCheck.Gen.(pair gen_window (list_size (int_range 1 12) gen_sync_race)))
    (fun (window, races) ->
      let index = Explain.index window in
      List.for_all
        (fun (p1, p2, node, offset, len, atomicity) ->
          let access pid =
            { Explain.pid; kind = "write"; time = 0.; op = 0; event_id = -1;
              clock = Array.init 4 (fun i -> if i = pid then 2 else 1) }
          in
          let prior = if p2 < 0 then None else Some (access p2) in
          let e =
            if atomicity then
              Explain.of_atomicity ~node ~offset ~len ~flagged:(access p1)
                ?prior ~index ~detail:"" ()
            else
              Explain.of_race ~node ~offset ~len ~against:"write"
                ~flagged:(access p1) ~datum_clock:(access (max p2 0)).clock
                ?prior ~index ()
          in
          e.sync_edge = Explain_ref.find_sync window ~p1 ~p2 ~node ~offset ~len)
        races)

(* Every constructor's label, as the renderer must keep printing it. *)
let label_table =
  [
    ( Message.Put
        { op = 3; origin = 1; offset = 8; data = [| 1; 2 |]; extra_words = 9;
          locked = true; want_ack = false },
      "put#3 from P1 -> pub[8..+2)" );
    ( Message.Put
        { op = 4; origin = 0; offset = 0; data = [| 7 |]; extra_words = 0;
          locked = false; want_ack = true },
      "put#4 from P0 -> pub[0..+1) (raw) (acked)" );
    ( Message.Put
        { op = 5; origin = 2; offset = 12; data = [||]; extra_words = 0;
          locked = true; want_ack = true },
      "put#5 from P2 -> pub[12..+0) (acked)" );
    (Message.Put_ack { op = 6 }, "put-ack#6");
    ( Message.Put_batch
        { op = 7; origin = 3; parts = [| (0, [| 1; 2 |]); (4, [| 3; 4; 5 |]) |];
          extra_words = 2; locked = true; want_ack = false },
      "put-batch#7 from P3 (2 parts, 5 words)" );
    ( Message.Put_batch
        { op = 8; origin = 1; parts = [| (16, [| 1 |]) |]; extra_words = 0;
          locked = false; want_ack = true },
      "put-batch#8 from P1 (1 parts, 1 words) (raw) (acked)" );
    ( Message.Get
        { op = 9; origin = 4; offset = 20; len = 4; extra_words = 5;
          locked = true },
      "get#9 from P4 of pub[20..+4)" );
    ( Message.Get
        { op = 10; origin = 5; offset = 0; len = 1; extra_words = 0;
          locked = false },
      "get#10 from P5 of pub[0..+1) (raw)" );
    ( Message.Get_reply { op = 11; data = [| 1; 2; 3 |]; extra_words = 4 },
      "get-reply#11 (3 words)" );
    ( Message.Atomic
        { op = 12; origin = 6; offset = 3; kind = Fetch_add 5; extra_words = 9 },
      "atomic#12 from P6 at pub[3]: fetch_add 5" );
    ( Message.Atomic
        { op = 13; origin = 7; offset = 0; kind = Fetch_add (-2);
          extra_words = 0 },
      "atomic#13 from P7 at pub[0]: fetch_add -2" );
    ( Message.Atomic
        { op = 14; origin = 0; offset = 9;
          kind = Compare_and_swap { expected = 1; desired = -4 };
          extra_words = 0 },
      "atomic#14 from P0 at pub[9]: cas 1->-4" );
    ( Message.Atomic_reply { op = 15; old_value = -7 },
      "atomic-reply#15 old=-7" );
    ( Message.Accumulate
        { op = 16; origin = 1; offset = 4; aop = Add; data = [| 1; 1 |];
          extra_words = 0 },
      "accumulate#16 from P1 at pub[4..+2): add" );
    ( Message.Accumulate
        { op = 17; origin = 2; offset = 0; aop = Min; data = [| 1 |];
          extra_words = 3 },
      "accumulate#17 from P2 at pub[0..+1): min" );
    ( Message.Accumulate
        { op = 18; origin = 3; offset = 1; aop = Max; data = [| 1; 2; 3 |];
          extra_words = 0 },
      "accumulate#18 from P3 at pub[1..+3): max" );
    ( Message.Accumulate
        { op = 19; origin = 4; offset = 2; aop = Band; data = [| 1 |];
          extra_words = 0 },
      "accumulate#19 from P4 at pub[2..+1): band" );
    ( Message.Accumulate
        { op = 20; origin = 5; offset = 3; aop = Bor; data = [| 1 |];
          extra_words = 0 },
      "accumulate#20 from P5 at pub[3..+1): bor" );
    ( Message.Acc_reply { op = 21; old = [| 0; 0 |]; extra_words = 1 },
      "acc-reply#21 (2 words)" );
    ( Message.Lock_request { op = 22; origin = 6; offset = 8; len = 4 },
      "lock#22 from P6 of pub[8..+4)" );
    ( Message.Lock_granted { op = 23; token = 42 },
      "lock-granted#23 tok=42" );
    (Message.Unlock { token = 43 }, "unlock tok=43");
    ( Message.Control
        { op = 24; origin = 7; tag = "vput"; words = [| 1; 2 |];
          want_reply = true },
      "control#24 from P7 tag=vput (2 words)" );
    ( Message.Control_reply { op = 25; words = [||] },
      "control-reply#25 (0 words)" );
  ]

let test_label_table () =
  List.iter
    (fun (msg, expected) ->
      Alcotest.(check string) expected expected (Message.describe msg))
    label_table

let () =
  Alcotest.run "explain"
    [
      ( "ring",
        [
          Alcotest.test_case "fills then wraps" `Quick test_ring_fills_then_wraps;
          Alcotest.test_case "wrap-around" `Quick test_ring_wraparound;
          Alcotest.test_case "class filter" `Quick test_ring_filter;
          Alcotest.test_case "arena reset" `Quick
            test_ring_resets_across_arena_runs;
          QCheck_alcotest.to_alcotest prop_flight_fingerprint_invariance;
        ] );
      ( "explanations",
        [
          Alcotest.test_case "both endpoints named" `Quick
            test_getput_checked_names_both_endpoints;
          Alcotest.test_case "deterministic" `Quick
            test_explanations_deterministic;
          Alcotest.test_case "jobs x chunk identical" `Quick
            test_explanations_identical_across_jobs_and_chunk;
          Alcotest.test_case "atomicity fallback" `Quick
            test_rmwlost_checked_atomicity_fallback;
          Alcotest.test_case "clean run silent" `Quick
            test_clean_run_explains_nothing;
        ] );
      ( "pins",
        [
          Alcotest.test_case "full-window racy report" `Quick
            test_full_window_report_pinned;
          Alcotest.test_case "bench-shaped report, seed 5" `Quick
            test_bench_report_seed5_pinned;
          Alcotest.test_case "explicit and inline reports" `Quick
            test_transport_reports_pinned;
          Alcotest.test_case "message label table" `Quick test_label_table;
          Alcotest.test_case "chain memo shared across pair orders" `Quick
            test_chain_memo_shares_both_orders;
          QCheck_alcotest.to_alcotest prop_shared_chains;
          QCheck_alcotest.to_alcotest prop_sync_edge_matches_reference;
        ] );
    ]
