(* The schedule-exploration and fault-injection harness: replay tokens,
   the planted-bug acceptance path, invariant checking, and the
   differential vector-clock vs. lockset comparison across explored
   schedules. *)

open Dsm_sim
module Explore = Dsm_explore.Explore
module Token = Dsm_explore.Token
module Chooser = Dsm_explore.Chooser
module Machine = Dsm_rdma.Machine
module Detector = Dsm_core.Detector
module Config = Dsm_core.Config
module Report = Dsm_core.Report
module Env = Dsm_pgas.Env
module Collectives = Dsm_pgas.Collectives
module Fault = Dsm_net.Fault

(* ---------- tokens ---------- *)

let test_token_roundtrip () =
  let t =
    {
      Token.spec =
        {
          scenario = "getput";
          n = 3;
          seed = 42;
          latency = Dsm_net.Latency.Constant 1.0;
          model = Dsm_rdma.Model.Relaxed;
          faults = Fault.of_string "drop=0.2,dup=0.1,0>1:reorder=0.5";
          reliable = true;
          bug = true;
          max_events = 50_000;
        };
      decisions = [ 1; 0; 2; 0; 3 ];
    }
  in
  match Token.of_string (Token.to_string t) with
  | Error msg -> Alcotest.fail msg
  | Ok t' ->
      Alcotest.(check string) "token" (Token.to_string t) (Token.to_string t')

let test_token_rejects_garbage () =
  (match Token.of_string "nonsense" with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error _ -> ());
  (match Token.of_string "dsm1|s=getput|n=x" with
  | Ok _ -> Alcotest.fail "accepted bad integer"
  | Error _ -> ());
  match Token.of_string "dsm1|weird" with
  | Ok _ -> Alcotest.fail "accepted field without '='"
  | Error _ -> ()

let test_trim_trailing_zeros () =
  Alcotest.(check (list int))
    "trim" [ 1; 0; 2 ]
    (Token.trim_trailing_zeros [ 1; 0; 2; 0; 0 ]);
  Alcotest.(check (list int)) "all zeros" [] (Token.trim_trailing_zeros [ 0; 0 ])

let test_token_rejects_malformed_spec () =
  List.iter
    (fun token ->
      match Token.of_string token with
      | Ok _ -> Alcotest.failf "accepted %S" token
      | Error _ -> ())
    [
      "dsm1|s=getput|n=2|seed=1|f=none|r=0|b=0|me=-5|d=";
      "dsm1|s=getput|n=2|seed=1|f=none|r=0|b=0|me=0|d=";
      "dsm1|s=getput|n=0|seed=1|f=none|r=0|b=0|me=200000|d=";
      "dsm1|s=getput|n=2|seed=1|f=none|r=0|b=0|me=200000|d=-1,3";
      "dsm1|s=getput|n=2|seed=1|f=none|r=0|b=0|me=200000|d=1|d=2";
      "dsm1|s=getput|n=2|seed=1|n=3|f=none|r=0|b=0|me=200000|d=";
      "dsm1|s=getput|n=2|seed=1|f=a>1:drop=0.5|r=0|b=0|me=200000|d=";
    ]

(* One literal per token format the explorer has minted: no l/m, l=
   only, m= only, both, and the retired w= field. Each parses and prints
   back byte for byte, except that w= is dropped. *)
let printed_tokens =
  [
    ( "dsm1|s=getput|n=2|seed=1|f=none|r=0|b=0|me=200000|d=1,2",
      "dsm1|s=getput|n=2|seed=1|f=none|r=0|b=0|me=200000|d=1,2" );
    ( "dsm1|s=getput|n=2|seed=7|f=drop=0.2,dup=0.1|r=1|b=1|me=200000|d=1,0,2",
      "dsm1|s=getput|n=2|seed=7|f=drop=0.2,dup=0.1|r=1|b=1|me=200000|d=1,0,2" );
    ( "dsm1|s=getput-checked|n=2|seed=1|l=constant:1|f=none|r=0|b=1|me=200000|d=",
      "dsm1|s=getput-checked|n=2|seed=1|l=constant:1|f=none|r=0|b=1|me=200000|d=" );
    ( "dsm1|s=getput|n=2|seed=1|m=eventual|f=none|r=0|b=0|me=200000|d=1",
      "dsm1|s=getput|n=2|seed=1|m=eventual|f=none|r=0|b=0|me=200000|d=1" );
    ( "dsm1|s=rmwlost-checked|n=3|seed=1|l=constant:1|m=relaxed|f=none|r=0|b=0|me=200000|d=1,1,1",
      "dsm1|s=rmwlost-checked|n=3|seed=1|l=constant:1|m=relaxed|f=none|r=0|b=0|me=200000|d=1,1,1" );
    ( "dsm1|s=getput|n=2|seed=7|l=constant:1|w=dense|f=drop=0.2|r=1|b=1|me=200000|d=1,0,2",
      "dsm1|s=getput|n=2|seed=7|l=constant:1|f=drop=0.2|r=1|b=1|me=200000|d=1,0,2" );
  ]

let test_token_print_stability () =
  List.iter
    (fun (token, printed) ->
      match Token.of_string token with
      | Error msg -> Alcotest.failf "%S does not parse: %s" token msg
      | Ok t -> Alcotest.(check string) token printed (Token.to_string t))
    printed_tokens

let gen_token =
  let open QCheck.Gen in
  (* decimals of at most five significant digits print (%g) and parse
     back to the same float *)
  let dec hi = map (fun k -> float_of_int k /. 100.) (int_bound (hi * 100)) in
  let prob = dec 1 in
  let rec latency depth =
    frequency
      ([
         (1, return Dsm_net.Latency.infiniband_like);
         (1, return Dsm_net.Latency.ethernet_like);
         (2, map (fun c -> Dsm_net.Latency.Constant c) (dec 50));
         ( 1,
           map2
             (fun base per_word -> Dsm_net.Latency.Linear { base; per_word })
             (dec 50) (dec 1) );
         ( 1,
           map3
             (fun latency overhead gap_per_word ->
               Dsm_net.Latency.Logp { latency; overhead; gap_per_word })
             (dec 50) (dec 5) (dec 1) );
       ]
      @
      if depth = 0 then []
      else
        [
          ( 1,
            map2
              (fun model mean_jitter ->
                Dsm_net.Latency.Jittered { model; mean_jitter })
              (latency (depth - 1))
              (dec 10) );
        ])
  in
  (* a link's reorder window only prints when it differs from its base,
     and a plan with no fault probabilities prints as [none]: generate
     windows alongside reordering only, and overrides that differ from
     the default link *)
  let link =
    map
      (fun ((drop, duplicate), (reorder, jitter, window)) ->
        let reorder_window = if reorder > 0. then window else 4.0 in
        { Fault.drop; duplicate; reorder; jitter; reorder_window })
      (pair (pair prob prob) (triple prob (dec 5) (dec 10)))
  in
  (* plans are written in the fault-plan grammar, as the CLI takes them;
     [%h] keeps every float exact *)
  let clauses prefix (l : Fault.link) =
    String.concat ","
      (List.map
         (fun (key, v) -> Printf.sprintf "%s%s=%h" prefix key v)
         [
           ("drop", l.drop);
           ("dup", l.duplicate);
           ("reorder", l.reorder);
           ("jitter", l.jitter);
           ("window", l.reorder_window);
         ])
  in
  let faults =
    frequency
      [
        (2, return Fault.none);
        ( 3,
          map2
            (fun d overrides ->
              let text = clauses "" d in
              List.fold_left
                (fun (plan, text) ((src, dst), l) ->
                  if l = Fault.link plan ~src ~dst then (plan, text)
                  else
                    let text =
                      text ^ "," ^ clauses (Printf.sprintf "%d>%d:" src dst) l
                    in
                    (Fault.of_string text, text))
                (Fault.of_string text, text)
                overrides
              |> fst)
            link
            (list_size (int_bound 2)
               (pair (pair (int_bound 3) (int_bound 3)) link))
        );
      ]
  in
  let scenario =
    oneof
      [
        oneofl Dsm_explore.Scenario.known;
        string_size ~gen:(oneofl [ 'a'; 'z'; ':'; '-'; '.'; '=' ]) (1 -- 8);
      ]
  in
  let* scenario = scenario in
  let* n = 1 -- 64 in
  let* seed = int in
  let* latency = latency 2 in
  let* model =
    oneofl
      Dsm_rdma.Model.[ Nic_atomic; Relaxed; Eventual; Seq_consistent ]
  in
  let* faults = faults in
  let* reliable = bool in
  let* bug = bool in
  let* max_events = 1 -- 1_000_000 in
  let* decisions = list_size (0 -- 12) (int_bound 6) in
  return
    {
      Token.spec =
        {
          scenario;
          n;
          seed;
          latency;
          model;
          faults;
          reliable;
          bug;
          max_events;
        };
      decisions;
    }

let arb_token = QCheck.make ~print:Token.to_string gen_token

let prop_token_roundtrip =
  QCheck.Test.make ~name:"of_string (to_string t) = Ok t" ~count:1000
    arb_token (fun t -> Token.of_string (Token.to_string t) = Ok t)

(* Byte mutations of valid tokens — substitutions, deletions and
   duplications at random positions — must come back as [Ok] or
   [Error], never as an exception. *)
let prop_token_fuzz =
  let mutate =
    let open QCheck.Gen in
    let bytes =
      oneofl [ '|'; '='; ','; ':'; '>'; '-'; '0'; '9'; 'x'; ' '; '\255' ]
    in
    let* token = map Token.to_string gen_token in
    let* edits = list_size (1 -- 4) (triple (int_bound 2) nat bytes) in
    return
      (List.fold_left
         (fun s (kind, pos, c) ->
           let len = String.length s in
           if len = 0 then s
           else
             let i = pos mod len in
             let before = String.sub s 0 i
             and after = String.sub s (i + 1) (len - i - 1) in
             match kind with
             | 0 -> before ^ String.make 1 c ^ after
             | 1 -> before ^ after
             | _ -> before ^ String.make 2 s.[i] ^ after)
         token edits)
  in
  QCheck.Test.make ~name:"mutated tokens never raise" ~count:2000
    (QCheck.make ~print:Fun.id mutate) (fun s ->
      match Token.of_string s with Ok _ | Error _ -> true)

(* ---------- chooser ---------- *)

let test_chooser_scripted_clamps () =
  let c = Chooser.scripted [ 5; -1; 1 ] in
  (* ready counts 3, 4, 2 — and one decision past the script's end *)
  Alcotest.(check int) "clamped high" 2 (Chooser.fn c 3);
  Alcotest.(check int) "clamped low" 0 (Chooser.fn c 4);
  Alcotest.(check int) "in range" 1 (Chooser.fn c 2);
  Alcotest.(check int) "past end" 0 (Chooser.fn c 7);
  Alcotest.(check (list int)) "recorded" [ 2; 0; 1; 0 ] (Chooser.decisions c);
  Alcotest.(check int) "points" 4 (Chooser.choice_points c)

(* ---------- invariants on clean scenarios ---------- *)

let test_getput_clean_schedules () =
  let spec = { Explore.default_spec with seed = 3 } in
  let stats = Explore.explore_random_in (Explore.create_ctx spec) ~runs:25 in
  Alcotest.(check int) "runs" 25 stats.Explore.runs;
  Alcotest.(check int) "violations" 0 stats.Explore.violated

let test_workloads_clean_schedules () =
  List.iter
    (fun scenario ->
      let spec =
        { Explore.default_spec with scenario; n = 3; seed = 5 }
      in
      let stats = Explore.explore_random_in (Explore.create_ctx spec) ~runs:8 in
      Alcotest.(check int) (scenario ^ " violations") 0 stats.Explore.violated)
    [
      "workload:random";
      "workload:master-worker-racy";
      "workload:pipeline";
      "workload:locked-counter";
    ]

let test_exhaustive_clean () =
  let spec = { Explore.default_spec with seed = 2 } in
  let stats =
    Explore.explore_exhaustive_in (Explore.create_ctx spec)
      ~depth:6 ~max_runs:50
  in
  Alcotest.(check int) "violations" 0 stats.Explore.violated;
  Alcotest.(check bool) "explored something" true (stats.Explore.runs >= 1)

(* ---------- determinism ---------- *)

let test_walk_replay_identical () =
  List.iter
    (fun scenario ->
      let spec =
        { Explore.default_spec with scenario; n = 3; seed = 9 }
      in
      let r = Explore.run_once spec (Explore.Walk 4) in
      let r' = Explore.run_once spec (Explore.Script r.Explore.decisions) in
      Alcotest.(check string)
        (scenario ^ " fingerprint") r.Explore.fingerprint
        r'.Explore.fingerprint)
    [ "getput"; "workload:random"; "workload:pipeline" ]

(* The determinism replay must notice a replay that differs from its
   run: a probe sink schedules one extra engine event during the replay
   only (the arena's second run), and the walk carries a "determinism"
   violation and no other. *)
let test_replay_perturbation_caught () =
  let spec =
    { Explore.default_spec with scenario = "workload:random"; n = 3; seed = 9 }
  in
  let ctx = Explore.create_ctx spec in
  let replaying = ref false and perturbed = ref false in
  Dsm_obs.Probe.attach (Explore.ctx_probe ctx) (function
    | Dsm_obs.Probe.Run_begin { run } ->
        replaying := run = 1;
        perturbed := false
    | Msg_sent _ when !replaying && not !perturbed -> (
        perturbed := true;
        match Explore.last_built ctx with
        | Some b -> Engine.schedule (Machine.sim b.machine) ignore
        | None -> ())
    | _ -> ());
  let r = Explore.run_once_in ~check_determinism:true ctx (Explore.Walk 0) in
  Alcotest.(check bool) "the replay was perturbed" true !perturbed;
  Alcotest.(check (list string))
    "violated invariants" [ "determinism" ]
    (List.map (fun (v : Explore.violation) -> v.invariant) r.violations)

(* ---------- fault injection and the reliable transport ---------- *)

let lossy = Fault.of_string "drop=0.3,dup=0.15,reorder=0.2"

let test_reliable_transport_survives_faults () =
  let spec =
    {
      Explore.default_spec with
      seed = 13;
      faults = lossy;
      reliable = true;
    }
  in
  let r = Explore.run_once spec (Explore.Script []) in
  Alcotest.(check bool) "completed" true (r.Explore.outcome = Explore.Completed);
  Alcotest.(check (list string)) "no violations" []
    (List.map
       (fun v -> v.Explore.invariant ^ ": " ^ v.Explore.detail)
       r.Explore.violations);
  Alcotest.(check bool) "retransmitted" true (r.Explore.retransmits > 0)

let test_unreliable_faults_degrade_without_wedging () =
  (* Without the transport, heavy loss may block the protocol — but each
     run must still terminate cleanly and never crash the engine. *)
  let spec =
    { Explore.default_spec with seed = 17; faults = Fault.of_string "drop=0.6" }
  in
  for i = 0 to 9 do
    let r = Explore.run_once spec (Explore.Walk i) in
    (match r.Explore.outcome with
    | Explore.Completed | Explore.Blocked _ -> ()
    | Explore.Event_limit -> Alcotest.failf "run %d hit the event limit" i
    | Explore.Crashed msg -> Alcotest.failf "run %d crashed: %s" i msg);
    Alcotest.(check (list string)) "no violations" []
      (List.map (fun v -> v.Explore.invariant) r.Explore.violations)
  done

let test_fault_plan_changes_runs () =
  let base = { Explore.default_spec with seed = 21 } in
  let clean = Explore.run_once base (Explore.Script []) in
  let faulty =
    Explore.run_once
      { base with faults = lossy; reliable = true }
      (Explore.Script [])
  in
  Alcotest.(check bool) "distinct fingerprints" true
    (clean.Explore.fingerprint <> faulty.Explore.fingerprint)

(* ---------- the planted-bug acceptance path ---------- *)

(* ISSUE 2 acceptance: a seeded, fault-injected run of a scenario with a
   known protocol bug planted behind a config flag must violate an
   invariant; the minimized replay token must reproduce the violation
   with a bit-identical fingerprint on two consecutive replays. *)
let test_planted_bug_found_minimized_replayed () =
  let spec =
    {
      Explore.default_spec with
      seed = 7;
      faults = Fault.of_string "drop=0.2,dup=0.1";
      reliable = true;
      bug = true;
    }
  in
  let stats = Explore.explore_random_in (Explore.create_ctx spec) ~runs:50 in
  match stats.Explore.first with
  | None -> Alcotest.fail "planted bug not found within 50 schedules"
  | Some (_, r) ->
      Alcotest.(check bool) "monitor fired" true
        (List.exists
           (fun v -> v.Explore.invariant = "get-window-atomicity")
           r.Explore.violations);
      let minimized = Explore.minimize spec r.Explore.decisions in
      Alcotest.(check bool) "minimized no longer than original" true
        (List.length minimized
        <= List.length (Token.trim_trailing_zeros r.Explore.decisions));
      let token = Token.make spec minimized in
      (* the token survives its own wire format *)
      let token =
        match Token.of_string (Token.to_string token) with
        | Ok t -> t
        | Error msg -> Alcotest.fail msg
      in
      let replay_exn token =
        match Explore.replay token with
        | Ok r -> r
        | Error msg -> Alcotest.fail ("replay rejected: " ^ msg)
      in
      let r1 = replay_exn token in
      let r2 = replay_exn token in
      Alcotest.(check bool) "replay violates" true
        (r1.Explore.violations <> []);
      Alcotest.(check string) "bit-identical fingerprints"
        r1.Explore.fingerprint r2.Explore.fingerprint

let test_no_bug_no_monitor_violation () =
  (* Same spec without the planted bug: the monitor must stay silent —
     the violation really is the bug, not the harness. *)
  let spec =
    {
      Explore.default_spec with
      seed = 7;
      faults = Fault.of_string "drop=0.2,dup=0.1";
      reliable = true;
    }
  in
  let stats = Explore.explore_random_in (Explore.create_ctx spec) ~runs:25 in
  Alcotest.(check int) "violations" 0 stats.Explore.violated

let test_exhaustive_finds_planted_bug () =
  let spec = { Explore.default_spec with seed = 1; bug = true } in
  let stats =
    Explore.explore_exhaustive_in (Explore.create_ctx spec)
      ~depth:4 ~max_runs:100
  in
  Alcotest.(check bool) "found" true (stats.Explore.first <> None)

(* ---------- differential: vector clocks vs. lockset ---------- *)

type which_workload = Random_w | Master_clean | Master_racy | Pipeline_w

let workload_name = function
  | Random_w -> "random"
  | Master_clean -> "master-worker"
  | Master_racy -> "master-worker-racy"
  | Pipeline_w -> "pipeline"

let setup_workload which env collectives ~seed =
  match which with
  | Random_w ->
      Dsm_workload.Random_access.setup env ~collectives
        {
          Dsm_workload.Random_access.default with
          ops_per_proc = 5;
          think_mean = 1.0;
          seed;
        }
  | Master_clean | Master_racy ->
      Dsm_workload.Master_worker.setup env ~collectives
        {
          Dsm_workload.Master_worker.default with
          tasks_per_worker = 2;
          racy = which = Master_racy;
          seed;
        }
  | Pipeline_w ->
      Dsm_workload.Pipeline.setup env
        { Dsm_workload.Pipeline.default with batches = 2; seed }

(* One explored schedule of one workload, with tracing on: every READ the
   vector-clock detector flags must be corroborated either by ground
   truth (an unordered conflicting pair on that granule — which always
   involves a write) or by lockset. A read flag with neither would be a
   read/read false positive the W-clock refinement (§4.4) exists to
   prevent. *)
let differential_one which ~schedule =
  let sim = Engine.create ~seed:11 () in
  let machine = Machine.create sim ~n:3 () in
  let config =
    {
      Config.default with
      Config.record_trace = true;
      granularity = Config.Word;
    }
  in
  let detector = Detector.create machine ~config () in
  let env = Env.checked detector in
  let collectives = Collectives.create env in
  setup_workload which env collectives ~seed:23;
  let chooser = Chooser.scripted [] in
  Chooser.reset_random chooser (Prng.create ~seed:((schedule * 2654435761) + 97));
  Engine.set_chooser sim (Some (Chooser.fn chooser));
  (match Machine.run machine with
  | Engine.Completed -> ()
  | o ->
      Alcotest.failf "%s schedule %d did not complete: %s"
        (workload_name which) schedule
        (match o with
        | Engine.Blocked k -> Printf.sprintf "blocked(%d)" k
        | _ -> "?"));
  let trace =
    match Detector.trace detector with
    | Some t -> t
    | None -> Alcotest.fail "trace recording was on"
  in
  let ground_truth = Dsm_trace.Trace.races trace in
  let lockset_words = Dsm_baselines.Lockset.racy_words trace in
  let granule_has_ground_truth (g : Dsm_memory.Addr.region) =
    List.exists
      (fun { Dsm_trace.Trace.first; second } ->
        Dsm_memory.Addr.overlap g first.Dsm_trace.Event.target
        || Dsm_memory.Addr.overlap g second.Dsm_trace.Event.target)
      ground_truth
  in
  let granule_in_lockset (g : Dsm_memory.Addr.region) =
    let node = g.Dsm_memory.Addr.base.pid in
    let lo = g.Dsm_memory.Addr.base.offset in
    let hi = lo + g.Dsm_memory.Addr.len in
    List.exists
      (fun (n, w) -> n = node && w >= lo && w < hi)
      lockset_words
  in
  List.iter
    (fun (r : Report.race) ->
      if r.Report.kind = Dsm_trace.Event.Read then
        let g = r.Report.granule in
        if not (granule_has_ground_truth g || granule_in_lockset g) then
          Alcotest.failf
            "%s schedule %d: read flagged at %s with no ground-truth race \
             and no lockset verdict"
            (workload_name which) schedule
            (Format.asprintf "%a" Dsm_memory.Addr.pp_region g))
    (Report.races (Detector.report detector))

let test_differential_50_schedules () =
  (* 50 explored schedules spread over the workload programs (the ISSUE 2
     differential satellite): 14+12+12+12. *)
  List.iter
    (fun (which, schedules) ->
      for schedule = 0 to schedules - 1 do
        differential_one which ~schedule
      done)
    [ (Random_w, 14); (Master_clean, 12); (Master_racy, 12); (Pipeline_w, 12) ]

(* ---------- reusable arenas ---------- *)

(* A run in a reused ctx must be bit-identical to one in a fresh engine +
   machine, including after runs that ended early (Blocked, Event_limit)
   and could leave half-finished protocol state behind for the reset to
   clean up. *)
let test_ctx_reuse_bit_identical () =
  List.iter
    (fun (label, spec) ->
      let ctx = Explore.create_ctx spec in
      for i = 0 to 7 do
        let reused = Explore.run_once_in ctx (Explore.Walk i) in
        let fresh = Explore.run_once spec (Explore.Walk i) in
        Alcotest.(check bool)
          (Printf.sprintf "%s walk %d outcome" label i)
          true
          (fresh.Explore.outcome = reused.Explore.outcome);
        Alcotest.(check string)
          (Printf.sprintf "%s walk %d fingerprint" label i)
          fresh.Explore.fingerprint reused.Explore.fingerprint
      done)
    [
      ("clean", { Explore.default_spec with seed = 9 });
      ( "lossy, may block",
        {
          Explore.default_spec with
          seed = 17;
          faults = Fault.of_string "drop=0.6";
        } );
      ( "event-limit",
        { Explore.default_spec with seed = 5; max_events = 300 } );
    ]

(* Explore's per-run digests against fixed values, not only run against
   run: one MD5 over the fingerprint and canonical summary of every run
   in each batch below. A batch covers walks with races, a planted bug
   whose monitor report is non-empty, the RMW scenarios (whose monitor
   replays the serial spec) and a run cut off by its event budget. *)
let constant1 = Dsm_net.Latency.of_string "constant:1" |> Result.get_ok

(* Checks the MD5 of walks [0, walks) of [spec] and returns the runs. *)
let pin_digests label spec ~walks want =
  let ctx = Explore.create_ctx spec in
  let runs =
    List.init walks (fun i -> Explore.run_once_in ctx (Explore.Walk i))
  in
  let text =
    String.concat ""
      (List.map
         (fun (r : Explore.run_result) ->
           r.fingerprint ^ "\n" ^ r.canon ^ "\n")
         runs)
  in
  Alcotest.(check string) label want (Digest.to_hex (Digest.string text));
  runs

(* A raw keeps what its digests are built from, captured when its run
   ended: built after the arena has run another walk, its fingerprint
   and canon are still the run's own, as a fresh ctx gives them. *)
let test_late_digests () =
  (* constant latency ties deliveries, so walks take different schedules *)
  let spec =
    { Explore.default_spec with scenario = "getput-checked"; latency = constant1 }
  in
  let fresh = Explore.run_once spec (Explore.Walk 3) in
  Alcotest.(check bool) "the walk raced" true (fresh.races > 0);
  let ctx = Explore.create_ctx spec in
  let r = Explore.exec_checked ctx (Explore.Walk 3) in
  (* later walks in the arena, up to the first that ends differently *)
  let rec run_until_different i =
    if i > 64 then Alcotest.fail "no walk ends differently"
    else
      let next = Explore.result_of ctx (Explore.exec_checked ctx (Explore.Walk i)) in
      if next.fingerprint = fresh.fingerprint then run_until_different (i + 1)
  in
  run_until_different 4;
  let late = Explore.result_of ctx r in
  Alcotest.(check string) "fingerprint" fresh.fingerprint late.fingerprint;
  Alcotest.(check string) "canon" fresh.canon (Explore.raw_canon r);
  Alcotest.(check string) "canon via result_of" fresh.canon late.canon

let test_run_digests_pinned () =
  ignore
    (pin_digests "workload:random n=3, walks 0-49"
       { Explore.default_spec with scenario = "workload:random"; n = 3 }
       ~walks:50 "57768d500b5e83336ce290966d99dca2");
  let bug =
    pin_digests "getput-checked bug"
      {
        Explore.default_spec with
        scenario = "getput-checked";
        latency = constant1;
        bug = true;
      }
      ~walks:20 "56d1e9a39ff575a3ce6731627b3412e0"
  in
  Alcotest.(check bool) "getput-checked bug: a monitor report" true
    (List.exists
       (fun (r : Explore.run_result) ->
         List.exists
           (fun v -> v.Explore.invariant = "get-window-atomicity")
           r.violations)
       bug);
  ignore
    (pin_digests "rmwlost-checked n=3"
       {
         Explore.default_spec with
         scenario = "rmwlost-checked";
         n = 3;
         latency = constant1;
       }
       ~walks:10 "5ef98165af9b6a987f691d48f361eae7");
  ignore
    (pin_digests "workload:rmw-mix n=3"
       { Explore.default_spec with scenario = "workload:rmw-mix"; n = 3 }
       ~walks:10 "f853e45c5c1bf52954eb361ad1ba1c4c");
  let cut =
    pin_digests "workload:random n=3, max_events 100"
      {
        Explore.default_spec with
        scenario = "workload:random";
        n = 3;
        max_events = 100;
      }
      ~walks:1 "717a350139649bce09450fca0577eeb2"
  in
  Alcotest.(check bool) "cut run ends at the event limit" true
    (List.map (fun (r : Explore.run_result) -> r.outcome) cut
    = [ Explore.Event_limit ])

(* The walk loop reuses the arena's decision buffers: after a warm-up
   batch a batch of runs must allocate exactly as much as the identical
   batch before it (runs are deterministic, so a buffer that still grows
   or any per-run leak shows as extra words). Words are counted
   exactly, so the check needs no slack. *)
let test_no_per_run_leak () =
  let spec = { Explore.default_spec with seed = 3 } in
  let ctx = Explore.create_ctx spec in
  let batch () =
    for i = 0 to 19 do
      ignore (Explore.run_once_in ctx (Explore.Walk (i mod 5)))
    done
  in
  batch ();
  let (), b1 = Test_util.allocated_words batch in
  let (), b2 = Test_util.allocated_words batch in
  Alcotest.(check (float 0.)) "no per-batch allocation growth" b1 b2

(* ---------- determinism under parallelism ---------- *)

module Parallel = Dsm_explore.Parallel

let mode_str = function
  | Explore.Walk i -> Printf.sprintf "walk %d" i
  | Explore.Script ds ->
      "script " ^ String.concat "," (List.map string_of_int ds)

let check_stats_equal label (a : Explore.stats) (b : Explore.stats) =
  Alcotest.(check int) (label ^ ": runs") a.Explore.runs b.Explore.runs;
  Alcotest.(check int)
    (label ^ ": violated")
    a.Explore.violated b.Explore.violated;
  match (a.Explore.first, b.Explore.first) with
  | None, None -> ()
  | Some (m, r), Some (m', r') ->
      Alcotest.(check string) (label ^ ": first mode") (mode_str m)
        (mode_str m');
      Alcotest.(check (list int))
        (label ^ ": first decisions")
        r.Explore.decisions r'.Explore.decisions;
      Alcotest.(check string)
        (label ^ ": first fingerprint")
        r.Explore.fingerprint r'.Explore.fingerprint
  | Some _, None -> Alcotest.fail (label ^ ": parallel lost the violation")
  | None, Some _ -> Alcotest.fail (label ^ ": parallel invented a violation")

let minimized_token spec (stats : Explore.stats) =
  match stats.Explore.first with
  | None -> Alcotest.fail "expected a violation to minimize"
  | Some (_, r) ->
      Token.to_string
        (Token.make spec (Explore.minimize spec r.Explore.decisions))

(* Under a reliable transport at drop=0.65, seed 1's walk 15 is the
   first whose retransmission schedule exhausts a frame's retry budget:
   a violation deep in the batch, so jobs claiming indices out of order
   must still agree on the minimum. *)
let late_violation_spec =
  {
    Explore.default_spec with
    seed = 1;
    faults = Fault.of_string "drop=0.65";
    reliable = true;
  }

let planted_bug_spec =
  {
    Explore.default_spec with
    seed = 7;
    faults = Fault.of_string "drop=0.2,dup=0.1";
    reliable = true;
    bug = true;
  }

let test_parallel_walks_identical () =
  List.iter
    (fun (label, spec, runs) ->
      let seq = Explore.explore_random_in (Explore.create_ctx spec) ~runs in
      let tok =
        if seq.Explore.violated > 0 then Some (minimized_token spec seq)
        else None
      in
      List.iter
        (fun jobs ->
          let par = Parallel.explore_random ~jobs spec ~runs in
          check_stats_equal (Printf.sprintf "%s, jobs %d" label jobs) seq par;
          match tok with
          | Some t ->
              Alcotest.(check string)
                (Printf.sprintf "%s, jobs %d: minimized token" label jobs)
                t
                (minimized_token spec par)
          | None -> ())
        [ 1; 2; 4 ])
    [
      ("clean", { Explore.default_spec with seed = 3 }, 25);
      ("planted bug", planted_bug_spec, 50);
      ("late violation", late_violation_spec, 25);
    ]

let test_parallel_walks_full_batch () =
  (* stop_on_first off: every index executes; the violation count and the
     minimum violating index must agree with the sequential sweep. *)
  List.iter
    (fun jobs ->
      let seq =
        Explore.explore_random_in ~stop_on_first:false
          (Explore.create_ctx late_violation_spec) ~runs:25
      in
      let par =
        Parallel.explore_random ~stop_on_first:false ~jobs late_violation_spec
          ~runs:25
      in
      Alcotest.(check bool) "found violations" true (seq.Explore.violated > 0);
      check_stats_equal (Printf.sprintf "full batch, jobs %d" jobs) seq par)
    [ 2; 4 ]

let test_parallel_exhaustive_identical () =
  List.iter
    (fun (label, spec, depth, max_runs) ->
      let seq =
        Explore.explore_exhaustive_in (Explore.create_ctx spec) ~depth ~max_runs
      in
      List.iter
        (fun jobs ->
          let par = Parallel.explore_exhaustive ~jobs spec ~depth ~max_runs in
          check_stats_equal (Printf.sprintf "%s, jobs %d" label jobs) seq par)
        [ 1; 2; 4 ])
    [
      ("clean", { Explore.default_spec with seed = 2 }, 6, 50);
      ( "planted bug",
        { Explore.default_spec with seed = 1; bug = true },
        4,
        100 );
      ("deep violation", late_violation_spec, 6, 100);
      ( "cap-limited",
        {
          Explore.default_spec with
          seed = 4;
          faults = Fault.of_string "drop=0.64";
          reliable = true;
        },
        10,
        120 );
      (* the cap holds from the root on: no run, then the root alone *)
      ("no runs", Explore.default_spec, 6, 0);
      ("root only", Explore.default_spec, 6, 1);
    ]

(* ---------- chunked claims and persistent pools ---------- *)

let test_parallel_chunk_identity () =
  (* the jobs x chunk matrix: every combination must report the very
     same stats, fingerprints and minimized token as the sequential
     sweep — chunking changes only how walk indices are claimed *)
  List.iter
    (fun (label, spec, runs) ->
      let seq = Explore.explore_random_in (Explore.create_ctx spec) ~runs in
      let tok =
        if seq.Explore.violated > 0 then Some (minimized_token spec seq)
        else None
      in
      List.iter
        (fun jobs ->
          List.iter
            (fun chunk ->
              let par = Parallel.explore_random ~jobs ~chunk spec ~runs in
              let l = Printf.sprintf "%s, jobs %d, chunk %d" label jobs chunk in
              check_stats_equal l seq par;
              match tok with
              | Some t ->
                  Alcotest.(check string)
                    (l ^ ": minimized token")
                    t (minimized_token spec par)
              | None -> ())
            [ 1; 64; 256 ])
        [ 1; 2; 4 ])
    [
      ("clean", { Explore.default_spec with seed = 3 }, 25);
      ("planted bug", planted_bug_spec, 50);
    ]

let test_parallel_chunk_rejected () =
  List.iter
    (fun chunk ->
      match
        Parallel.explore_random ~jobs:2 ~chunk Explore.default_spec ~runs:5
      with
      | _ -> Alcotest.fail "chunk < 1 accepted"
      | exception Invalid_argument _ -> ())
    [ 0; -3 ]

let test_pool_reused_across_batches () =
  (* one pool, several batches: arenas stay hot between jobs yet every
     batch matches a fresh sequential sweep bit for bit — including a
     batch of a different spec, which must rebuild the worker arenas *)
  let clean = { Explore.default_spec with seed = 3 } in
  let seq_clean =
    Explore.explore_random_in (Explore.create_ctx clean) ~runs:25
  in
  let seq_bug =
    Explore.explore_random_in (Explore.create_ctx planted_bug_spec) ~runs:30
  in
  Parallel.Pool.with_pool ~jobs:4 (fun pool ->
      let p1 = Parallel.explore_random ~pool ~jobs:4 clean ~runs:25 in
      check_stats_equal "pool, batch 1" seq_clean p1;
      let p2 = Parallel.explore_random ~pool ~jobs:4 ~chunk:1 clean ~runs:25 in
      check_stats_equal "pool, batch 2 (chunk 1, hot arena)" seq_clean p2;
      let p3 =
        Parallel.explore_random ~pool ~jobs:4 planted_bug_spec ~runs:30
      in
      check_stats_equal "pool, batch 3 (spec change)" seq_bug p3)

(* ---------- sleep-set DPOR ---------- *)

module Dpor = Dsm_explore.Dpor

(* Fault-free specs whose same-instant ties make the schedule tree
   genuinely branch (the planted-bug row is the Skip_get_dst_lock
   protocol bug). Depths and caps chosen so both searches finish the
   bounded tree — the canon-set equality below presumes neither was
   truncated by [max_runs]. *)
let dpor_specs =
  [
    ( "getput, tied deliveries",
      {
        Explore.default_spec with
        latency = Dsm_net.Latency.Constant 1.0;
      },
      6,
      false );
    ( "getput, planted Skip_get_dst_lock",
      {
        Explore.default_spec with
        latency = Dsm_net.Latency.Constant 1.0;
        bug = true;
      },
      6,
      true );
    ( "workload:scale",
      { Explore.default_spec with scenario = "workload:scale"; n = 4 },
      10,
      false );
    ( "workload:master-worker-racy",
      {
        Explore.default_spec with
        scenario = "workload:master-worker-racy";
        n = 3;
      },
      10,
      false );
    (* the RMW workloads: CAS/fetch_add/accumulate races must survive
       sleep-set pruning — every pruned schedule keeps an explored
       representative with the same race set *)
    ( "workload:histogram-racy",
      {
        Explore.default_spec with
        scenario = "workload:histogram-racy";
        n = 4;
      },
      12,
      false );
    ( "workload:deque-racy",
      {
        Explore.default_spec with
        scenario = "workload:deque-racy";
        n = 3;
      },
      12,
      false );
    ( "workload:allreduce-racy",
      {
        Explore.default_spec with
        scenario = "workload:allreduce-racy";
        n = 3;
        latency = Dsm_net.Latency.Constant 1.0;
      },
      8,
      false );
  ]

let test_dpor_prunes_and_preserves_findings () =
  List.iter
    (fun (label, spec, depth, expect_violation) ->
      let full =
        Dpor.explore ~dpor:false ~stop_on_first:false ~max_runs:2000 spec
          ~depth
      in
      let red =
        Dpor.explore ~stop_on_first:false ~max_runs:2000 spec ~depth
      in
      Alcotest.(check bool)
        (label ^ ": full search explored the whole tree")
        true
        (full.Dpor.runs < 2000);
      Alcotest.(check bool)
        (label ^ ": DPOR explored strictly fewer runs")
        true
        (red.Dpor.runs < full.Dpor.runs);
      Alcotest.(check bool)
        (label ^ ": DPOR pruned something")
        true (red.Dpor.pruned > 0);
      Alcotest.(check int)
        (label ^ ": full search pruned nothing")
        0 full.Dpor.pruned;
      Alcotest.(check (list string))
        (label ^ ": canonical fingerprint sets equal")
        full.Dpor.canons red.Dpor.canons;
      Alcotest.(check bool)
        (label ^ ": violation presence preserved")
        (full.Dpor.violated > 0)
        (red.Dpor.violated > 0);
      if expect_violation then
        Alcotest.(check bool)
          (label ^ ": planted bug still found under pruning")
          true
          (red.Dpor.violated > 0))
    dpor_specs

let test_dpor_matches_exhaustive_when_off () =
  (* dpor:false must be the bounded-exhaustive DFS, run for run *)
  let spec =
    {
      Explore.default_spec with
      latency = Dsm_net.Latency.Constant 1.0;
    }
  in
  let dfs =
    Explore.explore_exhaustive_in (Explore.create_ctx spec)
      ~depth:6 ~max_runs:2000
  in
  let off = Dpor.explore ~dpor:false ~max_runs:2000 spec ~depth:6 in
  Alcotest.(check int) "runs" dfs.Explore.runs off.Dpor.runs;
  Alcotest.(check int) "violated" dfs.Explore.violated off.Dpor.violated

let test_dpor_counts_pinned () =
  (* runs/pruned as measured before the search shared the explorer's DFS
     loop. DPOR counts prunes while it expands a run, so these move if
     the loop stops expanding the run that reaches the cap *)
  let mw =
    {
      Explore.default_spec with
      scenario = "workload:master-worker-racy";
      n = 3;
    }
  in
  List.iter
    (fun (max_runs, runs, pruned) ->
      let st = Dpor.explore ~stop_on_first:false ~max_runs mw ~depth:10 in
      let l = Printf.sprintf "master-worker-racy, max_runs %d" max_runs in
      Alcotest.(check int) (l ^ ": runs") runs st.Dpor.runs;
      Alcotest.(check int) (l ^ ": pruned") pruned st.Dpor.pruned)
    [ (2, 2, 7); (3, 3, 14); (6, 6, 35); (2000, 77, 35) ];
  let full =
    Explore.explore_exhaustive_in (Explore.create_ctx mw) ~depth:10
      ~max_runs:2000
  in
  Alcotest.(check int) "master-worker-racy: full DFS runs" 432
    full.Explore.runs;
  let tied =
    { Explore.default_spec with latency = Dsm_net.Latency.Constant 1.0 }
  in
  let st = Dpor.explore tied ~depth:6 in
  Alcotest.(check int) "tied getput: runs" 3 st.Dpor.runs;
  Alcotest.(check int) "tied getput: pruned" 1 st.Dpor.pruned;
  let full = Explore.explore_exhaustive_in (Explore.create_ctx tied) ~depth:6 in
  Alcotest.(check int) "tied getput: full DFS runs" 4 full.Explore.runs

let test_dpor_pruned_replay_covered () =
  (* the soundness property, checked the hard way: replay every pruned
     schedule and find its canonical fingerprint among the runs the
     reduced search did execute *)
  List.iter
    (fun (label, spec, depth, _) ->
      let red =
        Dpor.explore ~stop_on_first:false ~max_runs:2000 spec ~depth
      in
      Alcotest.(check int)
        (label ^ ": one ledger entry per pruned schedule")
        red.Dpor.pruned
        (List.length red.Dpor.pruned_prefixes);
      let ctx = Explore.create_ctx spec in
      List.iter
        (fun prefix ->
          let r = Explore.exec_checked ctx (Explore.Script prefix) in
          let canon = Explore.raw_canon r in
          Alcotest.(check bool)
            (Printf.sprintf "%s: pruned %s has an explored representative"
               label
               (String.concat "," (List.map string_of_int prefix)))
            true
            (List.mem canon red.Dpor.canons))
        red.Dpor.pruned_prefixes)
    dpor_specs

let test_dpor_disabled_under_faults () =
  (* fault draws share a PRNG stream, so commutation is unsound there:
     the search must fall back to the full DFS silently *)
  let spec =
    {
      Explore.default_spec with
      seed = 4;
      faults = Fault.of_string "drop=0.3";
      reliable = true;
    }
  in
  let full = Dpor.explore ~dpor:false ~stop_on_first:false ~max_runs:200 spec ~depth:4 in
  let red = Dpor.explore ~stop_on_first:false ~max_runs:200 spec ~depth:4 in
  Alcotest.(check int) "same runs" full.Dpor.runs red.Dpor.runs;
  Alcotest.(check int) "nothing pruned" 0 red.Dpor.pruned;
  Alcotest.(check (list string)) "same canons" full.Dpor.canons red.Dpor.canons

(* ---------- replay rejects a mismatched token ---------- *)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_replay_rejects_undersized_token () =
  (* A hand-edited token declaring fewer processes than the scenario
     needs must come back as a clean [Error], not an exception. *)
  match
    Token.of_string "dsm1|s=getput|n=1|seed=7|f=none|r=0|b=1|me=200000|d=1,2"
  with
  | Error msg -> Alcotest.fail ("token should parse: " ^ msg)
  | Ok t -> (
      match Explore.replay t with
      | Ok _ -> Alcotest.fail "replay accepted an n=1 getput token"
      | Error msg ->
          Alcotest.(check bool)
            ("error names the minimum: " ^ msg)
            true
            (contains msg "at least 2"))

(* ---------- registration ---------- *)

let () =
  Alcotest.run "explore"
    [
      ( "token",
        [
          Alcotest.test_case "roundtrip" `Quick test_token_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_token_rejects_garbage;
          Alcotest.test_case "trim zeros" `Quick test_trim_trailing_zeros;
          Alcotest.test_case "rejects malformed spec" `Quick
            test_token_rejects_malformed_spec;
          Alcotest.test_case "print stability" `Quick
            test_token_print_stability;
          QCheck_alcotest.to_alcotest prop_token_roundtrip;
          QCheck_alcotest.to_alcotest prop_token_fuzz;
        ] );
      ( "chooser",
        [ Alcotest.test_case "scripted clamps" `Quick test_chooser_scripted_clamps ] );
      ( "invariants",
        [
          Alcotest.test_case "getput clean" `Quick test_getput_clean_schedules;
          Alcotest.test_case "workloads clean" `Slow test_workloads_clean_schedules;
          Alcotest.test_case "exhaustive clean" `Quick test_exhaustive_clean;
          Alcotest.test_case "walk = replay" `Quick test_walk_replay_identical;
          Alcotest.test_case "perturbed replay caught" `Quick
            test_replay_perturbation_caught;
        ] );
      ( "faults",
        [
          Alcotest.test_case "reliable survives" `Quick
            test_reliable_transport_survives_faults;
          Alcotest.test_case "unreliable degrades" `Quick
            test_unreliable_faults_degrade_without_wedging;
          Alcotest.test_case "plan changes run" `Quick test_fault_plan_changes_runs;
        ] );
      ( "planted-bug",
        [
          Alcotest.test_case "found, minimized, replayed" `Quick
            test_planted_bug_found_minimized_replayed;
          Alcotest.test_case "absent without flag" `Quick
            test_no_bug_no_monitor_violation;
          Alcotest.test_case "exhaustive finds it" `Quick
            test_exhaustive_finds_planted_bug;
        ] );
      ( "arena",
        [
          Alcotest.test_case "ctx reuse bit-identical" `Quick
            test_ctx_reuse_bit_identical;
          Alcotest.test_case "no per-run leak" `Quick test_no_per_run_leak;
          Alcotest.test_case "run digests pinned" `Quick
            test_run_digests_pinned;
          Alcotest.test_case "digests built after the next walk" `Quick
            test_late_digests;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "walks identical across jobs" `Quick
            test_parallel_walks_identical;
          Alcotest.test_case "full batch identical across jobs" `Quick
            test_parallel_walks_full_batch;
          Alcotest.test_case "exhaustive identical across jobs" `Quick
            test_parallel_exhaustive_identical;
          Alcotest.test_case "jobs x chunk identity matrix" `Slow
            test_parallel_chunk_identity;
          Alcotest.test_case "chunk < 1 rejected" `Quick
            test_parallel_chunk_rejected;
          Alcotest.test_case "pool reused across batches" `Quick
            test_pool_reused_across_batches;
        ] );
      ( "dpor",
        [
          Alcotest.test_case "prunes, findings preserved" `Quick
            test_dpor_prunes_and_preserves_findings;
          Alcotest.test_case "counts pinned" `Quick test_dpor_counts_pinned;
          Alcotest.test_case "off = exhaustive DFS" `Quick
            test_dpor_matches_exhaustive_when_off;
          Alcotest.test_case "every pruned schedule covered" `Slow
            test_dpor_pruned_replay_covered;
          Alcotest.test_case "disabled under faults" `Quick
            test_dpor_disabled_under_faults;
        ] );
      ( "replay-mismatch",
        [
          Alcotest.test_case "rejects undersized token" `Quick
            test_replay_rejects_undersized_token;
        ] );
      ( "differential",
        [
          Alcotest.test_case "clocks vs lockset, 50 schedules" `Slow
            test_differential_50_schedules;
        ] );
    ]
