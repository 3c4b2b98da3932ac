(* The live-telemetry layer: metrics-registry semantics (counters,
   log-bucket histograms, in-place reset, order-insensitive merge), the
   Perfetto exporter's structural contract on a figure scenario, and the
   sink-invariance property that keeps telemetry read-only with respect
   to the simulation. *)

module Probe = Dsm_obs.Probe
module Metrics = Dsm_obs.Metrics
module Meter = Dsm_obs.Meter
module Flight = Dsm_obs.Flight
module Timeline = Dsm_obs.Timeline
module Trace_json = Dsm_obs.Trace_json
module Json_writer = Dsm_obs.Json_writer
module Machine = Dsm_rdma.Machine
module Explore = Dsm_explore.Explore
module Parallel = Dsm_explore.Parallel
module Fault = Dsm_net.Fault

(* ---------- metrics: counters ---------- *)

let test_counter_semantics () =
  let r = Metrics.create () in
  let c = Metrics.counter r "a.count" in
  Alcotest.(check int) "fresh" 0 (Metrics.value c);
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "incr+add" 5 (Metrics.value c);
  (* find-or-create returns the same instrument *)
  let c' = Metrics.counter r "a.count" in
  Metrics.incr c';
  Alcotest.(check int) "same instrument" 6 (Metrics.value c);
  Alcotest.(check (list (pair string int))) "named" [ ("a.count", 6) ]
    (Metrics.snapshot r).Metrics.counters;
  Alcotest.check_raises "negative add"
    (Invalid_argument "Metrics.add: counters are monotonic") (fun () ->
      Metrics.add c (-1))

let test_histogram_semantics () =
  let r = Metrics.create () in
  let h = Metrics.histogram r "lat" in
  List.iter (Metrics.observe h) [ 0; 1; 5; 5; 100 ];
  let snap = Metrics.snapshot r in
  match snap.Metrics.histograms with
  | [ ("lat", s) ] ->
      Alcotest.(check int) "count" 5 s.Metrics.count;
      Alcotest.(check int) "sum" 111 s.Metrics.sum;
      Alcotest.(check int) "min" 0 s.Metrics.min;
      Alcotest.(check int) "max" 100 s.Metrics.max;
      (* 0 -> bucket 0; 1 -> [1,2); 5,5 -> [4,8); 100 -> [64,128) *)
      Alcotest.(check (list (pair int int)))
        "buckets"
        [ (0, 1); (1, 1); (4, 2); (64, 1) ]
        s.Metrics.bucket_counts;
      Alcotest.(check (float 0.01)) "mean" 22.2 (Metrics.mean s)
  | _ -> Alcotest.fail "expected exactly one histogram"

let test_reset_in_place () =
  let r = Metrics.create () in
  let c = Metrics.counter r "c" in
  let h = Metrics.histogram r "h" in
  Metrics.add c 7;
  Metrics.observe h 3;
  Metrics.reset r;
  Alcotest.(check int) "counter zeroed" 0 (Metrics.value c);
  let snap = Metrics.snapshot r in
  (match snap.Metrics.histograms with
  | [ ("h", s) ] ->
      Alcotest.(check int) "histogram zeroed" 0 s.Metrics.count;
      Alcotest.(check (list (pair int int))) "no buckets" [] s.Metrics.bucket_counts
  | _ -> Alcotest.fail "histogram instrument lost by reset");
  (* handles stay valid: the same instruments keep counting *)
  Metrics.incr c;
  Metrics.observe h 1;
  Alcotest.(check int) "counter alive" 1 (Metrics.value c)

let test_merge_order_insensitive () =
  let mk specs =
    let r = Metrics.create () in
    List.iter
      (fun (name, v) ->
        if v >= 0 then Metrics.add (Metrics.counter r name) v
        else Metrics.observe (Metrics.histogram r name) (-v))
      specs;
    r
  in
  let parts () =
    [
      mk [ ("runs", 3); ("lat", -5); ("steps", 10) ];
      mk [ ("runs", 2); ("lat", -9) ];
      mk [ ("violations", 1); ("lat", -1); ("steps", 4) ];
    ]
  in
  let merge order =
    let into = Metrics.create () in
    List.iter (fun src -> Metrics.merge_into ~into src) order;
    Metrics.to_json_string (Metrics.snapshot into)
  in
  let a = merge (parts ()) in
  let b = merge (List.rev (parts ())) in
  Alcotest.(check string) "merge order" a b;
  (* and the aggregate is the element-wise sum / min / max *)
  let into = Metrics.create () in
  List.iter (fun src -> Metrics.merge_into ~into src) (parts ());
  Alcotest.(check int) "summed" 5 (Metrics.value (Metrics.counter into "runs"));
  match (Metrics.snapshot into).Metrics.histograms with
  | [ ("lat", s) ] ->
      Alcotest.(check int) "hist count" 3 s.Metrics.count;
      Alcotest.(check int) "hist min" 1 s.Metrics.min;
      Alcotest.(check int) "hist max" 9 s.Metrics.max
  | _ -> Alcotest.fail "merged histogram lost"

(* ---------- probe bus basics ---------- *)

(* An event reaches the sinks subscribed to its class, in attach order,
   and [on] holds exactly the subscribed classes' bits. *)
let test_probe_attach () =
  let bus = Probe.create () in
  Alcotest.(check int) "silent" 0 bus.Probe.on;
  let hits = ref [] in
  let sink name ev = hits := (name, ev) :: !hits in
  Probe.attach bus Probe.check (sink "check");
  Probe.attach bus Probe.(msg lor check) (sink "msg+check");
  Probe.attach bus Probe.apply (sink "apply");
  Alcotest.(check int) "on" Probe.(check lor msg lor apply) bus.Probe.on;
  let merge = Probe.Clock_merge { time = 1.0; pid = 0 } in
  let served =
    Probe.Read_served { time = 2.0; node = 1; offset = 0; data = [| 7 |]; origin = 0 }
  in
  Probe.emit bus merge;
  Probe.emit bus served;
  Alcotest.(check bool) "routed by class, in attach order" true
    (List.rev !hits
    = [ ("check", merge); ("msg+check", merge); ("apply", served) ]);
  Alcotest.check_raises "no class" (Invalid_argument "Probe.attach: no class")
    (fun () -> Probe.attach bus 0 ignore)

(* ---------- Perfetto exporter: golden figure scenario ---------- *)

(* fig5a is deterministic, so the exported timeline's shape is an exact
   number: the structural validator must accept it, every fabric message
   must appear as a matched flow pair, and the race the figure plants
   must surface as a race-signal instant. *)
let run_figure name =
  let sim = Dsm_sim.Engine.create () in
  let m = Machine.create sim ~n:4 () in
  let tl = Timeline.attach (Dsm_sim.Engine.probe sim) in
  (match Dsm_experiments.Figures.build_figure name m with
  | Error e -> Alcotest.fail e
  | Ok _ -> ());
  (match Machine.run m with
  | Dsm_sim.Engine.Completed -> ()
  | _ -> Alcotest.fail "figure did not complete");
  (m, Timeline.to_json_string tl)

let test_perfetto_golden () =
  let m, doc = run_figure "fig5a" in
  match Trace_json.validate_trace doc with
  | Error e -> Alcotest.fail e
  | Ok s ->
      Alcotest.(check int) "flows = messages" (Machine.fabric_messages m)
        s.Trace_json.flows;
      Alcotest.(check int) "lanes" 4 s.Trace_json.lanes;
      Alcotest.(check int) "slices" 26 s.Trace_json.slices;
      Alcotest.(check int) "instants" 4 s.Trace_json.instants;
      Alcotest.(check bool) "race instant" true
        (let rec mem_race = function
           | Trace_json.Obj fields ->
               List.exists (fun (_, v) -> mem_race v) fields
               || List.exists
                    (fun (k, v) -> k = "name" && v = Trace_json.Str "race signal")
                    fields
           | Trace_json.Arr l -> List.exists mem_race l
           | _ -> false
         in
         mem_race (Trace_json.parse doc))

(* A checked put from public b@P1 to a@P0 under Piggyback_txn holds its
   read lock on b and its write lock on a at the same time: the timeline
   must draw one lock slice per range, not one per process. *)
let test_txn_locks_two_slices () =
  let sim = Dsm_sim.Engine.create () in
  let m = Machine.create sim ~n:2 () in
  let tl = Timeline.attach (Dsm_sim.Engine.probe sim) in
  let d =
    Dsm_core.Detector.create m
      ~config:
        {
          Dsm_core.Config.default with
          transport = Dsm_core.Config.Piggyback_txn;
        }
      ()
  in
  let a = Machine.alloc_public m ~pid:0 ~name:"a" ~len:1 () in
  let b = Machine.alloc_public m ~pid:1 ~name:"b" ~len:1 () in
  Dsm_core.Detector.register d a;
  Dsm_core.Detector.register d b;
  Machine.spawn m ~pid:1 ~name:"putter" (fun p ->
      Dsm_core.Detector.put d p ~src:b ~dst:a);
  (match Machine.run m with
  | Dsm_sim.Engine.Completed -> ()
  | _ -> Alcotest.fail "put did not complete");
  let lock_slices =
    String.split_on_char '\n' (Timeline.to_json_string tl)
    |> List.filter (fun line ->
           String.starts_with ~prefix:{|{"ph":"X"|} line
           && Test_util.contains line {|"cat":"lock"|})
  in
  Alcotest.(check int) "lock slices" 2 (List.length lock_slices)

let test_validator_rejects_malformed () =
  List.iter
    (fun (label, doc) ->
      match Trace_json.validate_trace doc with
      | Ok _ -> Alcotest.failf "validator accepted %s" label
      | Error _ -> ())
    [
      ("no traceEvents", {|{"foo": []}|});
      ("slice without dur", {|{"traceEvents":[{"ph":"X","pid":0,"name":"a","ts":1}]}|});
      ( "unmatched flow finish",
        {|{"traceEvents":[{"ph":"f","pid":0,"name":"a","ts":1,"id":9,"bp":"e"}]}|}
      );
      ("trailing garbage", {|{"traceEvents":[]} trailing|});
    ]

(* ---------- sink invariance ---------- *)

(* Walk [walk] of [spec] with a flight ring attached: alone, or beside a
   meter, a second coherence checker and a sink of the message class,
   all attached after a first run built the arena (the scenario's own
   checker and getput monitor sit on the bus either way). Returns the
   fingerprint, the ring's window, and the message sink's count of
   messages and of events of any other class. *)
let flight_walk ~beside spec walk =
  let ctx =
    if beside then Explore.create_ctx ~metrics:(Metrics.create ()) spec
    else Explore.create_ctx spec
  in
  let bus = Explore.ctx_probe ctx in
  let msgs = ref 0 and stray = ref 0 in
  if beside then begin
    ignore (Explore.run_once_in ctx (Explore.Walk walk));
    Option.iter
      (fun (b : Dsm_explore.Scenario.built) ->
        ignore (Dsm_rdma.Coherence.attach b.machine))
      (Explore.last_built ctx);
    Probe.attach bus Probe.msg (function
      | Probe.Msg_sent _ | Msg_delivered _ -> incr msgs
      | _ -> incr stray)
  end;
  let flight = Flight.attach bus in
  let r = Explore.run_once_in ctx (Explore.Walk walk) in
  (r.Explore.fingerprint, Flight.events flight, !msgs, !stray)

(* Attaching a timeline and a meter to a run must not change what the
   run does: same schedule decisions, same fingerprint (which digests
   the outcome, times, detector report, and monitor output). And a sink
   receives only the classes it names: on a [getput-checked] walk and a
   [workload:random] walk, a flight ring alone and one beside other
   sinks hold equal windows, and a message-class sink sees nothing but
   messages. *)
let prop_sink_invariance =
  QCheck.Test.make ~name:"sinks never change a run" ~count:25
    QCheck.(pair (int_bound 500) bool)
    (fun (walk, lossy) ->
      let isolated spec =
        let fp, window, _, _ = flight_walk ~beside:false spec walk in
        let fp', window', msgs, stray = flight_walk ~beside:true spec walk in
        fp = fp' && window <> [] && window = window' && msgs > 0 && stray = 0
      in
      let getput =
        { Explore.default_spec with scenario = "getput-checked"; seed = 11 }
      in
      let random =
        { getput with scenario = "workload:random"; n = 3 }
      in
      let spec =
        {
          Explore.default_spec with
          seed = 11;
          faults =
            (if lossy then Fault.of_string "drop=0.1,dup=0.05" else Fault.none);
          reliable = lossy;
        }
      in
      let plain = Explore.run_once spec (Explore.Walk walk) in
      let ctx = Explore.create_ctx ~metrics:(Metrics.create ()) spec in
      ignore (Timeline.attach (Explore.ctx_probe ctx));
      let observed = Explore.run_once_in ctx (Explore.Walk walk) in
      plain.Explore.fingerprint = observed.Explore.fingerprint
      && plain.Explore.decisions = observed.Explore.decisions
      && plain.Explore.races = observed.Explore.races
      && isolated getput && isolated random)

(* ---------- metrics across the explorer ---------- *)

let getput_spec = { Explore.default_spec with seed = 9 }

let test_arena_metrics_reset_in_place () =
  let reg = Metrics.create () in
  let ctx = Explore.create_ctx ~metrics:reg getput_spec in
  let runs = Metrics.counter reg "explore.runs" in
  ignore (Explore.explore_random_in ~stop_on_first:false ctx ~runs:5);
  (* determinism re-check replays each walk, so >= one run per walk *)
  Alcotest.(check bool) "counted" true (Metrics.value runs >= 5);
  Metrics.reset reg;
  Alcotest.(check int) "reset" 0 (Metrics.value runs);
  ignore (Explore.explore_random_in ~stop_on_first:false ctx ~runs:5);
  Alcotest.(check bool) "counts again" true (Metrics.value runs >= 5)

let test_parallel_merge_matches_sequential () =
  (* stop_on_first off: every walk index is executed exactly once for
     any job count, so the merged aggregate must equal the sequential
     registry exactly — counters and histograms both. *)
  let run jobs =
    let reg = Metrics.create () in
    let stats =
      Parallel.explore_random ~check_determinism:false ~stop_on_first:false
        ~metrics:reg ~jobs getput_spec ~runs:40
    in
    (stats, Metrics.to_json_string (Metrics.snapshot reg))
  in
  let s1, m1 = run 1 in
  let s4, m4 = run 4 in
  Alcotest.(check int) "runs" s1.Explore.runs s4.Explore.runs;
  Alcotest.(check int) "violated" s1.Explore.violated s4.Explore.violated;
  Alcotest.(check string) "metrics identical" m1 m4

(* [engine.step] counts the events the engine executed, read from the
   totals the engine keeps rather than from an event per step: the
   quiescence of a one-shot run, and the end of each explored run,
   including one its event limit cuts short. *)
let engine_step reg = Metrics.value (Metrics.counter reg "engine.step")

let test_engine_step_one_shot () =
  let sim = Dsm_sim.Engine.create ~seed:3 () in
  let m = Machine.create sim ~n:3 () in
  let reg = Metrics.create () in
  Meter.attach reg (Dsm_sim.Engine.probe sim);
  let d = Dsm_core.Detector.create m () in
  Dsm_workload.Random_access.setup (Dsm_pgas.Env.checked d)
    { Dsm_workload.Random_access.default with ops_per_proc = 8; seed = 3 };
  (match Machine.run m with
  | Dsm_sim.Engine.Completed -> ()
  | _ -> Alcotest.fail "run did not complete");
  let events = Dsm_sim.Engine.events_processed sim in
  Alcotest.(check bool) "events ran" true (events > 0);
  Alcotest.(check int) "engine.step" events (engine_step reg)

let test_engine_step_event_limit () =
  let reg = Metrics.create () in
  let spec =
    {
      Explore.default_spec with
      scenario = "workload:random";
      n = 3;
      seed = 1;
      max_events = 40;
    }
  in
  let ctx = Explore.create_ctx ~metrics:reg spec in
  let walk i = Explore.run_once_in ctx (Explore.Walk i) in
  let first = walk 0 in
  Alcotest.(check bool) "cut by the limit" true (first.outcome = Event_limit);
  Alcotest.(check int) "engine.step, one walk" 40 (engine_step reg);
  let second = walk 1 in
  Alcotest.(check int) "engine.step, two walks"
    (first.events + second.events)
    (engine_step reg)

(* ---------- the JSON writer ---------- *)

let render f =
  let buf = Buffer.create 16 in
  f buf;
  Buffer.contents buf

(* The bytes every report, timeline and metrics dump relied on before
   the writers were merged: quote and backslash backslashed, control
   bytes as \u00XX (newline included), UTF-8 passed through. *)
let test_escaper_bytes () =
  Alcotest.(check string)
    "escaped" {|"a\"b\\c\u000ad\u0001e\u001ff→g"|}
    (render (fun b ->
         Json_writer.string b "a\"b\\c\nd\001e\031f\xe2\x86\x92g"));
  Alcotest.(check string)
    "members" {|"t":-1.000000,"ts":2.300,"n":null,"c":[1,2]|}
    (render (fun b ->
         Json_writer.members b
           [
             ("t", Fixed (6, -1.));
             ("ts", Fixed (3, 2.3));
             ("n", Null);
             ("c", Ints [| 1; 2 |]);
           ]))

(* [Json_writer.fixed] must print every float exactly as C's ["%.Nf"]
   does, at every precision the repo writes: 9 (explored runs'
   fingerprints), 6 (explanations, race CSV), 3 (timelines, explanation
   text) and 2 (bench rows). The generator aims at the fast
   path's edges: binary half-unit ties, near-ties around k.5 units,
   the 2^52/10^N cut-over, negatives and [-0.], and values the fast
   path must hand to [caml_format_float]. *)
let fixed_case =
  let open QCheck.Gen in
  let finite = float_bound_inclusive 1e4 in
  let tie = map2 (fun k j -> float_of_int k /. Float.pow 2. (float_of_int j))
      (int_bound 1_000_000) (int_range 1 24) in
  let near_tie =
    map3
      (fun k n eps -> ((float_of_int k +. 0.5) /. (10. ** float_of_int n)) +. eps)
      (int_bound 100_000) (oneofl [ 9; 6; 3; 2 ])
      (oneofl [ 0.; 1e-17; -1e-17; 1e-12; -1e-12 ])
  in
  let around_limit =
    map2 (fun n x -> (0x1p52 /. (10. ** float_of_int n)) *. x)
      (oneofl [ 9; 6; 3; 2 ]) (float_range 0.999 1.001)
  in
  let special =
    oneofl [ nan; infinity; neg_infinity; -0.; 0.; 4e9; 1e300; 5e-324; -1. ]
  in
  let value =
    frequency
      [
        (4, finite);
        (2, map Float.neg finite);
        (3, tie);
        (1, map Float.neg tie);
        (2, near_tie);
        (1, map Float.neg near_tie);
        (1, map (fun x -> 4e9 +. x) (float_bound_inclusive 1e12));
        (1, around_limit);
        (1, map Int64.float_of_bits ui64);
        (1, special);
      ]
  in
  QCheck.make
    ~print:(fun (n, f) -> Printf.sprintf "%%.%df of %h (%.17g)" n f f)
    (pair (oneofl [ 9; 6; 3; 2 ]) value)

let prop_fixed_matches_printf =
  QCheck.Test.make ~name:"fixed = Printf %.Nf" ~count:20_000 fixed_case
    (fun (n, f) ->
      render (fun b -> Json_writer.fixed n b f) = Printf.sprintf "%.*f" n f)

(* Every int prints as [string_of_int] does, two digits at a time:
   the generator aims at the digit-count edges (powers of ten, one
   either side) and the ends of the range. *)
let prop_int_matches_string_of_int =
  QCheck.Test.make ~name:"int = string_of_int" ~count:5_000
    QCheck.(
      make ~print:string_of_int
        Gen.(
          frequency
            [
              (3, int);
              (3, int_range (-1000) 1000);
              ( 3,
                map3
                  (fun e d neg ->
                    let x = int_of_float (10. ** float_of_int e) + d in
                    if neg then -x else x)
                  (int_bound 18) (int_range (-1) 1) bool );
              (1, oneofl [ max_int; min_int; min_int + 1; max_int - 1 ]);
            ]))
    (fun n -> render (fun b -> Json_writer.int b n) = string_of_int n)

(* The escaper against the byte-by-byte one it replaced. *)
let prop_string_matches_reference =
  QCheck.Test.make ~name:"string escaper = reference" ~count:2_000
    QCheck.(
      make ~print:String.escaped
        Gen.(
          string_size (int_bound 24)
            ~gen:
              (frequency
                 [
                   (6, printable);
                   (1, oneofl [ '"'; '\\'; '\n'; '\000'; '\031'; ' '; '\127' ]);
                   (1, char);
                 ])))
    (fun s -> render (fun b -> Json_writer.string b s) = Text_ref.json_string s)

(* Int arrays as the one-store path writes them: every element kind
   (one digit, several, negative) in every position. *)
let gen_ints =
  QCheck.Gen.(
    array_size (int_bound 10)
      (frequency [ (4, int_bound 9); (2, int_range (-200) 200); (1, int) ]))

let prop_ints_match_reference =
  QCheck.Test.make ~name:"ints = bracketed string_of_int" ~count:2_000
    (QCheck.make
       ~print:(fun a -> String.concat ";" (Array.to_list (Array.map string_of_int a)))
       gen_ints)
    (fun a ->
      render (fun b -> Json_writer.ints b a)
      = "[" ^ String.concat "," (Array.to_list (Array.map string_of_int a)) ^ "]")

(* Each length is the length of what its writer writes. *)
let prop_lengths_match_writers =
  QCheck.Test.make ~name:"lengths = written lengths" ~count:5_000
    (QCheck.make
       ~print:(fun (i, s, (d, f), a) ->
         Printf.sprintf "%d %S %%.%df of %h [%s]" i s d f
           (String.concat ";" (Array.to_list (Array.map string_of_int a))))
       QCheck.Gen.(
         quad
           (oneof [ int; int_range (-1000) 1000; oneofl [ min_int; max_int ] ])
           (string_size ~gen:char (int_bound 12))
           (QCheck.gen fixed_case) gen_ints))
    (fun (i, s, (d, f), a) ->
      let len write = String.length (render write) in
      Json_writer.int_length i = len (fun b -> Json_writer.int b i)
      && Json_writer.string_length s = len (fun b -> Json_writer.string b s)
      && Json_writer.fixed_length d f = len (fun b -> Json_writer.fixed d b f)
      && Json_writer.ints_length a = len (fun b -> Json_writer.ints b a))

let test_fixed_and_int_bytes () =
  List.iter
    (fun (n, f, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "%%.%df of %h" n f)
        expected
        (render (fun b -> Json_writer.fixed n b f)))
    [
      (6, 0.0078125, "0.007812");
      (6, 0.0234375, "0.023438");
      (6, -0., "-0.000000");
      (6, 0., "0.000000");
      (6, nan, Printf.sprintf "%.6f" nan);
      (6, infinity, Printf.sprintf "%.6f" infinity);
      (6, neg_infinity, Printf.sprintf "%.6f" neg_infinity);
      (6, 4e9, "4000000000.000000");
      (6, 1234.5, "1234.500000");
      (3, 2.3, "2.300");
      (3, 0.0625, "0.062");
      (2, 0.125, "0.12");
      (2, 99.995, Printf.sprintf "%.2f" 99.995);
    ];
  List.iter
    (fun n ->
      Alcotest.(check string) (string_of_int n) (string_of_int n)
        (render (fun b -> Json_writer.int b n)))
    [ 0; 7; -7; 10; -10; 1234567890; max_int; min_int; min_int + 1 ]

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
          Alcotest.test_case "histogram semantics" `Quick
            test_histogram_semantics;
          Alcotest.test_case "reset in place" `Quick test_reset_in_place;
          Alcotest.test_case "merge order-insensitive" `Quick
            test_merge_order_insensitive;
        ] );
      ( "probe",
        [
          Alcotest.test_case "attach" `Quick test_probe_attach;
          QCheck_alcotest.to_alcotest prop_sink_invariance;
        ] );
      ( "perfetto",
        [
          Alcotest.test_case "golden fig5a" `Quick test_perfetto_golden;
          Alcotest.test_case "txn transfer draws two lock slices" `Quick
            test_txn_locks_two_slices;
          Alcotest.test_case "validator rejects malformed" `Quick
            test_validator_rejects_malformed;
        ] );
      ( "json",
        [
          Alcotest.test_case "escaper bytes" `Quick test_escaper_bytes;
          Alcotest.test_case "fixed and int bytes" `Quick
            test_fixed_and_int_bytes;
          QCheck_alcotest.to_alcotest prop_fixed_matches_printf;
          QCheck_alcotest.to_alcotest prop_int_matches_string_of_int;
          QCheck_alcotest.to_alcotest prop_string_matches_reference;
          QCheck_alcotest.to_alcotest prop_ints_match_reference;
          QCheck_alcotest.to_alcotest prop_lengths_match_writers;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "arena metrics reset" `Quick
            test_arena_metrics_reset_in_place;
          Alcotest.test_case "engine.step = engine events, one-shot" `Quick
            test_engine_step_one_shot;
          Alcotest.test_case "engine.step = engine events, event limit"
            `Quick test_engine_step_event_limit;
          Alcotest.test_case "parallel merge = sequential" `Quick
            test_parallel_merge_matches_sequential;
        ] );
    ]
