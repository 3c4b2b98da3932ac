(* The traced run: spans around the benchmark's calls into each layer,
   an ablation ladder that switches one layer on at a time, and the
   per-layer metrics derived from both. *)

module W = Work
module Engine = Dsm_sim.Engine
module Machine = Dsm_rdma.Machine
module Detector = Dsm_core.Detector
module Explore = Dsm_explore.Explore
module Vector_clock = Dsm_clocks.Vector_clock
module Codec = Dsm_clocks.Codec

let now = Span.now

let timed tr name f =
  let t0 = now () in
  Span.span tr name f;
  now () -. t0

let tid w =
  let rec index i = function
    | [] -> 0
    | x :: rest -> if x = w then i else index (i + 1) rest
  in
  1 + index 0 W.all

(* Each round runs every rung once, so a slow window of the host lands on
   all rungs of that round; rung differences are paired within a round.
   Host times are at the reference speed, as in the untraced run. *)
let ladder tr w ~seed ~budget =
  let round = ref 0 in
  W.calibrated_loop budget (fun () ->
      incr round;
      Span.set tr ~round:!round ();
      List.map
        (fun rung ->
          Span.set tr ~rung:(W.rung_name rung) ();
          (rung, W.iteration ~tr w ~seed ~rung))
        W.rungs)
  |> List.map (fun (its, k) ->
         List.map (fun (rung, it) -> (rung, W.scale_iter (it, k))) its)

(* Counts from untimed runs of an iteration's programs, summed: r2 for
   the detector's own numbers, r3 for the meter's probe counts. Both are
   deterministic. *)
type counts = {
  detector : Detector.t;  (* the first program's *)
  ops : int;
  races : int;
  events : int;
  storage_words : int;
  meters : Dsm_obs.Metrics.snapshot list;
}

let counts w ~seed =
  let runs =
    List.map
      (fun seed ->
        let r2 = W.build w ~seed ~rung:R2 in
        ignore (Machine.run r2.machine);
        let r3 = W.build w ~seed ~rung:R3 in
        ignore (Machine.run r3.machine);
        (r2, Dsm_obs.Metrics.snapshot (Option.get r3.registry)))
      (W.program_seeds w seed)
  in
  let sum f =
    List.fold_left
      (fun acc ((r2 : W.run), _) -> acc + f (Option.get r2.detector) r2.sim)
      0 runs
  in
  {
    detector = Option.get (fst (List.hd runs)).detector;
    ops = sum (fun d _ -> Detector.checked_ops d);
    races = sum (fun d _ -> Dsm_core.Report.count (Detector.report d));
    events = sum (fun _ sim -> Engine.events_processed sim);
    storage_words = sum (fun d _ -> Detector.storage_words d);
    meters = List.map snd runs;
  }

let counter k name =
  List.fold_left
    (fun acc (m : Dsm_obs.Metrics.snapshot) ->
      acc + Option.value (List.assoc_opt name m.counters) ~default:0)
    0 k.meters

let hist_sum k name =
  List.fold_left
    (fun acc (m : Dsm_obs.Metrics.snapshot) ->
      acc
      + match List.assoc_opt name m.histograms with Some h -> h.sum | None -> 0)
    0 k.meters

(* Clock operations timed on the run's own per-process clocks. Delta
   frames are encoded against the ring predecessor's clock, standing in
   for the last clock shipped on that edge. *)
let clock_layer tr (d : Detector.t) =
  let n = Machine.n (Detector.machine d) in
  let cs = Array.init n (Detector.proc_clock d) in
  let prev i = cs.((i + n - 1) mod n) in
  let frames =
    Array.init n (fun i ->
        Codec.encode_piggyback ~mode:Delta ~seq:0 ~since:(prev i) cs.(i))
  in
  let scratch = Vector_clock.copy cs.(0) in
  let keep x = ignore (Sys.opaque_identity x) in
  let ops =
    [
      ("clocks.compare_ns", fun i -> keep (Vector_clock.compare cs.(i) (prev i)));
      ("clocks.merge_into_ns", fun i -> Vector_clock.merge_into ~into:scratch cs.(i));
      ( "clocks.encode_delta_ns",
        fun i ->
          keep (Codec.encode_piggyback ~mode:Delta ~seq:0 ~since:(prev i) cs.(i)) );
      ( "clocks.encode_sparse_ns",
        fun i -> keep (Codec.encode_piggyback ~mode:Sparse ~seq:0 cs.(i)) );
      ( "clocks.decode_delta_ns",
        fun i ->
          keep (Codec.decode_piggyback ~expect_seq:0 ~base:(prev i) frames.(i)) );
    ]
  in
  List.map
    (fun (metric, op) ->
      let pass () =
        for i = 0 to n - 1 do
          op i
        done
      in
      let t0 = now () in
      pass ();
      let reps = max 1 (int_of_float (0.002 /. Float.max (now () -. t0) 1e-7)) in
      let span = String.sub metric 0 (String.length metric - 3) in
      ( metric,
        Stats.of_list
          (List.init 7 (fun _ ->
               timed tr span (fun () ->
                   for _ = 1 to reps do
                     pass ()
                   done)
               *. 1e9 /. float (reps * n))) ))
    ops

(* [f]'s timings at the reference speed, from one reference pass before
   and one after (see Calib). *)
let at_reference_speed f =
  let before = Calib.pass () in
  let rows = f () in
  let k = Calib.nominal_s /. ((before +. Calib.pass ()) /. 2.) in
  List.map (fun (name, s) -> (name, Stats.scale s k)) rows

(* Engine-only dispatch: [n] self-rescheduling chains, about [events]
   events in all, so the heap holds as many pending events as the
   workload has processes. *)
let dispatch_ns ~events ~n =
  let sim = Engine.create () in
  let per = (events / n) + 1 in
  let rec step k () =
    if k > 0 then Engine.schedule sim ~delay:1.0 (step (k - 1))
  in
  for p = 0 to n - 1 do
    Engine.schedule sim ~delay:(float p /. float n) (step per)
  done;
  let t0 = now () in
  ignore (Engine.run sim);
  (now () -. t0) *. 1e9 /. float (Engine.events_processed sim)

(* The explorer over this workload's program family: reused-arena runs
   with the determinism re-check off and on (paired per walk), and
   fresh-arena runs. *)
let explore_layer tr w ~seed ~seconds =
  let spec = W.family_spec w seed in
  let creates =
    List.init 3 (fun _ ->
        let t0 = now () in
        let ctx = Span.span tr "explore.create_ctx" (fun () -> Explore.create_ctx spec) in
        ((now () -. t0) *. 1e3, ctx))
  in
  let ctx = snd (List.hd creates) in
  ignore (Explore.run_once_in ctx (Walk 0));
  let walk = ref 0 in
  let pairs =
    W.sample_loop ~max:400 (Seconds seconds) (fun () ->
        incr walk;
        let r = ref None in
        Span.set tr ~rung:"check-off" ();
        let off =
          timed tr "explore.run_once_in" (fun () ->
              r := Some (Explore.run_once_in ctx (Walk !walk)))
        in
        Span.set tr ~rung:"check-on" ();
        let on =
          timed tr "explore.run_once_in" (fun () ->
              ignore (Explore.run_once_in ~check_determinism:true ctx (Walk !walk)))
        in
        (off, on, Option.get !r))
  in
  Span.set tr ~rung:"fresh" ();
  let fresh =
    W.sample_loop ~max:100 (Seconds (seconds /. 4.)) (fun () ->
        incr walk;
        timed tr "explore.run_once" (fun () ->
            ignore (Explore.run_once spec (Walk !walk))))
  in
  Span.set tr ~rung:"" ();
  let us = List.map (fun (off, _, _) -> off *. 1e6) pairs in
  let mean f =
    List.fold_left (fun acc p -> acc +. f p) 0. pairs /. float (List.length pairs)
  in
  [
    ("explore.ctx_create_ms", Stats.of_list (List.map fst creates));
    ("explore.run_us_p50", Stats.of_list us);
    ("explore.run_us_p75", Stats.exact ~n:(List.length us) (Stats.pct us 75.));
    ("explore.fresh_run_us", Stats.of_list (List.map (fun t -> t *. 1e6) fresh));
    ( "explore.replay_share",
      Stats.of_list (List.map (fun (off, on, _) -> (on -. off) /. on) pairs) );
    ( "explore.events_per_run",
      Stats.exact (mean (fun (_, _, (r : Explore.run_result)) -> float r.events)) );
    ( "explore.choice_points_per_run",
      Stats.exact
        (mean (fun (_, _, (r : Explore.run_result)) ->
             float (List.length r.choices))) );
  ]

type result = {
  workload : W.t;
  layers : (string * Stats.t) list;
  traced_iter_s : Stats.t;
  facts : W.facts;
  checks : W.Checks.t;
}

(* The traced counterpart of one untraced iteration, on the same CPU
   clock at the same reference speed: the default rung's iterations, or
   walk batches for the explore workload. *)
let traced_iter_s tr w ~seed rounds =
  match w with
  | W.Explore ->
      let ctxs = List.map Explore.create_ctx (W.explore_specs seed) in
      Stats.of_list
        (List.map
           (fun (t, k) -> t *. k)
           (W.calibrated_loop (Samples 3) (fun () ->
                Gc.full_major ();
                let t0 = Span.cpu () in
                Span.span tr "explore.batch" (fun () -> ignore (W.batch ctxs));
                Span.cpu () -. t0)))
  | Push | Stencil | Racy ->
      Stats.of_list
        (List.map (fun r -> (List.assoc (W.default_rung w) r : W.iter).iter_s) rounds)

let run tr w ~seed ~budget =
  Span.set tr ~tid:(tid w) ~rung:"" ~round:0 ();
  let c = W.Checks.create () in
  let facts = Span.span tr "verify" (fun () -> W.verify c w ~seed) in
  let rounds = ladder tr w ~seed ~budget in
  Span.set tr ~rung:"" ~round:0 ();
  let k = counts w ~seed in
  (* observers never change verdicts: every rung completes and every
     checked rung raises the r2 signals *)
  List.iter
    (List.iter (fun (rung, (it : W.iter)) ->
         let what = Printf.sprintf "%s %s" (W.name w) (W.rung_name rung) in
         W.check_completed c ~what it.outcome;
         if rung <> W.R0 then
           W.check_count c ~what:(what ^ " races") ~expected:k.races it.races))
    rounds;
  let per_op s = s *. 1e9 /. float (max 1 k.ops) in
  let run_s rung = List.map (fun r -> (List.assoc rung r : W.iter).run_s) rounds in
  let diff a b =
    Stats.of_list (List.map2 (fun x y -> per_op (y -. x)) (run_s a) (run_s b))
  in
  let r2 = List.map (fun r -> (List.assoc W.R2 r : W.iter)) rounds in
  let ms ~rung name =
    Stats.of_list
      (List.map (fun d -> d *. 1e3) (Span.durations tr ~tid:(tid w) ~rung name))
  in
  let setup name = ms ~rung:(W.rung_name R2) name in
  let count x = Stats.exact (float x) in
  let fast = counter k "detector.epoch_fast_path" in
  let checks = counter k "detector.check" in
  let clocks = at_reference_speed (fun () -> clock_layer tr k.detector) in
  let dispatch =
    at_reference_speed (fun () ->
        [
          ( "sim.dispatch_ns_per_event",
            Stats.of_list
              (List.init 5 (fun _ ->
                   Span.span tr "sim.dispatch" (fun () ->
                       dispatch_ns ~events:k.events
                         ~n:(Machine.n (Detector.machine k.detector))))) );
        ])
  in
  let explore_seconds =
    match budget with W.Samples _ -> 2.0 | Seconds s -> Float.min 2.0 (s /. 5.)
  in
  let explore = explore_layer tr w ~seed ~seconds:explore_seconds in
  let traced_iter_s = traced_iter_s tr w ~seed rounds in
  let layers =
    [
      ("setup.engine_create_ms", setup "setup.engine_create");
      ("setup.machine_create_ms", setup "setup.machine_create");
      ("setup.detector_create_ms", setup "setup.detector_create");
      ("setup.workload_ms", setup "setup.workload");
      ("sim.events", count k.events);
      ( "sim.host_ns_per_event",
        Stats.of_list
          (List.map (fun s -> s *. 1e9 /. float k.events) (run_s W.R2)) );
    ]
    @ dispatch
    @ [
        ("rdma.plain_ns_per_op", Stats.of_list (List.map per_op (run_s W.R0)));
        ("net.msgs", count (counter k "net.send"));
        ("net.wire_words", count (hist_sum k "net.wire_words"));
        ("rdma.locks", count (counter k "rdma.lock_acquired"));
        ("core.detector_ns_per_op", diff W.R0 W.R1);
        ("core.provenance_ns_per_op", diff W.R1 W.R2);
        ("core.checks", count checks);
        ("core.epoch_fast_path", count fast);
        ("core.dense_path", count (counter k "detector.dense_path"));
        ("core.clock_merges", count (counter k "detector.clock_merge"));
        ("core.race_signals", count (counter k "detector.race_signal"));
        ( "core.epoch_hit_ratio",
          Stats.exact (float fast /. float (max 1 checks)) );
        ("core.storage_words", count k.storage_words);
        ( "gc.minor_words_per_op",
          Stats.of_list
            (List.map (fun (it : W.iter) -> it.minor_words /. float (max 1 k.ops)) r2)
        );
        ( "gc.major_collections",
          Stats.of_list
            (List.map (fun (it : W.iter) -> float it.major_collections) r2) );
    ]
    @ clocks
    @ [
        ("obs.meter_ns_per_op", diff W.R2 W.R3);
        ("obs.flight_ns_per_op", diff W.R2 W.R4);
        ("obs.explain_report_ms", ms ~rung:(W.rung_name R4) "obs.explain_report");
        ("obs.report_json_ms", ms ~rung:(W.rung_name R4) "obs.report_json");
      ]
    @ explore
  in
  let layers =
    List.map
      (fun (name, _) ->
        match List.assoc_opt name layers with
        | Some s -> (name, s)
        | None -> failwith ("dsmbench: per-layer metric not computed: " ^ name))
      Metric.per_layer
  in
  { workload = w; layers; traced_iter_s; facts; checks = c }
