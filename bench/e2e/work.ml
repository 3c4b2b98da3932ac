(* The four workloads: construction, one timed iteration, the untimed
   verification pass and the oracles every output is checked against. *)

module Engine = Dsm_sim.Engine
module Machine = Dsm_rdma.Machine
module Config = Dsm_core.Config
module Detector = Dsm_core.Detector
module Report = Dsm_core.Report
module Env = Dsm_pgas.Env
module Explore = Dsm_explore.Explore
module Random_access = Dsm_workload.Random_access

type t = Push | Stencil | Racy | Explore

let all = [ Push; Stencil; Racy; Explore ]

let name = function
  | Push -> "push-n1024"
  | Stencil -> "stencil-n16"
  | Racy -> "racy-random-n8"
  | Explore -> "explore-random-n3"

let of_name s = List.find_opt (fun w -> String.equal (name w) s) all

(* Each workload loads a different layer; see README.md. *)
let why = function
  | Push ->
      "largest n with race-free single-writer puts: detector and clock cost \
       that grows with n dominates"
  | Stencil ->
      "halo gets beside own-chunk puts and a barrier per iteration: engine, \
       fabric and protocol cost show first"
  | Racy ->
      "every access races: report, provenance, flight recorder and explain \
       do most of the work"
  | Explore ->
      "thousands of short runs in reused arenas: reset, chooser, \
       fingerprint and replay"

(* A batch walks [programs] generated programs, [walks_per_program]
   walks each, so that a batch's work varies little with the seed: with
   one program of 2500 walks, races per batch ranged from 17,500 to
   32,500 over seeds 1-10; with ten, from 19,250 to 26,500. *)
let programs = 10
let walks_per_program = 250
let batch_runs = programs * walks_per_program

let sizes = function
  | Push ->
      "Scale n=1024 rounds=4 chunk=4 batched race-free, 64-word segments, \
       infiniband latency"
  | Stencil -> "Stencil n=16 cells/node=64 iterations=50, constant 1us latency"
  | Racy ->
      "Random_access n=8, 4 programs x 250 ops/proc, vars=32x4 reads=0.5 \
       atomics=0.1 no barriers, constant 1us latency, flight recorder + \
       race report"
  | Explore ->
      Printf.sprintf
        "Explore workload:random n=3, %d programs x %d walks per batch, \
         determinism re-check on, jobs=1"
        programs walks_per_program

let stencil_params seed =
  { Dsm_workload.Stencil.cells_per_node = 64; iterations = 50; seed }

(* The programs one iteration runs, one seed each; seeds [s * k + i]
   never overlap between two workload seeds. The racy workload runs four
   programs of 250 ops per process: its race report costs what its JSON
   weighs, and with one program of 1000 ops the JSON ranged from 1,444
   to 1,586 bytes per race over seeds 1-10. *)
let program_seeds w seed =
  let k = match w with Racy -> 4 | Push | Stencil | Explore -> 1 in
  List.init k (fun i -> (seed * k) + i)

let racy_params seed =
  {
    Random_access.default with
    ops_per_proc = 250;
    vars = 32;
    var_len = 4;
    read_fraction = 0.5;
    atomic_fraction = 0.1;
    seed;
  }

(* The generator [workload:random] explores, run directly and 100x
   longer: the explore workload's ladder and simulated metrics use it.
   At the explored 6 ops per process a seed moves msgs/op by 5% and the
   simulated overhead by 15%; at 600 the ratios hold still. *)
let explore_program seed =
  { Random_access.default with ops_per_proc = 600; think_mean = 1.0; seed }

let explore_spec seed =
  { Explore.default_spec with scenario = "workload:random"; n = 3; seed }

(* The programs of a batch; seeds [s * programs + k] never overlap
   between two workload seeds. *)
let explore_specs seed =
  List.init programs (fun k -> explore_spec ((seed * programs) + k))

(* The explorer over each workload's own program family: what the
   explore.* layer metrics time on every workload. The scale scenario is
   racy, and a racy explored run at n=1024 takes minutes and gigabytes
   (every signal keeps two dimension-n clocks), so push uses n=64. *)
let family_spec w seed =
  let scenario, n =
    match w with
    | Push -> ("workload:scale-batched", 64)
    | Stencil -> ("workload:stencil", 16)
    | Racy -> ("workload:random", 8)
    | Explore -> ("workload:random", 3)
  in
  { Explore.default_spec with scenario; n; seed }

(* {1 Ladder rungs} *)

type rung = R0 | R1 | R2 | R3 | R4

let rungs = [ R0; R1; R2; R3; R4 ]

let rung_name = function
  | R0 -> "r0-plain"
  | R1 -> "r1-checked"
  | R2 -> "r2-default"
  | R3 -> "r3-meter"
  | R4 -> "r4-flight"

(* The rung an untraced iteration runs: the racy workload carries a
   flight recorder for its race report; the others run the default
   detector. *)
let default_rung = function Racy -> R4 | Push | Stencil | Explore -> R2

type run = {
  sim : Engine.t;
  machine : Machine.t;
  detector : Detector.t option;
  grid : Dsm_pgas.Shared_array.t option;
  registry : Dsm_obs.Metrics.t option;
  flight : Dsm_obs.Flight.t option;
}

let build ?(tr = Span.off) ?(config = Config.default) w ~seed ~rung =
  let sim = Span.span tr "setup.engine_create" (fun () -> Engine.create ~seed ()) in
  let machine =
    Span.span tr "setup.machine_create" (fun () ->
        let constant = Dsm_net.Latency.Constant 1.0 in
        match w with
        | Push -> Machine.create sim ~n:1024 ~private_words:64 ~public_words:64 ()
        | Stencil -> Machine.create sim ~n:16 ~latency:constant ()
        | Racy -> Machine.create sim ~n:8 ~latency:constant ()
        | Explore -> Machine.create sim ~n:3 ())
  in
  let detector, registry, flight =
    Span.span tr "setup.detector_create" (fun () ->
        let probe = Engine.probe sim in
        let checked config = Some (Detector.create machine ~config ()) in
        match rung with
        | R0 -> (None, None, None)
        | R1 -> (checked { config with provenance_depth = 0 }, None, None)
        | R2 -> (checked config, None, None)
        | R3 ->
            let registry = Dsm_obs.Metrics.create () in
            ignore (Dsm_obs.Meter.attach registry probe);
            (checked config, Some registry, None)
        | R4 -> (checked config, None, Some (Dsm_obs.Flight.attach probe)))
  in
  let env =
    match detector with Some d -> Env.checked d | None -> Env.plain machine
  in
  let grid =
    Span.span tr "setup.workload" (fun () ->
        match w with
        | Push ->
            Dsm_workload.Scale.setup env
              { Dsm_workload.Scale.rounds = 4; chunk = 4; racy = false;
                batched = true; think_mean = 0.; seed };
            None
        | Stencil ->
            let collectives = Dsm_pgas.Collectives.create env in
            Some (Dsm_workload.Stencil.setup env ~collectives (stencil_params seed))
        | Racy ->
            Random_access.setup env (racy_params seed);
            None
        | Explore ->
            Random_access.setup env (explore_program seed);
            None)
  in
  { sim; machine; detector; grid; registry; flight }

(* The race report, as [dsmcheck run --race-report] builds it. *)
let report ?(tr = Span.off) run =
  match run.detector with
  | None -> 0
  | Some d ->
      let window =
        match run.flight with Some f -> Dsm_obs.Flight.events f | None -> []
      in
      let explanations =
        Span.span tr "obs.explain_report" (fun () ->
            Dsm_core.Diagnose.explain_report ~window (Detector.report d))
      in
      let json =
        Span.span tr "obs.report_json" (fun () ->
            Dsm_obs.Explain.list_to_json explanations)
      in
      ignore (Sys.opaque_identity json);
      List.length explanations

type iter = {
  setup_s : float;
  run_s : float;
  report_s : float;
  iter_s : float;
  outcome : Engine.outcome;
  races : int;
  ops : int;
  explained : int;
  grid : int array;  (* stencil only *)
  minor_words : float;
  major_collections : int;
}

(* One program: setup, run and (on r4) the race report. *)
let program ~tr w ~seed ~rung =
  let t0 = Span.cpu () in
  let run = build ~tr w ~seed ~rung in
  let minor0 = Gc.minor_words () in
  let major0 = (Gc.quick_stat ()).major_collections in
  let t1 = Span.cpu () in
  let outcome = Span.span tr "sim.run" (fun () -> Machine.run run.machine) in
  let t2 = Span.cpu () in
  let minor_words = Gc.minor_words () -. minor0 in
  let major_collections = (Gc.quick_stat ()).major_collections - major0 in
  let explained = if rung = R4 then report ~tr run else 0 in
  let t3 = Span.cpu () in
  let races, ops =
    match run.detector with
    | Some d -> (Report.count (Detector.report d), Detector.checked_ops d)
    | None -> (0, 0)
  in
  {
    setup_s = t1 -. t0;
    run_s = t2 -. t1;
    report_s = t3 -. t2;
    iter_s = t3 -. t0;
    outcome;
    races;
    ops;
    explained;
    grid =
      (match run.grid with
      | Some g ->
          Array.init (Dsm_pgas.Shared_array.length g) (Dsm_pgas.Shared_array.peek g)
      | None -> [||]);
    minor_words;
    major_collections;
  }

(* Two programs' iterations as one: times and counts add up, and the
   first outcome other than [Completed] is kept. *)
let add a b =
  {
    setup_s = a.setup_s +. b.setup_s;
    run_s = a.run_s +. b.run_s;
    report_s = a.report_s +. b.report_s;
    iter_s = a.iter_s +. b.iter_s;
    outcome = (if a.outcome = Engine.Completed then b.outcome else a.outcome);
    races = a.races + b.races;
    ops = a.ops + b.ops;
    explained = a.explained + b.explained;
    grid = Array.append a.grid b.grid;
    minor_words = a.minor_words +. b.minor_words;
    major_collections = a.major_collections + b.major_collections;
  }

(* One iteration: the programs of [program_seeds], each from a collected
   heap. The full major collections sit outside the timed regions. *)
let iteration ?(tr = Span.off) w ~seed ~rung =
  Span.span tr "iteration" (fun () ->
      let run seed =
        Gc.full_major ();
        program ~tr w ~seed ~rung
      in
      match List.map run (program_seeds w seed) with
      | first :: rest -> List.fold_left add first rest
      | [] -> invalid_arg "Work.iteration: no programs")

(* {1 Oracles} *)

module Checks = struct
  type t = {
    mutable attempted : int;
    mutable failed : int;
    mutable failures : string list;
  }

  let create () = { attempted = 0; failed = 0; failures = [] }

  let expect c ok what =
    c.attempted <- c.attempted + 1;
    if not ok then begin
      c.failed <- c.failed + 1;
      if List.length c.failures < 16 then c.failures <- what () :: c.failures
    end

  let fail_frac c =
    if c.attempted = 0 then 0. else float c.failed /. float c.attempted
end

let outcome_name = function
  | Engine.Completed -> "completed"
  | Blocked k -> Printf.sprintf "blocked(%d)" k
  | Time_limit_reached -> "time-limit"
  | Event_limit_reached -> "event-limit"
  | Stopped -> "stopped"

let check_completed c ~what outcome =
  Checks.expect c (outcome = Engine.Completed) (fun () ->
      Printf.sprintf "%s: run %s, expected completed" what (outcome_name outcome))

let check_count c ~what ~expected got =
  Checks.expect c (got = expected) (fun () ->
      Printf.sprintf "%s: %d, expected %d" what got expected)

let check_grid c ~what ~expected got =
  Checks.expect c (got = expected) (fun () ->
      Printf.sprintf "%s: grid differs from Stencil.reference" what)

let check_f1 c ~what ~truth ~flagged =
  let conf = Dsm_baselines.Scoring.confusion ~truth ~flagged in
  Checks.expect c
    (Dsm_baselines.Scoring.f1 conf = 1.0)
    (fun () ->
      Printf.sprintf "%s: F1 %.4f (tp %d fp %d fn %d)" what
        (Dsm_baselines.Scoring.f1 conf)
        conf.true_pos conf.false_pos conf.false_neg)

(* {1 Verification pass} *)

type facts = {
  ops : int;  (* checked ops of one iteration, or of one explore batch *)
  races : int;  (* race signals of one iteration, or of one explore batch *)
  last_walk_races : int;  (* explore: [last_races] after a batch *)
  reference : int array;  (* stencil: Stencil.reference *)
  truth : Dsm_baselines.Scoring.words;  (* racy, first program: racy words *)
  flagged : Dsm_baselines.Scoring.words;  (* racy, first program: flagged *)
  sim_overhead_x : float;
  msgs_per_op : float;
  clock_words_per_op : float;
}

let last_race_count ctx =
  match Explore.last_built ctx with
  | Some { Dsm_explore.Scenario.detector = Some d; _ } ->
      Report.count (Detector.report d)
  | _ -> -1

(* Races of each program's last walk, summed over the batch's arenas. *)
let last_races ctxs =
  List.fold_left (fun acc ctx -> acc + last_race_count ctx) 0 ctxs

(* The batch's walks one by one, without the determinism re-check: each
   must hold every invariant; their checked ops and races are what one
   timed batch does. *)
let verify_explore c ~seed =
  let ctxs = List.map Explore.create_ctx (explore_specs seed) in
  let ops = ref 0 and races = ref 0 and bad = ref 0 in
  List.iter
    (fun ctx ->
      for i = 0 to walks_per_program - 1 do
        let r = Explore.run_once_in ctx (Walk i) in
        races := !races + r.races;
        (match Explore.last_built ctx with
        | Some { detector = Some d; _ } -> ops := !ops + Detector.checked_ops d
        | _ -> ());
        if r.violations <> [] then incr bad
      done)
    ctxs;
  Checks.expect c (!bad = 0) (fun () ->
      Printf.sprintf "explore verify: %d of %d walks violate an invariant" !bad
        batch_runs);
  (!ops, !races, last_races ctxs)

(* Untimed: the default detector against Env.plain for the simulated
   metrics, plus each workload's independent oracle, for each program. *)
type pass = {
  pass_ops : int;
  pass_races : int;
  makespan : float;
  plain_makespan : float;
  messages : int;
  clock_words : int;
  grid_ref : int array;
  scored : Dsm_baselines.Scoring.words * Dsm_baselines.Scoring.words;
}

let verify_program c w ~seed =
  let what = Printf.sprintf "%s verify (program seed %d)" (name w) seed in
  let checked = build w ~seed ~rung:R2 in
  check_completed c ~what (Machine.run checked.machine);
  let plain = build w ~seed ~rung:R0 in
  check_completed c ~what:(what ^ " plain") (Machine.run plain.machine);
  let d = Option.get checked.detector in
  let races = Report.count (Detector.report d) in
  let reference =
    match checked.grid with
    | Some g -> Dsm_workload.Stencil.reference g (stencil_params seed)
    | None -> [||]
  in
  let peek = function
    | Some g ->
        Array.init (Dsm_pgas.Shared_array.length g) (Dsm_pgas.Shared_array.peek g)
    | None -> [||]
  in
  let truth, flagged =
    match w with
    | Push ->
        check_count c ~what:(what ^ " races") ~expected:0 races;
        ([], [])
    | Stencil ->
        check_count c ~what:(what ^ " races") ~expected:0 races;
        check_grid c ~what ~expected:reference (peek checked.grid);
        check_grid c ~what:(what ^ " plain") ~expected:reference (peek plain.grid);
        ([], [])
    | Racy ->
        let traced =
          build ~config:{ Config.default with record_trace = true } w ~seed
            ~rung:R2
        in
        check_completed c ~what:(what ^ " traced") (Machine.run traced.machine);
        let td = Option.get traced.detector in
        check_count c ~what:(what ^ " traced races") ~expected:races
          (Report.count (Detector.report td));
        let truth =
          Dsm_baselines.Scoring.ground_truth_words (Option.get (Detector.trace td))
        in
        let flagged = Dsm_baselines.Scoring.detector_words (Detector.report td) in
        check_f1 c ~what ~truth ~flagged;
        (truth, flagged)
    | Explore -> ([], [])
  in
  {
    pass_ops = Detector.checked_ops d;
    pass_races = races;
    makespan = Engine.now checked.sim;
    plain_makespan = Engine.now plain.sim;
    messages = Machine.fabric_messages checked.machine;
    clock_words = Machine.clock_words_sent checked.machine;
    grid_ref = reference;
    scored = (truth, flagged);
  }

(* The simulated metrics are over all of an iteration's programs. *)
let verify c w ~seed =
  let passes =
    List.map (fun seed -> verify_program c w ~seed) (program_seeds w seed)
  in
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 passes in
  let sumf f = List.fold_left (fun acc p -> acc +. f p) 0. passes in
  let ops = sum (fun p -> p.pass_ops) and races = sum (fun p -> p.pass_races) in
  let ops_total, races_total, last_walk_races =
    match w with
    | Explore -> verify_explore c ~seed
    | Push | Stencil | Racy -> (ops, races, races)
  in
  let per_op x = float x /. float (max 1 ops) in
  let truth, flagged = (List.hd passes).scored in
  {
    ops = ops_total;
    races = races_total;
    last_walk_races;
    reference = Array.concat (List.map (fun p -> p.grid_ref) passes);
    truth;
    flagged;
    sim_overhead_x = sumf (fun p -> p.makespan) /. sumf (fun p -> p.plain_makespan);
    msgs_per_op = per_op (sum (fun p -> p.messages));
    clock_words_per_op = per_op (sum (fun p -> p.clock_words));
  }

(* {1 Samples} *)

type budget = Samples of int | Seconds of float

let sample_loop ?(max = max_int) budget f =
  let start = Span.now () in
  let more k =
    match budget with
    | Samples n -> k < n
    | Seconds s -> k < 3 || (k < max && Span.now () -. start < s)
  in
  let rec go k acc = if more k then go (k + 1) (f () :: acc) else List.rev acc in
  go 0 []

(* [sample_loop] with a reference pass before the first sample and after
   each one. Each sample comes with the factor that scales its host times
   to the reference speed (see Calib). *)
let calibrated_loop budget f =
  let before = ref (Calib.pass ()) in
  sample_loop budget (fun () ->
      let x = f () in
      let after = Calib.pass () in
      let k = Calib.nominal_s /. ((!before +. after) /. 2.) in
      before := after;
      (x, k))

let scale_iter (it, k) =
  {
    it with
    setup_s = it.setup_s *. k;
    run_s = it.run_s *. k;
    report_s = it.report_s *. k;
    iter_s = it.iter_s *. k;
  }

let heap_mb () =
  float ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* What one process measures on one workload: per-sample host metrics at
   the reference speed, the factors that scaled them, the peak heap, and
   the verified facts. *)
type measured = {
  samples : (string * float list) list;
  factors : float list;
  peak_heap_mb : float;
  facts : facts;
  checks : Checks.t;
}

(* One batch over the arenas of [explore_specs]: walks run and walks
   that violated an invariant. *)
let batch ctxs =
  List.fold_left
    (fun (runs, violated) ctx ->
      let s =
        Explore.explore_random_in ~check_determinism:true ~stop_on_first:false
          ctx ~runs:walks_per_program
      in
      (runs + s.runs, violated + s.violated))
    (0, 0) ctxs

(* The batches share their arenas, so their set-up happens once. To
   sample set-up across the whole run like the other workloads do,
   throwaway arenas are also set up before every batch. *)
let measure_explore ~seed ~budget ~warmup c =
  let setup () =
    Gc.full_major ();
    let t0 = Span.cpu () in
    let ctxs =
      List.map
        (fun spec ->
          let ctx = Explore.create_ctx spec in
          ignore (Explore.run_once_in ctx (Walk 0));
          ctx)
        (explore_specs seed)
    in
    (Span.cpu () -. t0, ctxs)
  in
  let ctxs = snd (setup ()) in
  for _ = 1 to warmup do
    ignore (batch ctxs)
  done;
  (* read before sampling: a run's sample count follows the host speed *)
  let peak_heap_mb = heap_mb () in
  let calibrated =
    calibrated_loop budget (fun () ->
        let setup_s = fst (setup ()) in
        Gc.full_major ();
        let t0 = Span.cpu () in
        let stats = batch ctxs in
        (setup_s, Span.cpu () -. t0, stats, last_races ctxs))
  in
  let batches =
    List.map
      (fun ((s, t, stats, last), k) -> (s *. k, t *. k, stats, last))
      calibrated
  in
  let facts = verify c Explore ~seed in
  List.iter
    (fun (_, _, (runs, violated), last) ->
      Checks.expect c
        (runs = batch_runs && violated = 0)
        (fun () ->
          Printf.sprintf "explore batch: %d runs, %d violated" runs violated);
      check_count c ~what:"explore batch last-walk races"
        ~expected:facts.last_walk_races last)
    batches;
  let walls = List.map (fun (_, t, _, _) -> t) batches in
  {
    samples =
      [
        ("setup_s", List.map (fun (s, _, _, _) -> s) batches);
        ("iter_s", walls);
        ("schedules_per_s", List.map (fun t -> float batch_runs /. t) walls);
        ("ops_per_s", List.map (fun t -> float facts.ops /. t) walls);
      ];
    factors = List.map snd calibrated;
    peak_heap_mb;
    facts;
    checks = c;
  }

let measure_direct w ~seed ~budget ~warmup c =
  let rung = default_rung w in
  for _ = 1 to warmup do
    ignore (iteration w ~seed ~rung)
  done;
  (* read before sampling: a run's sample count follows the host speed *)
  let peak_heap_mb = heap_mb () in
  let calibrated = calibrated_loop budget (fun () -> iteration w ~seed ~rung) in
  let iters = List.map scale_iter calibrated in
  let facts = verify c w ~seed in
  let what = name w in
  List.iter
    (fun (it : iter) ->
      check_completed c ~what it.outcome;
      check_count c ~what:(what ^ " races") ~expected:facts.races it.races;
      check_count c ~what:(what ^ " checked ops") ~expected:facts.ops it.ops;
      if w = Stencil then check_grid c ~what ~expected:facts.reference it.grid;
      if w = Racy then
        check_count c ~what:(what ^ " explanations") ~expected:it.races
          it.explained)
    iters;
  let col f = List.map f iters in
  {
    samples =
      [
        ("setup_s", col (fun it -> it.setup_s));
        ("iter_s", col (fun it -> it.iter_s));
        ("ops_per_s", col (fun it -> float it.ops /. it.run_s));
      ]
      @ (if w = Racy then [ ("report_s", col (fun it -> it.report_s)) ] else []);
    factors = List.map snd calibrated;
    peak_heap_mb;
    facts;
    checks = c;
  }

(* [warmup] untimed iterations come first: the explore workload's reused
   arenas and the major heap take two or three batches to settle, and
   those batches run up to 40% slower. *)
let measure ?(warmup = 3) w ~seed ~budget =
  let c = Checks.create () in
  match w with
  | Explore -> measure_explore ~seed ~budget ~warmup c
  | Push | Stencil | Racy -> measure_direct w ~seed ~budget ~warmup c
