(* The run entry point's limits: every documented limit of a run spec is
   a usage error that [Run.validate] decides on its own, without raising.
   The properties call [validate] only, never [exec], so they build no
   machine and open no domain pool: a huge [--jobs] starts nothing. The
   workload-table cases do run: every table entry one-shot, and beside
   the explored replay of the empty decision list. *)

module Run = Dsm_run.Run
module Token = Dsm_explore.Token
module Scenario = Dsm_explore.Scenario
module Explore = Dsm_explore.Explore
module Machine = Dsm_rdma.Machine

(* A small valid program for the [run FILE] specs: [validate] loads it. *)
let program =
  let path = Filename.temp_file "dsmcheck_run" ".dsm" in
  at_exit (fun () -> Sys.remove path);
  Out_channel.with_open_text path (fun oc ->
      output_string oc "shared a[4]\na[MINE] := MINE\n");
  path

let one_shot ?(n = 4) program =
  Run.One_shot
    {
      program;
      n;
      model = Dsm_rdma.Model.default;
      detect = true;
      verbose = false;
      explain = false;
      race_report = None;
      trace_out = None;
      metrics = No_metrics;
    }

let workload ?ops ?(seed = 1) ?(coherence = false)
    (which : Scenario.workload) =
  Run.Workload
    {
      which;
      ops = Option.value ops ~default:which.ops;
      coherence;
      seed;
      trace_dot = None;
      trace_csv = None;
      signals_csv = None;
    }

let scale ?(rounds = 2) ?(chunk = 4) ?(racy = false) () =
  Run.Scale { rounds; chunk; racy; batched = true; seed = 1 }

let source = Run.Source { path = program; instrument = true }

let explore ?(scenario = "getput") ?(n = 2) ?(max_events = 200_000)
    ?(runs = 100) ?depth ?(jobs = 1) ?(chunk = 64) ?(dpor = false)
    ?diff_models ?replay () =
  Run.Explore
    {
      spec = { Token.default_spec with scenario; n; max_events };
      model = None;
      runs;
      depth;
      jobs;
      chunk;
      dpor;
      diff_models;
      force = false;
      replay;
      no_minimize = false;
      metrics = false;
      expect_races = None;
      trace_out_violation = None;
      explain = false;
      race_report = None;
    }

type case = Case : string * 'a Run.spec -> case

let verdict (Case (label, spec)) =
  match Run.validate spec with
  | Ok _ -> `Valid
  | Error (Run.Usage _) -> `Usage
  | Error (Run.Fault _) -> QCheck.Test.fail_reportf "%s: a program fault" label
  | exception e ->
      QCheck.Test.fail_reportf "%s raised %s" label (Printexc.to_string e)

let token = "dsm1|s=getput|n=2|seed=1|f=none|r=0|b=0|me=200000|d="

(* Out of range: 0, negative, below a scenario's process minimum, or past
   the documented limit: at most 4096 processes for every run that builds
   the collectives, whose one reduction slot per process must fit a
   4096-word segment. A table entry's floors are drawn at the boundary
   too: [int_range] alone almost never draws [min - 1]. *)
let gen_out_of_range =
  let open QCheck.Gen in
  let neg = int_range min_int (-1) in
  let nonpos = oneof [ return 0; neg ] in
  let past_collectives = int_range 4097 max_int in
  let below m = int_range min_int (m - 1) in
  let case label spec = Case (label, spec) in
  let with_int label gen f =
    map (fun v -> case (Printf.sprintf label v) (f v)) gen
  in
  oneof
    [
      (let* (w : Scenario.workload) = oneofl Scenario.workloads in
       oneof
         [
           map
             (fun n ->
               case
                 (Printf.sprintf "workload %s -n %d" w.name n)
                 (one_shot ~n (workload w)))
             (oneof
                [
                  return (w.min_procs - 1); below w.min_procs; past_collectives;
                ]);
           map
             (fun ops ->
               case
                 (Printf.sprintf "workload %s --ops %d" w.name ops)
                 (one_shot (workload ~ops w)))
             (oneof [ return (w.min_ops - 1); below w.min_ops ]);
         ]);
      with_int "scale -n %d" (below 2) (fun n -> one_shot ~n (scale ()));
      with_int "scale --racy -n %d" (below 3) (fun n ->
          one_shot ~n (scale ~racy:true ()));
      with_int "scale --rounds %d" nonpos (fun rounds ->
          one_shot (scale ~rounds ()));
      with_int "scale --chunk %d" nonpos (fun chunk ->
          one_shot (scale ~chunk ()));
      with_int "run FILE -n %d" (oneof [ nonpos; past_collectives ]) (fun n ->
          one_shot ~n source);
      with_int "run --scenario fig5a -n %d" nonpos (fun n ->
          one_shot ~n (Run.Figure "fig5a"));
      with_int "explore getput -n %d" (below 2) (fun n -> explore ~n ());
      with_int "explore workload:random -n %d" past_collectives (fun n ->
          explore ~scenario:"workload:random" ~n ());
      with_int "explore workload:scale -n %d" (below 3) (fun n ->
          explore ~scenario:"workload:scale" ~n ());
      with_int "explore --max-events %d" nonpos (fun max_events ->
          explore ~max_events ());
      with_int "explore --runs %d" nonpos (fun runs -> explore ~runs ());
      with_int "explore --jobs %d" nonpos (fun jobs -> explore ~jobs ());
      with_int "explore --depth %d" neg (fun d -> explore ~depth:d ());
      with_int "explore --chunk %d" nonpos (fun chunk -> explore ~chunk ());
      return (case "explore --dpor" (explore ~dpor:true ()));
      with_int "explore --dpor --jobs %d" (int_range 2 max_int) (fun jobs ->
          explore ~dpor:true ~depth:4 ~jobs ());
      return
        (case "explore --dpor --replay"
           (explore ~dpor:true ~depth:4 ~replay:token ()));
      return
        (case "explore --diff-models --replay"
           (explore ~diff_models:"nic_atomic,relaxed" ~replay:token ()));
      return
        (case "explore --diff-models --dpor"
           (explore ~diff_models:"nic_atomic,relaxed" ~dpor:true ~depth:4 ()));
      with_int "explore --diff-models --jobs %d" (int_range 2 max_int)
        (fun jobs -> explore ~diff_models:"nic_atomic,relaxed" ~jobs ());
      return
        (case "explore --diff-models nic_atomic,nic_atomic"
           (explore ~diff_models:"nic_atomic,nic_atomic" ()));
      return (case "explore --replay garbage" (explore ~replay:"dsm1|n=x" ()));
    ]

let label_of (Case (label, _)) = label

let prop_out_of_range_is_usage =
  QCheck.Test.make ~name:"out-of-range fields are usage errors" ~count:500
    (QCheck.make ~print:label_of gen_out_of_range) (fun c -> verdict c = `Usage)

(* In range, including the largest values: [validate] accepts the spec.
   A [--jobs] of [max_int] is valid; only [exec] would clamp the pool. *)
let gen_in_range =
  let open QCheck.Gen in
  let pos = int_range 1 max_int in
  let procs = int_range 3 4096 in
  oneof
    [
      (let* (w : Scenario.workload) = oneofl Scenario.workloads in
       map2
         (fun n ops ->
           Case ("workload " ^ w.name, one_shot ~n (workload ~ops w)))
         procs
         (int_range w.min_ops max_int));
      map3
        (fun n rounds chunk ->
          Case ("scale", one_shot ~n (scale ~rounds ~chunk ~racy:true ())))
        (int_range 3 max_int) pos pos;
      map (fun n -> Case ("run FILE", one_shot ~n source)) procs;
      map
        (fun n -> Case ("run --scenario", one_shot ~n (Run.Figure "fig2")))
        pos;
      map3
        (fun (n, runs) (jobs, chunk) (depth, max_events) ->
          Case
            ( "explore",
              explore ~scenario:"workload:scale" ~n ~runs ~jobs ~chunk ~depth
                ~max_events () ))
        (pair procs pos) (pair pos pos)
        (pair (int_range 0 max_int) pos);
    ]

let prop_in_range_is_valid =
  QCheck.Test.make ~name:"in-range specs validate" ~count:300
    (QCheck.make ~print:label_of gen_in_range) (fun c -> verdict c = `Valid)

let run spec label =
  match Result.bind (Run.validate spec) Run.exec with
  | Ok r -> r
  | Error (Run.Usage msg) -> Alcotest.failf "%s: usage error: %s" label msg
  | Error (Run.Fault { msg; _ }) -> Alcotest.failf "%s: fault: %s" label msg

(* Every entry of the one workload table at its floors. Its [--ops]
   floor is its module's own: the program builds and runs to completion
   at the floor, and one below it the module refuses the size. Through
   [validate], one process below the minimum or one size below the
   floor is a usage error, and both floors together validate. *)
let test_table_floors () =
  List.iter
    (fun (w : Scenario.workload) ->
      let n = w.min_procs in
      let build ops =
        let machine = Machine.create (Dsm_sim.Engine.create ()) ~n () in
        let env = Dsm_pgas.Env.plain machine in
        let collectives = Dsm_pgas.Collectives.create env in
        let (_ : Scenario.monitor) = w.build ~ops ~seed:1 ~n env collectives in
        machine
      in
      Alcotest.(check bool)
        (w.name ^ " runs at its --ops floor")
        true
        (Machine.run (build w.min_ops) = Dsm_sim.Engine.Completed);
      Alcotest.(check bool)
        (w.name ^ "'s module refuses one below its --ops floor")
        true
        (match build (w.min_ops - 1) with
        | _ -> false
        | exception Invalid_argument _ -> true);
      let check what want ~n ~ops =
        let label = Printf.sprintf "workload %s -n %d --ops %d" w.name n ops in
        Alcotest.(check bool)
          (label ^ ": " ^ what) true
          (verdict (Case (label, one_shot ~n (workload ~ops w))) = want)
      in
      check "valid" `Valid ~n ~ops:w.min_ops;
      check "usage" `Usage ~n:(n - 1) ~ops:w.min_ops;
      check "usage" `Usage ~n ~ops:(w.min_ops - 1))
    Scenario.workloads

(* A workload's own checks run after the one-shot run and are reported
   as its [invariants]; the checker they get is the one [--coherence]
   attached, or none. The probe entry reports the checked-op count it
   sees, which is 0 unless the run has happened, and whether it got a
   checker. *)
let test_one_shot_reports_invariants () =
  let random =
    List.find (fun w -> w.Scenario.name = "random") Scenario.workloads
  in
  let build ~ops ~seed ~n env collectives =
    let (_ : Scenario.monitor) = random.build ~ops ~seed ~n env collectives in
    fun checker ->
      let d = Option.get (Dsm_pgas.Env.detector env) in
      [
        ("checked", string_of_int (Dsm_core.Detector.checked_ops d));
        ("checker", string_of_bool (checker <> None));
      ]
  in
  let probe = { random with name = "probe"; build } in
  List.iter
    (fun coherence ->
      let r = run (one_shot (workload ~coherence probe)) "probe" in
      let checked = Dsm_core.Detector.checked_ops (Option.get r.detector) in
      Alcotest.(check (list (pair string string)))
        "reported after the run"
        [
          ("checked", string_of_int checked);
          ("checker", string_of_bool coherence);
        ]
        r.invariants)
    [ false; true ]

let public_image machine =
  List.init (Machine.n machine) (fun pid ->
      Dsm_memory.Segment.read_block
        (Dsm_memory.Node_memory.segment (Machine.node machine pid)
           Dsm_memory.Addr.Public)
        ~offset:0 ~len:Dsm_memory.Node_memory.default_words)

(* Every table entry runs one-shot to completion at its minimum [-n]
   and its explored size, and that run is the explored replay of the
   empty decision list: the chooser's default pick is the engine's
   (time, seq) order, so both check the same ops, send the same
   messages and leave the same public memory. Only the detector's
   granularity differs (one-shot [Word], explored [Variable]), which
   moves race signals and nothing else. *)
let test_one_shot_is_empty_replay () =
  List.iter
    (fun (w : Scenario.workload) ->
      List.iter
        (fun (n, seed) ->
          let label = Printf.sprintf "%s n=%d seed=%d" w.name n seed in
          let shot = run (one_shot ~n (workload ~seed w)) label in
          Alcotest.(check bool) (label ^ ": completes") true shot.completed;
          let ctx =
            Explore.create_ctx
              {
                Token.default_spec with
                scenario = "workload:" ^ w.name;
                n;
                seed;
              }
          in
          let (_ : Explore.run_result) = Explore.run_once_in ctx (Script []) in
          let built = Option.get (Explore.last_built ctx) in
          let checked (d : Dsm_core.Detector.t option) =
            Dsm_core.Detector.checked_ops (Option.get d)
          in
          Alcotest.(check int)
            (label ^ ": checked ops")
            (checked built.detector) (checked shot.detector);
          Alcotest.(check int)
            (label ^ ": messages")
            (Machine.fabric_messages built.machine)
            (Machine.fabric_messages shot.machine);
          Alcotest.(check bool)
            (label ^ ": public segments")
            true
            (public_image built.machine = public_image shot.machine))
        [ (w.min_procs, 1); (w.min_procs + 1, 7) ])
    Scenario.workloads

let () =
  Alcotest.run "run"
    [
      ( "validate",
        [
          QCheck_alcotest.to_alcotest prop_out_of_range_is_usage;
          QCheck_alcotest.to_alcotest prop_in_range_is_valid;
        ] );
      ( "workload",
        [
          Alcotest.test_case "table floors are the modules'" `Quick
            test_table_floors;
          Alcotest.test_case "one-shot run reports its invariants" `Quick
            test_one_shot_reports_invariants;
          Alcotest.test_case "one-shot run = replay of no decisions" `Quick
            test_one_shot_is_empty_replay;
        ] );
    ]
