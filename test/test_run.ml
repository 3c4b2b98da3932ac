(* The run entry point's limits: every documented limit of a run spec is
   a usage error that [Run.validate] decides on its own, without raising.
   The properties call [validate] only, never [exec], so they build no
   machine and open no domain pool: a huge [--jobs] starts nothing. *)

module Run = Dsm_run.Run
module Token = Dsm_explore.Token

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

let workload ?(ops = 20) which =
  Run.Workload
    {
      which;
      ops;
      racy = false;
      coherence = false;
      seed = 1;
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
   4096-word segment. *)
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
      with_int "workload -n %d" (oneof [ below 2; past_collectives ]) (fun n ->
          one_shot ~n (workload Run.Random));
      with_int "workload random --ops %d" neg (fun ops ->
          one_shot (workload ~ops Run.Random));
      with_int "workload stencil --ops %d" neg (fun ops ->
          one_shot (workload ~ops Run.Stencil));
      with_int "workload pipeline --ops %d" nonpos (fun ops ->
          one_shot (workload ~ops Run.Pipeline));
      with_int "workload master-worker --ops %d" nonpos (fun ops ->
          one_shot (workload ~ops Run.Master_worker));
      with_int "workload locked-counter --ops %d" nonpos (fun ops ->
          one_shot (workload ~ops Run.Locked_counter));
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
      map2
        (fun n ops ->
          Case ("workload", one_shot ~n (workload ~ops Run.Pipeline)))
        procs pos;
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

let () =
  Alcotest.run "run"
    [
      ( "validate",
        [
          QCheck_alcotest.to_alcotest prop_out_of_range_is_usage;
          QCheck_alcotest.to_alcotest prop_in_range_is_valid;
        ] );
    ]
